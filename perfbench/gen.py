"""Seeded inputs for the ``build`` workload.

The generator returns plain data (element tuples, order pairs, restriction
dicts) and never calls the program, so the inputs depend only on the seed.
The workload turns the data into ``FinPoset`` / ``InternalPoset`` objects
inside the timed region, as a user's model would be validated on entry.

Input families, and why each is in the mix:

* classical pairs of pointed posets with 2 to 5 elements.  Every pointed
  poset is a poset with a bottom adjoined, so a random DAG on n-1 points,
  closed transitively, plus a fresh bottom reaches every pointed poset of
  size n.  Antichains, chains and posets in between occur in fixed
  proportions (see ``classical_pairs``).  Sizes stop at 5 because
  ``strict_hom`` on 6-element pairs is dominated by a few very heavy
  inputs, which would make the run time depend on the seed more than on
  the program.
* presheaf pairs of internally pointed posets over every base poset with 2
  or 3 stages.  Each stage is a small pointed poset and each restriction
  keeps the bottom, so lift, product, smash and strict_hom all apply; the
  coequaliser behind the smash may still refuse (``UnavailableError``),
  which is an expected outcome.  Stage sizes stay at 1 or 2 elements and
  cycle through every pattern: the presheaf exponential enumerates natural
  transformations per stage and grows too fast beyond that for a run of
  seconds.
"""
from __future__ import annotations

import random

# Every base poset with 2 or 3 stages up to isomorphism, as covering pairs
# (lower, upper) over stages s0, s1, s2.
BASES = (
    ("2-antichain", ("s0", "s1"), ()),
    ("2-chain", ("s0", "s1"), (("s0", "s1"),)),
    ("3-antichain", ("s0", "s1", "s2"), ()),
    ("chain+point", ("s0", "s1", "s2"), (("s0", "s1"),)),
    ("V", ("s0", "s1", "s2"), (("s0", "s1"), ("s0", "s2"))),
    ("Λ", ("s0", "s1", "s2"), (("s0", "s2"), ("s1", "s2"))),
    ("3-chain", ("s0", "s1", "s2"), (("s0", "s1"), ("s1", "s2"))),
)

CLASSICAL_PAIRS = 144
PRESHEAF_PAIRS_PER_BASE = 16


def closure(elements, gens) -> frozenset:
    """The reflexive-transitive closure of ``gens`` over ``elements``."""
    leq = {(x, x) for x in elements} | set(gens)
    changed = True
    while changed:
        changed = False
        for x, y in list(leq):
            for y2, z in list(leq):
                if y == y2 and (x, z) not in leq:
                    leq.add((x, z))
                    changed = True
    return frozenset(leq)


def pointed_poset(rng: random.Random, n: int, prefix: str, comparable: int = 0) -> tuple[tuple, frozenset]:
    """A random pointed poset with ``n`` elements; element 0 is the bottom.

    Above the bottom, exactly ``comparable`` pairs of distinct elements are
    comparable: random DAGs of random density, closed transitively, are
    drawn until one has that many.
    """
    bot = f"{prefix}0"
    rest = [f"{prefix}{i}" for i in range(1, n)]
    while True:
        density = rng.random()
        gens = [(rest[i], rest[j]) for i in range(len(rest)) for j in range(i + 1, len(rest))
                if rng.random() < density]
        if len(closure(rest, gens)) - len(rest) == comparable:
            break
    gens += [(bot, x) for x in rest]
    rng.shuffle(rest)  # the listed order need not be a linear extension
    elements = (bot, *rest)
    return elements, closure(elements, gens)


# Shares of the comparable pairs a poset can have: antichain, middle, chain.
LEVELS = (0.0, 0.5, 1.0)


def classical_pairs(rng: random.Random, count: int = CLASSICAL_PAIRS) -> list:
    # Sizes 2..5 and the number of comparable pairs (LEVELS) cycle through
    # every combination for both sides, 16 * 3 * 3 = 144 pairs, so the seed
    # picks the shapes and labellings but not the sizes and densities that
    # the cost of a request mostly depends on (a strict_hom out of a sparse
    # 5-element poset into a dense one costs a hundred times the median).
    out = []
    for i in range(count):
        na, nb = 2 + i % 4, 2 + i // 4 % 4
        la, lb = LEVELS[i // 16 % 3], LEVELS[i // 48 % 3]
        a = pointed_poset(rng, na, "a", round(la * (na - 1) * (na - 2) / 2))
        b = pointed_poset(rng, nb, "b", round(lb * (nb - 1) * (nb - 2) / 2))
        out.append((a, b))
    return out


def _monotone(src, tgt, f) -> bool:
    (_, src_leq), (_, tgt_leq) = src, tgt
    return all((f[x], f[y]) in tgt_leq for x, y in src_leq)


def internal_poset(rng: random.Random, stages, leq, prefix: str, sizes) -> dict:
    """A random internally pointed poset over the base ``(stages, leq)``
    with ``sizes[i]`` elements at stage i.

    Restrictions along a pair with an intermediate stage are composites, so
    functoriality holds by construction; direct ones are drawn at random
    among bottom-preserving maps and redrawn until they are monotone.
    """
    below = {p: [q for q in stages if (q, p) in leq and q != p] for p in stages}
    while True:
        posets = {p: pointed_poset(rng, n, f"{prefix}{p}_") for p, n in zip(stages, sizes)}
        res: dict = {}
        ok = True
        # longer pairs are composites of shorter ones, so do shorter first
        pairs = sorted(((p, q) for p in stages for q in below[p]),
                       key=lambda pq: sum(1 for r in below[pq[0]] if (pq[1], r) in leq))
        for p, q in pairs:
            mid = [r for r in below[p] if r != q and (q, r) in leq]
            src, tgt = posets[p][0], posets[q][0]
            if mid:
                r = mid[0]
                res[(p, q)] = {x: res[(r, q)][res[(p, r)][x]] for x in src}
            else:
                f = {src[0]: tgt[0]}
                f.update({x: rng.choice(tgt) for x in src[1:]})
                res[(p, q)] = f
            if not _monotone(posets[p], posets[q], res[(p, q)]):
                ok = False
                break
        if ok:
            return {
                "sets": {p: posets[p][0] for p in stages},
                "orders": {p: posets[p][1] for p in stages},
                "res": res,
            }


def presheaf_pairs(rng: random.Random, per_base: int = PRESHEAF_PAIRS_PER_BASE) -> list:
    out = []
    for name, stages, covers in BASES:
        leq = closure(stages, covers)
        for j in range(per_base):
            # stage sizes (1 or 2) cycle through every pattern, as above
            a = internal_poset(rng, stages, leq, "a", [1 + (j >> i & 1) for i in range(len(stages))])
            b = internal_poset(rng, stages, leq, "b", [1 + ((3 * j + 1) >> i & 1) for i in range(len(stages))])
            out.append((name, (stages, leq), a, b))
    return out


def build_inputs(seed: int) -> dict:
    """Every input of one ``build`` pass, as plain data; same seed, same data."""
    rng = random.Random(seed)
    return {"seed": seed, "classical": classical_pairs(rng), "presheaf": presheaf_pairs(rng)}
