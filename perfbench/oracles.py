"""Known answers for the ``build`` workload, computed without the program.

Each check takes the generator's plain data for the inputs and the object
the program returned, and returns None when they agree or a short reason.
The program's objects are only read (elements and their order).
"""
from __future__ import annotations

from itertools import product as iproduct


def all_functions(src, tgt):
    """Every function src -> tgt, as a dict."""
    for values in iproduct(tgt, repeat=len(src)):
        yield dict(zip(src, values))


def _rows(elements, leq) -> list[int]:
    idx = {e: i for i, e in enumerate(elements)}
    rows = [0] * len(elements)
    for x, y in leq:
        rows[idx[x]] |= 1 << idx[y]
    return rows


def _rows_of(P) -> list[int]:
    """Up-set bitmasks of a program-side poset, read through ``leq``."""
    els = P.elements
    return _rows(els, [(x, y) for x in els for y in els if P.leq(x, y)])


def isomorphic(r1: list[int], r2: list[int]) -> bool:
    """Order-isomorphism of two posets given as up-set bitmask rows."""
    n = len(r1)
    if n != len(r2):
        return False

    def invariants(rows):
        return [(bin(rows[i]).count("1"), sum(rows[j] >> i & 1 for j in range(n))) for i in range(n)]

    inv1, inv2 = invariants(r1), invariants(r2)
    if sorted(inv1) != sorted(inv2):
        return False
    image = [-1] * n
    used = [False] * n

    def extend(i: int) -> bool:
        if i == n:
            return True
        for j in range(n):
            if used[j] or inv1[i] != inv2[j]:
                continue
            if all((r1[i] >> k & 1) == (r2[j] >> image[k] & 1)
                   and (r1[k] >> i & 1) == (r2[image[k]] >> j & 1) for k in range(i)):
                image[i], used[j] = j, True
                if extend(i + 1):
                    return True
                used[j] = False
        return False

    return extend(0)


def with_bottom(elements, leq):
    """The poset with one fresh least element adjoined."""
    bot = ("fresh-bottom",)
    return (bot, *elements), set(leq) | {(bot, e) for e in (bot, *elements)}


def smash_of(a, b):
    """The smash product: non-bottom pairs in the product order, plus one bottom."""
    (ea, la), (eb, lb) = a, b
    pairs = [(x, y) for x in ea[1:] for y in eb[1:]]
    leq = {(p, q) for p in pairs for q in pairs if (p[0], q[0]) in la and (p[1], q[1]) in lb}
    return with_bottom(pairs, leq)


def strict_monotone_count(a, b) -> int:
    (ea, la), (eb, lb) = a, b
    return sum(
        1 for f in all_functions(ea, eb)
        if f[ea[0]] == eb[0] and all((f[x], f[y]) in lb for x, y in la)
    )


def classical(op, a, b, obj) -> str | None:
    got = _rows_of(obj)
    if op == "lift":
        return None if isomorphic(got, _rows(*with_bottom(*a))) else "lift is not A with a fresh bottom"
    if op in ("smash", "tensor"):
        want = _rows(*smash_of(a, b))
        size = (len(a[0]) - 1) * (len(b[0]) - 1) + 1
        if obj.n != size:
            return f"{obj.n} elements, expected (|A|-1)(|B|-1)+1 = {size}"
        return None if isomorphic(got, want) else f"{op} is not isomorphic to the smash product"
    count = strict_monotone_count(a, b)
    return None if obj.n == count else f"{obj.n} elements, {count} strict monotone maps"


# ---------------------------------------------------------------------------
# presheaf requests

def _below(base, p):
    stages, leq = base
    return [q for q in stages if (q, p) in leq]


def lift_stage_size(base, a, p) -> int:
    """Partial elements at p: a sieve S on p with a compatible family on S."""
    _, leq = base
    down = _below(base, p)
    total = 0
    for mask in range(1 << len(down)):
        S = [down[i] for i in range(len(down)) if mask >> i & 1]
        if any(r not in S for q in S for r in _below(base, q)):
            continue
        for fam in iproduct(*(a["sets"][q] for q in S)):
            x = dict(zip(S, fam))
            if all(a["res"][(q, r)][x[q]] == x[r] for q in S for r in S if r != q and (r, q) in leq):
                total += 1
    return total


def strict_natural_count(base, a, b, p) -> int:
    """Strict, stagewise monotone, natural families on the stages below p."""
    _, leq = base
    down = _below(base, p)
    per_stage = []
    for q in down:
        src, tgt = (a["sets"][q], a["orders"][q]), (b["sets"][q], b["orders"][q])
        per_stage.append([
            f for f in all_functions(src[0], tgt[0])
            if f[src[0][0]] == tgt[0][0] and all((f[x], f[y]) in tgt[1] for x, y in src[1])
        ])
    count = 0
    for fams in iproduct(*per_stage):
        f = dict(zip(down, fams))
        if all(f[r][a["res"][(q, r)][x]] == b["res"][(q, r)][f[q][x]]
               for q in down for r in down if r != q and (r, q) in leq for x in a["sets"][q]):
            count += 1
    return count


def presheaf(op, base, a, b, outcome) -> str | None:
    stages, leq = base
    discrete = all(x == y for x, y in leq)
    if outcome[0] != "ok":
        if op == "smash" and not discrete:
            # the stagewise coequaliser may refuse over an ordered base;
            # which requests do is pinned per seed (workloads.check_build)
            return None
        return f"refused ({outcome[1]}); only the smash over an ordered base may refuse"
    obj = outcome[1]
    for p in stages:
        na, nb, got = len(a["sets"][p]), len(b["sets"][p]), len(obj.at(p))
        if op == "lift":
            want = lift_stage_size(base, a, p)
        elif op == "product":
            want = na * nb
        elif op == "smash":
            want = (na - 1) * (nb - 1) + 1
        else:
            bound = strict_natural_count(base, a, b, p)
            if _below(base, p) == [p]:
                if got != bound:
                    return f"stage {p}: {got} strict maps, {bound} by brute force"
            elif not 1 <= got <= bound:
                return f"stage {p}: {got} strict maps, outside 1..{bound}"
            continue
        if got != want:
            return f"stage {p}: {got} elements, expected {want}"
    return None
