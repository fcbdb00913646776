"""Checks and helpers that only the tests call.

``src/liftdom`` keeps a function only where a law, a control, the OQ1
search or a CLI command reaches it (``test_reach.py``).  These serve the
tests alone: the functor, monad and naturality laws of the lift, the
support map into Sigma, order predicates, the top and bottom sieves, the
internal semidirectedness formula at a stage, the associator check, the
element-level oracles of the presheaf supremum kernel, the slow
references of the classical quotient and of the direct smash oracle,
the pairwise and filtering references of the partial-map order and of the
strict hom-sets, the per-stage searches for natural maps and compatible
families that the one mask search replaced, the pairwise references of the
pointwise order on maps and of the presheaf lift and exponential orders, and
the seeded input stream of the benchmark's ``build`` workload."""
import importlib.util
import os

from liftdom.lifting import is_strict
from liftdom.order import (
    FinPoset,
    MonotoneMap,
    StructureError,
    Subset,
    _close_rows,
    _order_search,
    is_semidirected,
    subsets,
)
from liftdom.presheaf import (
    InternalPoset,
    NatTrans,
    Sieve,
    Subpresheaf,
    _continuity_checks,
    _preserves,
    enumerate_nat_trans,
    kj_forces,
    semidirectedness_formula,
)
from liftdom.tensor import associator


# ---------------------------------------------------------------------------
# The lifting monad.

def functor_laws_hold(bk, A, B, C, f, g) -> bool:
    """L preserves identities and composition (f : A->B, g : B->C)."""
    la = bk.lift(A)
    if bk.lift_map(bk.identity(A)) != bk.identity(la.obj):
        return False
    return bk.lift_map(bk.compose(g, f)) == bk.compose(bk.lift_map(g), bk.lift_map(f))


def monad_laws_hold(bk, A) -> bool:
    la = bk.lift(A)
    mu = bk.mult(A)
    ident = bk.identity(la.obj)
    if bk.compose(mu, bk.lift(la.obj).unit) != ident:
        return False
    if bk.compose(mu, bk.lift_map(la.unit)) != ident:
        return False
    return bk.compose(mu, bk.mult(la.obj)) == bk.compose(mu, bk.lift_map(mu))


def unit_naturality_holds(bk, f) -> bool:
    la, lb = bk.lift(f.dom), bk.lift(f.cod)
    return bk.compose(bk.lift_map(f), la.unit) == bk.compose(lb.unit, f)


def mult_naturality_holds(bk, f) -> bool:
    return bk.compose(bk.lift_map(f), bk.mult(f.dom)) == bk.compose(
        bk.mult(f.cod), bk.lift_map(bk.lift_map(f))
    )


def reference_strict_hom_set(bk, A, B):
    """The strict maps A -> B as the filter of ``bk.hom(A, B)`` by
    ``is_strict``, which composes each map with the bottom point."""
    return tuple(f for f in bk.hom(A, B) if is_strict(bk, f))


def partial_map_leq(bk, pm1, pm2) -> bool:
    """The partial-map order, one pair at a time: the domains nest at every
    stage, and the values are below on the smaller domain."""
    m1, m2 = dict(pm1.members), dict(pm2.members)
    for p in bk.stages(pm1.src):
        if not m1[p] <= m2[p]:
            return False
    return all(
        bk.leq_at(pm1.tgt, p, bk.app(pm1.value, p, x), bk.app(pm2.value, p, x))
        for p in bk.stages(pm1.src)
        for x in m1[p]
    )


def classifier(bk, A):
    """The support map LA -> Sigma, the functorial image of A -> 1.

    Classically it sends the fresh bottom to bottom and everything else to
    top; in the presheaf backend it reads off the sieve coordinate.
    """
    return bk.lift_map(bk.bang(A))


# ---------------------------------------------------------------------------
# Finite posets.

def antichain(n: int, prefix: str = "a") -> FinPoset:
    els = tuple(f"{prefix}{i}" for i in range(n))
    return FinPoset(els, frozenset((e, e) for e in els))


def covers(P: FinPoset) -> list[tuple]:
    """Hasse edges (x, y): x < y with nothing strictly between."""
    return [(P.elements[i], P.elements[j]) for i, j in P._cover_indices()]


def is_directed(P: FinPoset, S: Subset) -> bool:
    """Semidirected and inhabited."""
    return len(S.members) > 0 and is_semidirected(P, S)


def directed_subsets(P: FinPoset) -> list[Subset]:
    return [S for S in subsets(P) if is_directed(P, S)]


def is_order_embedding(f: MonotoneMap) -> bool:
    """f(x) <= f(y) iff x <= y, for all x, y."""
    for x in f.dom.elements:
        for y in f.dom.elements:
            if f.cod.leq(f(x), f(y)) != f.dom.leq(x, y):
                return False
    return True


def slow_quotient_poset(B: FinPoset, seeds) -> tuple[FinPoset, dict]:
    """The poset quotient of B by the congruence generated by ``seeds``, as
    ``order.quotient_poset`` computed it before its class-bit table: each
    class row found by testing the up-mask against every class's members."""
    parent = list(range(B.n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        i, j = find(i), find(j)
        parent[max(i, j)] = min(i, j)

    for x, y in seeds:
        union(B._index[x], B._index[y])
    merged = True
    while merged:
        roots = [i for i in range(B.n) if find(i) == i]
        cls = {r: k for k, r in enumerate(roots)}
        of = [cls[find(i)] for i in range(B.n)]
        # a class's row: the classes that meet the up-set of one of its members
        members, up = [0] * len(roots), [0] * len(roots)
        for i, row in enumerate(B._rows):
            members[of[i]] |= 1 << i
            up[of[i]] |= row
        rows = _close_rows([sum(1 << k for k, mask in enumerate(members) if u & mask) for u in up])
        merged = False
        for k, row in enumerate(rows):
            m = row >> k + 1 << k + 1  # the classes l > k above class k
            while m:
                low = m & -m
                m ^= low
                if rows[low.bit_length() - 1] >> k & 1:
                    union(roots[k], roots[low.bit_length() - 1])
                    merged = True
    reps = tuple(B.elements[r] for r in roots)
    return FinPoset._trusted(reps, tuple(rows)), {x: reps[of[i]] for i, x in enumerate(B.elements)}


# ---------------------------------------------------------------------------
# Presheaves and the tensor.

def omega_top(O: InternalPoset, p) -> Sieve:
    return Sieve(O.base, p, frozenset(O.base.down_list(p)))


def omega_bot(O: InternalPoset, p) -> Sieve:
    return Sieve(O.base, p, frozenset())


def internal_semidirected(D, stage) -> bool:
    return kj_forces(D.parent.base, stage, semidirectedness_formula(D))


def associator_iso_check(bk, A, B, C) -> bool:
    return bk.is_iso(associator(bk, A, B, C)[2])


def slow_direct_smash_classical(bk, A: FinPoset, B: FinPoset) -> FinPoset:
    """``tensor.direct_smash_classical`` as a pair set built from ``leq``
    calls and validated by ``FinPoset(elements, pairs)``."""
    if bk.name != "classical":
        raise StructureError("backend", "the direct quotient oracle is classical-only")
    if not A.is_pointed() or not B.is_pointed():
        raise StructureError("pointedness", "smash products need pointed factors")
    ba, bb = A.bottom(), B.bottom()
    label = "⊥"
    els = (label,) + tuple(
        ("pr", a, b) for a in A.elements for b in B.elements if a != ba and b != bb
    )
    pairs = {(label, e) for e in els} | {
        (x, y)
        for x in els[1:]
        for y in els[1:]
        if A.leq(x[1], y[1]) and B.leq(x[2], y[2])
    }
    return FinPoset(els, frozenset(pairs))


# ---------------------------------------------------------------------------
# The presheaf supremum kernel, element by element: the slow references the
# up-mask kernel of ``presheaf.py`` replaced.  They walk element identifiers
# one ``leq_at`` at a time and share no table with the kernel.

def _below_desc(base, p) -> list:
    return [q for q in base.stages_desc() if base.leq(q, p)]


def slow_lax_families(A, stage_list):
    """Every lax family on ``stage_list`` (down-closed, higher stages first):
    a dict stage -> element with res(q, r, m[q]) <= m[r] whenever r <= q."""
    base = A.base
    above = [[r for r in stage_list[:i] if base.leq(q, r)] for i, q in enumerate(stage_list)]
    fam: dict = {}

    def rec(i: int):
        if i == len(stage_list):
            yield dict(fam)
            return
        q = stage_list[i]
        lower = [A.res_el(r, q, fam[r]) for r in above[i]]
        P = A.stage_poset(q)
        for x in A.at(q):
            if all(P.leq(y, x) for y in lower):
                fam[q] = x
                yield from rec(i + 1)
                del fam[q]

    return rec(0)


def slow_least_upper_bound(A, below, p):
    """The internal least upper bound at stage p of everything ``below(r)``
    lists at the stages r <= p, or None: s qualifies iff its restriction to
    every q <= p is the minimum of the stage-q upper bounds."""
    base = A.base
    mins = {}
    for q in base.down_list(p):
        lower = [(r, d) for r in base.down_list(q) for d in below(r)]
        ubs = [
            s for s in A.at(q) if all(A.leq_at(r, d, A.res_el(q, r, s)) for r, d in lower)
        ]
        m = next((u for u in ubs if all(A.leq_at(q, u, v) for v in ubs)), None)
        if m is None:
            return None
        mins[q] = m
    s = mins[p]
    for q in base.down_list(p):
        if A.res_el(p, q, s) != mins[q]:
            return None
    return s


def slow_internal_sup(A, D, p):
    return slow_least_upper_bound(A, D.at, p)


def slow_family_sup(A, fam: dict, p):
    return slow_least_upper_bound(A, lambda r: (fam[r],) if r in fam else (), p)


def slow_is_internal_dcpo(A):
    for p in A.base.stages:
        for fam in slow_lax_families(A, _below_desc(A.base, p)):
            if slow_family_sup(A, fam, p) is None:
                members: dict = {r: set() for r in A.base.stages}
                for q, m in fam.items():
                    for r in A.base.down_list(q):
                        members[r].add(A.res_el(q, r, m))
                return False, (p, Subpresheaf.make(A, members))
    return True, None


def slow_positive_members(A) -> dict:
    base = A.base
    blocked: dict = {}
    for q in base.stages:
        strictly_below = [r for r in _below_desc(base, q) if r != q]
        sups = {slow_family_sup(A, fam, q) for fam in slow_lax_families(A, strictly_below)}
        sups.discard(None)
        blocked[q] = {y for y in A.at(q) if any(A.leq_at(q, y, s) for s in sups)}
    return {
        p: frozenset(
            x
            for x in A.at(p)
            if all(A.res_el(p, q, x) not in blocked[q] for q in base.down_list(p))
        )
        for p in base.stages
    }


def slow_is_continuous(f) -> bool:
    A, B = f.dom, f.cod
    for p in A.base.stages:
        for fam in slow_lax_families(A, _below_desc(A.base, p)):
            s = slow_family_sup(A, fam, p)
            if s is None:
                continue
            t = slow_family_sup(B, {q: f.apply(q, m) for q, m in fam.items()}, p)
            if t is None or f.apply(p, s) != t:
                return False
    return True


def slow_continuous_maps(A, B) -> list:
    """Every monotone natural map, then the filter."""
    return [f for f in enumerate_nat_trans(A, B) if slow_is_continuous(f)]


# ---------------------------------------------------------------------------
# The per-stage searches that the one mask search of ``presheaf.py`` replaced:
# one ``_order_search`` per stage, higher stages first, naturality passed
# down as pins, and the own recursion of ``compatible_families``.

def reference_stagewise_search(A, B, emit, iso=False, continuous=False, pins=None) -> bool:
    """Every natural stagewise map A -> B that is monotone (with ``iso``, an
    order-iso; with ``continuous``, Scott continuous) at each stage,
    lexicographic over stages in ``stages_desc()`` order, elements in stage
    order and values in codomain order.  ``pins`` (stage -> {element of A:
    element of B}) keeps only the maps with those values, in the same order.

    Each stage above q comes before q, so naturality at q pins
    f_q(res(x)) = res(f_r(x)) for every chosen r above q, beside the given
    pins at q (conflicting pins leave no component), and the order search
    lists the components at q that agree with the pins.  A continuity check
    at p runs as soon as every stage <= p has its component, and a branch
    that fails it is dropped.  ``emit(components)`` gets each map aligned
    with ``base.stages``; a true return stops the search."""
    base = A.base
    at = base.poset._index
    stages = base.stages_desc()
    order = [at[q] for q in stages]
    PA, PB = A.stage_posets, B.stage_posets

    def res_index(X, r, q):
        # X's restriction from r to q, as indices into X's stage poset at q
        return tuple(X.stage_posets[at[q]]._index[y] for y in X.restrictions[base._pair_index[r, q]])

    # per search position i: each earlier stage above it, with both restrictions
    above = [
        [(at[r], res_index(A, r, q), res_index(B, r, q)) for r in stages[:i] if base.leq(q, r)]
        for i, q in enumerate(stages)
    ]
    # per search position: the continuity checks whose stages are all chosen there
    ready: list = [[] for _ in stages]
    if continuous:
        for check in _continuity_checks(A, B):
            ready[max(order.index(r) for r, _ in check[1])].append(check)
    chosen: list = [None] * len(stages)  # value indices per stage position
    # per search position: the given pins as indices into the stage posets
    given = [
        {PA[k]._index[x]: PB[k]._index[v] for x, v in (pins or {}).get(q, {}).items()}
        for q, k in zip(stages, order)
    ]

    def rec(i: int) -> bool:
        if i == len(stages):
            return emit(tuple(tuple(map(Q.elements.__getitem__, vals)) for Q, vals in zip(PB, chosen)))
        fixed = dict(given[i])
        for k, res_a, res_b in above[i]:
            for x, v in zip(res_a, chosen[k]):
                w = res_b[v]
                if fixed.setdefault(x, w) != w:
                    return False

        def stage_emit(vals):
            chosen[order[i]] = tuple(vals)
            return all(_preserves(check, chosen) for check in ready[i]) and rec(i + 1)

        return _order_search(PA[order[i]]._rows, PB[order[i]]._rows, stage_emit, fixed, iso)

    return rec(0)


def reference_nat_trans(A, B, continuous=False, pins=None) -> list:
    out: list = []
    reference_stagewise_search(
        A, B, lambda comps: out.append(NatTrans._trusted(A, B, comps)), continuous=continuous, pins=pins
    )
    return out


def reference_natural_iso(A, B):
    """The first natural stagewise order-iso in the per-stage search order."""
    found: list = []
    reference_stagewise_search(A, B, lambda comps: found.append(comps) or True, iso=True)
    return NatTrans._trusted(A, B, found[0]) if found else None


def reference_compatible_families(A, stage_list):
    """Backtracks along the list, checking each new stage against the stages
    already chosen in both directions and trying the elements of ``A.at(q)``
    in order, so families come out in lexicographic order."""
    base = A.base
    # per stage: (position, stage, whether the new stage lies below it)
    earlier = [
        [
            (j, r, base.leq(q, r))
            for j, r in enumerate(stage_list[:i])
            if base.leq(q, r) or base.leq(r, q)
        ]
        for i, q in enumerate(stage_list)
    ]
    fam: list = []

    def rec(i: int):
        if i == len(stage_list):
            yield tuple(fam)
            return
        q = stage_list[i]
        for x in A.at(q):
            if all(
                A.res_el(r, q, fam[j]) == x if below else A.res_el(q, r, x) == fam[j]
                for j, r, below in earlier[i]
            ):
                fam.append(x)
                yield from rec(i + 1)
                fam.pop()

    return rec(0)


# ---------------------------------------------------------------------------
# The pointwise order, one pair at a time: the references of the up-mask
# kernel ``order._up_masks``, which ``hom_leq``, ``hom_up_masks`` and the
# lift and exponential orders read.

def map_leq(f: MonotoneMap, g: MonotoneMap) -> bool:
    """The pointwise order on parallel monotone maps."""
    if f.dom != g.dom or f.cod != g.cod:
        raise StructureError("composability", "maps are not parallel")
    return all(f.cod.leq(a, b) for a, b in zip(f.values, g.values))


def pairwise_hom_leq(bk, f, g) -> bool:
    """The pointwise order on parallel maps of either backend, one element
    at a time through ``app`` and ``leq_at``."""
    if f.dom != g.dom or f.cod != g.cod:
        raise StructureError("composability", "maps are not parallel")
    return all(
        bk.leq_at(f.cod, p, bk.app(f, p, x), bk.app(g, p, x)) for p in bk.stages(f.dom) for x in bk.at(f.dom, p)
    )


def lift_leq(A, x, y) -> bool:
    """The presheaf lift's order on two elements ("lf", sieve, family) of
    one stage: the sieves nest, and the families compare on the smaller."""
    _, S, fam = x
    _, T, gam = y
    if not set(S) <= set(T):
        return False
    pos = {r: i for i, r in enumerate(T)}
    return all(A.leq_at(r, fam[i], gam[pos[r]]) for i, r in enumerate(S))


def exponential_leq(A, B, x, y) -> bool:
    """The presheaf exponential's order on two function elements of one
    stage, ("fn", (q, values at A's elements at q), ...): pointwise at every
    stage they cover."""
    cx, cy = ({e[0]: dict(zip(A.at(e[0]), e[1:])) for e in fe[1:]} for fe in (x, y))
    return all(B.leq_at(q, cx[q][a], cy[q][a]) for q in cx for a in cx[q])


def reference_rows(els, le) -> tuple:
    """The up-mask rows of the relation ``le`` on ``els``."""
    return tuple(sum(1 << j for j, y in enumerate(els) if le(x, y)) for x in els)


def build_inputs(seed):
    """The seeded input stream of the benchmark's ``build`` workload."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "gen.py")
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen.build_inputs(seed)
