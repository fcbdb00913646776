"""Checks and helpers that only the tests call.

``src/liftdom`` keeps a function only where a law, a control, the OQ1
search or a CLI command reaches it (``test_reach.py``).  These serve the
tests alone: the functor, monad and naturality laws of the lift, the
support map into Sigma, order predicates, the top and bottom sieves, the
internal semidirectedness formula at a stage, the associator check, and
the element-level oracles of the presheaf supremum kernel."""
from liftdom.order import FinPoset, MonotoneMap, Subset, is_semidirected, subsets
from liftdom.presheaf import (
    InternalPoset,
    Sieve,
    Subpresheaf,
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
