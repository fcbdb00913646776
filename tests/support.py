"""Checks and helpers that only the tests call.

``src/liftdom`` keeps a function only where a law, a control, the OQ1
search or a CLI command reaches it (``test_reach.py``).  These serve the
tests alone: the functor, monad and naturality laws of the lift, the
support map into Sigma, order predicates, the top and bottom sieves, the
internal semidirectedness formula at a stage and the associator check."""
from liftdom.order import FinPoset, MonotoneMap, Subset, is_semidirected, subsets
from liftdom.presheaf import InternalPoset, Sieve, kj_forces, semidirectedness_formula
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
