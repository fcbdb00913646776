"""Cross-backend and cross-bound invariants from the module contracts."""
from itertools import product as iproduct

from liftdom.backend import ClassicalBackend, PresheafBackend
from liftdom.lifting import is_algebra, kleisli_extend, monad_laws_hold
from liftdom.oq1 import OQ1Bounds, internal_posets
from liftdom.order import FinPoset, enumerate_monotone_maps, posets_upto, scott_opens, subsets
from liftdom.presheaf import (
    BasePoset,
    InternalPoset,
    Sieve,
    internal_sup,
    is_internal_dcpo,
    is_internal_pointed,
    omega,
    subpresheaves_below,
)

CL = ClassicalBackend()


def test_monotone_maps_bruteforce_up_to_four():
    # the enumerator against the definition, over every assignment
    for A in posets_upto(4):
        for B in posets_upto(4):
            got = {f.values for f in enumerate_monotone_maps(A, B)}
            brute = set()
            for vals in iproduct(B.elements, repeat=A.n):
                if all(
                    B.leq(vals[i], vals[j])
                    for i in range(A.n)
                    for j in range(A.n)
                    if A._rows[i] >> j & 1
                ):
                    brute.add(vals)
            assert got == brute


def test_monad_laws_up_to_four_classical():
    for A in posets_upto(4):
        assert monad_laws_hold(CL, A)


def test_monad_laws_presheaf_three_stages():
    base = BasePoset(FinPoset.chain(3, prefix="s"))
    bk = PresheafBackend(base)
    for P in (FinPoset.chain(1), FinPoset.chain(2), FinPoset.antichain(2)):
        A = InternalPoset.constant(base, P)
        assert monad_laws_hold(bk, A)
    assert monad_laws_hold(bk, omega(base))


def test_omega_is_an_internal_sup_lattice():
    # every subpresheaf of the classifier, directed or not, has an internal
    # sup, and it is the stagewise union of the members below
    for base_poset in posets_upto(3):
        if base_poset.n == 0:
            continue
        base = BasePoset(base_poset)
        O = omega(base)
        for p in base.stages:
            for D in subpresheaves_below(O, p):
                s = internal_sup(O, D, p)
                assert s is not None
                union = set()
                for q in base.down_list(p):
                    for d in D.at(q):
                        union |= set(d.members)
                assert s == Sieve(base, p, frozenset(union))


def test_point_base_agrees_with_classical():
    # over the one-stage base every construction collapses to the classical
    # one through the evident dictionary stage-element <-> element
    base = BasePoset(FinPoset(("s",), frozenset([("s", "s")])))
    bk = PresheafBackend(base)
    lifted_maps = inverted = 0
    for P in posets_upto(3):
        A = InternalPoset.constant(base, P)
        # hom sets agree in size (continuity is vacuous over a point)
        for Q in posets_upto(3):
            B = InternalPoset.constant(base, Q)
            assert len(bk.hom(A, B)) == len(CL.hom(P, Q))
            # inverses agree: both None, or the same map
            for f in CL.hom(P, Q):
                inv_cl, inv_ps = CL.inverse(f), bk.inverse(_over_point(bk, f))
                assert (inv_cl is None) == (inv_ps is None)
                if inv_cl is not None:
                    assert inv_ps.components == (inv_cl.values,)
                    inverted += 1
        # subobjects agree on every subset: elements, order and inclusion
        for S in subsets(P):
            sub_ps, incl_ps = bk.subobject(A, {"s": S.members})
            sub_cl, incl_cl = CL.subobject(P, {None: S.members})
            assert sub_ps.at("s") == sub_cl.elements
            assert sub_ps.stage_poset("s").pairs == sub_cl.pairs
            assert incl_ps.components == (incl_cl.values,)
        # lifting agrees: one fresh element below everything
        assert len(bk.lift(A).obj.at("s")) == CL.lift(P).obj.n
        lifted_maps += _lifting_monad_agrees(bk, P, A)
        # Scott-opens agree with up-sets, and positive elements agree
        assert len(bk.scott_open_subobjects(A)) == len(scott_opens(P))
        assert bk.positive_elements(A) == {"s": CL.positive_elements(P)[None]}
        # pointedness and folds agree
        assert bk.is_pointed(A) == P.is_pointed()
        if P.is_pointed():
            alpha_ps = bk.algebra_structure(A)
            alpha_cl = CL.algebra_structure(P)
            la_ps, la_cl = bk.lift(A), CL.lift(P)
            for u_ps, u_cl in zip(la_ps.obj.at("s"), la_cl.obj.elements):
                lhs = alpha_ps.apply("s", u_ps)
                rhs = alpha_cl(u_cl)
                # both carriers enumerate bottom-first, so indexwise match
                assert (lhs == rhs) or (
                    la_ps.is_bot("s", u_ps) and la_cl.is_bot(None, u_cl)
                )
        # the shared constructions agree: elements, order pairs, map values
        assert bk.bang(A).components == (CL.bang(P).values,)
        for Q in posets_upto(2):
            B = InternalPoset.constant(base, Q)
            pd_ps, pd_cl = bk.product(A, B), CL.product(P, Q)
            cd_ps, cd_cl = bk.coproduct(A, B), CL.coproduct(P, Q)
            for obj_ps, obj_cl in ((pd_ps.obj, pd_cl.obj), (cd_ps.obj, cd_cl.obj)):
                assert obj_ps.at("s") == obj_cl.elements
                assert obj_ps.stage_poset("s").pairs == obj_cl.pairs
            maps = (
                (pd_ps.fst, pd_cl.fst),
                (pd_ps.snd, pd_cl.snd),
                (cd_ps.inl, cd_cl.inl),
                (cd_ps.inr, cd_cl.inr),
            )
            for f_ps, f_cl in maps:
                assert f_ps.components == (f_cl.values,)
            for f in CL.hom(P, P):
                for g in CL.hom(P, Q):
                    paired = bk.pair(pd_ps, _over_point(bk, f), _over_point(bk, g))
                    assert paired.components == (CL.pair(pd_cl, f, g).values,)
            for f in CL.hom(P, Q):
                for g in CL.hom(Q, Q):
                    cotupled = bk.cotuple(cd_ps, _over_point(bk, f), _over_point(bk, g))
                    assert cotupled.components == (CL.cotuple(cd_cl, f, g).values,)
    # every map between posets with at most 3 elements was lifted, and the
    # invertible ones are the automorphisms: 1 + 1 + (1 + 2) + (1 + 6 + 2 + 2 + 1)
    assert lifted_maps == 485
    assert inverted == 17


def _families(bk, p, ld, key=lambda v: v):
    """LA's carrier at p in order, each element read as the values of its
    partial family: () for the bottom, (key(a),) for the unit image of a."""
    return [tuple(key(v) for _, v in ld.family(p, u)) for u in bk.at(ld.obj, p)]


def _positions(bk, p, f):
    """The map f at stage p as positions in its codomain's carrier."""
    cod = bk.at(f.cod, p)
    return tuple(cod.index(bk.app(f, p, x)) for x in bk.at(f.dom, p))


def _lifting_monad_agrees(bk, P, A):
    """The lift of P and of the constant presheaf A over the one-stage base
    agree through ``family``: carriers bottom first, unit, bottom and mult,
    and, against every poset Q with at most 3 elements, the strength and
    ``lift_map`` on every map P -> Q.  Returns how many maps it lifted."""
    sides = ((CL, None, P), (bk, "s", A))
    got = []
    for b, p, X in sides:
        la = b.lift(X)
        lla = b.lift(la.obj)
        index = b.at(la.obj, p).index
        got.append(
            (
                _families(b, p, la),
                _positions(b, p, la.unit),
                _positions(b, p, la.bottom),
                _families(b, p, lla, index),
                _positions(b, p, b.mult(X)),
            )
        )
    assert got[0] == got[1]
    assert got[0][0][0] == ()
    lifted = 0
    for Q in posets_upto(3):
        B = InternalPoset.constant(bk.base, Q)
        got = []
        for b, p, X, Y in ((CL, None, P, Q), (bk, "s", A, B)):
            lb = b.lift(Y)
            index = b.at(lb.obj, p).index
            pd = b.product(X, lb.obj)
            lab = b.lift(b.product(X, Y).obj)
            st = b.strength(X, Y)
            got.append(
                (
                    [(x, index(u)) for x, u in (pd.unpack(p, y) for y in b.at(pd.obj, p))],
                    _families(b, p, lab),
                    _positions(b, p, st),
                )
            )
        assert got[0] == got[1]
        for f in CL.hom(P, Q):
            assert _positions(bk, "s", bk.lift_map(_over_point(bk, f))) == _positions(CL, None, CL.lift_map(f))
            lifted += 1
    return lifted


def _over_point(bk, f):
    """A classical map as a transformation between constant presheaves."""
    dom, cod = (InternalPoset.constant(bk.base, P) for P in (f.dom, f.cod))
    return bk.mor_from_fn(dom, cod, lambda p, x: f(x))


def test_fold_exactly_on_pointed_dcpos():
    # the fold derived from the cone datum (bottom, identity) exists on every
    # pointed internal dcpo and is an algebra there; on a pointed internal
    # poset that is not a dcpo the backend answers None
    bounds = OQ1Bounds(max_base=2, max_carrier=4)
    seen = {True: 0, False: 0}
    for P in posets_upto(2):
        if P.n == 0:
            continue
        bk = PresheafBackend(BasePoset(P))
        for A in internal_posets(bk.base, bounds):
            if not is_internal_pointed(A):
                continue
            dcpo = is_internal_dcpo(A)[0]
            alpha = bk.algebra_structure(A)
            assert (alpha is None) == (not dcpo)
            if dcpo:
                assert is_algebra(bk, A, alpha)
            seen[dcpo] += 1
    assert seen == {True: 55, False: 15}


def test_kleisli_extension_against_direct_oracle():
    # the composite definition against the pointwise one: unit images go to
    # the value, the fresh bottom goes to the bottom
    for A in posets_upto(3):
        for B in posets_upto(3):
            la, lb = CL.lift(A), CL.lift(B)
            for f in CL.hom(A, lb.obj):
                ext = kleisli_extend(CL, f, B)
                for u in la.obj.elements:
                    if la.is_bot(None, u):
                        assert ext(u) == lb.bot_elem(None)
                    else:
                        assert ext(u) == f(u)


def test_lift_map_oracle():
    for A in posets_upto(3):
        for B in posets_upto(3):
            la, lb = CL.lift(A), CL.lift(B)
            for f in CL.hom(A, B):
                lf = CL.lift_map(f)
                assert lf(la.bot_elem(None)) == lb.bot_elem(None)
                for a in A.elements:
                    assert lf(a) == f(a)
