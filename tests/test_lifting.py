import pytest

from liftdom.backend import (
    ClassicalBackend,
    PresheafBackend,
    UnavailableError,
    sierpinski_base,
)
from liftdom.lifting import (
    Algebra,
    _is_point,
    algebra_structure,
    all_algebra_structures,
    commutator,
    commutator_both,
    conservativity_check,
    costrength,
    enumerate_partial_maps,
    free_on_positives_check,
    is_algebra,
    is_homomorphism,
    is_strict,
    joint_epi_check,
    kleisli_extend,
    kz_check,
    lax_epi_check,
    open_classifier_check,
    partial_product_check,
    paths_check,
    phoa_check,
    positive_elements,
    scone_universal_check,
    strict_hom_set,
    strict_iff_hom_check,
    top_opfibration_check,
)
from liftdom.oq1 import OQ1Bounds, _small_bases, internal_posets
from liftdom.order import (
    FinPoset,
    MonotoneMap,
    is_semidirected,
    lub,
    poset_iso,
    posets_upto,
    subsets,
)
from liftdom.presheaf import InternalPoset, global_elements_raw, omega

from support import (
    classifier,
    functor_laws_hold,
    is_order_embedding,
    monad_laws_hold,
    mult_naturality_holds,
    unit_naturality_holds,
)

CL = ClassicalBackend()
PS = PresheafBackend(sierpinski_base())


def test_classical_lift_shapes():
    assert CL.lift(FinPoset.chain(2)).obj.n == 3
    assert poset_iso(CL.lift(FinPoset.chain(2)).obj, FinPoset.chain(3)) is not None
    assert CL.lift(CL.initial()).obj.n == 1
    # iterated lifting freshens the bottom label
    ld1 = CL.lift(FinPoset.chain(2))
    ld2 = CL.lift(ld1.obj)
    assert ld2.obj.n == 4 and len(set(ld2.obj.elements)) == 4


def test_unit_is_order_embedding_everywhere():
    for A in posets_upto(4):
        ld = CL.lift(A)
        assert is_order_embedding(ld.unit)


def test_monad_laws_classical():
    for A in posets_upto(3):
        assert monad_laws_hold(CL, A)
    f = MonotoneMap.make(FinPoset.chain(2), FinPoset.chain(3), {"c0": "c0", "c1": "c2"})
    g = MonotoneMap.make(FinPoset.chain(3), FinPoset.chain(2), {"c0": "c0", "c1": "c0", "c2": "c1"})
    assert functor_laws_hold(CL, f.dom, f.cod, g.cod, f, g)
    assert unit_naturality_holds(CL, f)
    maps = [h for A in posets_upto(3) for B in posets_upto(3) for h in CL.hom(A, B)]
    assert len(maps) == 485
    assert all(mult_naturality_holds(CL, h) for h in maps)


def test_monad_laws_presheaf():
    O = omega(PS.base)
    T = PS.terminal()
    A = InternalPoset.constant(PS.base, FinPoset.chain(2))
    for X in (T, A, O):
        assert monad_laws_hold(PS, X)
    endomaps = PS.hom(O, O)
    assert endomaps
    assert all(mult_naturality_holds(PS, h) for h in endomaps)


def test_presheaf_lift_of_terminal_is_omega():
    ld = PS.lift(PS.terminal())
    O = omega(PS.base)
    assert len(ld.obj.at("s1")) == 3 and len(ld.obj.at("s0")) == 2
    assert PS.iso(ld.obj, O) is not None
    assert len(global_elements_raw(ld.obj)) == 3


def test_lift_is_not_coproduct_with_point_presheaf():
    one = PS.terminal()
    cd = PS.coproduct(one, one)
    assert len(global_elements_raw(cd.obj)) == 2
    assert PS.iso(PS.lift(one).obj, cd.obj) is None


def test_kleisli_and_commutator_classical():
    A = FinPoset.chain(2)
    B = FinPoset.chain(2)
    la, lb = CL.lift(A), CL.lift(B)
    # extension of the unit is the identity
    assert kleisli_extend(CL, lb.unit, B) == CL.identity(lb.obj)
    # extension of the constant bottom is constant bottom (strictness)
    const_bot = CL.compose(lb.bottom, CL.bang(A))
    ext = kleisli_extend(CL, const_bot, B)
    assert all(ext(u) == lb.bot_elem(None) for u in la.obj.elements)
    for X in posets_upto(3):
        for Y in posets_upto(3):
            k1, k2 = commutator_both(CL, X, Y)
            assert k1 == k2


def test_commutator_values():
    A = FinPoset.chain(2)
    k = commutator(CL, A, A)
    la = CL.lift(A)
    pd = CL.product(la.obj, la.obj)
    pab = CL.product(A, A)
    lab = CL.lift(pab.obj)
    bot = la.bot_elem(None)
    for u in la.obj.elements:
        assert k(pd.pack(None, bot, u)) == lab.bot_elem(None)
        assert k(pd.pack(None, u, bot)) == lab.bot_elem(None)
    for a in A.elements:
        for b in A.elements:
            got = k(pd.pack(None, la.unit(a), la.unit(b)))
            assert got == lab.unit(pab.pack(None, a, b))


def test_commutator_presheaf_orders_agree():
    one = PS.terminal()
    k1, k2 = commutator_both(PS, one, one)
    assert k1 == k2
    A = InternalPoset.constant(PS.base, FinPoset.chain(2))
    k1, k2 = commutator_both(PS, A, one)
    assert k1 == k2


def test_strength_recoverable_from_commutator():
    # applying the commutator with a unit in the left slot is the strength
    for A in posets_upto(2):
        for B in posets_upto(2):
            k = commutator(CL, A, B)
            la, lb = CL.lift(A), CL.lift(B)
            pd_albl = CL.product(la.obj, lb.obj)
            pd = CL.product(A, lb.obj)
            eta_x_id = CL.pair(
                pd_albl,
                CL.compose(la.unit, pd.fst),
                pd.snd,
            )
            assert CL.compose(k, eta_x_id) == CL.strength(A, B)


def test_algebra_structure_and_uniqueness():
    for X in posets_upto(4):
        alg = algebra_structure(CL, X)
        structures = all_algebra_structures(CL, X)
        if X.is_pointed():
            assert alg is not None
            assert structures == [alg.structure]
            ok, failures = kz_check(CL, alg)
            assert ok, failures
        else:
            assert alg is None
            assert structures == []


def test_kz_negative_control():
    X = FinPoset.chain(3)
    ld = CL.lift(X)
    # corrupt the fold monotonically: bump the middle unit image to the top
    bad = MonotoneMap.make(
        ld.obj, X, lambda u: "c0" if ld.is_bot(None, u) else ("c2" if u == "c1" else u)
    )
    assert not is_algebra(CL, X, bad)
    ok, failures = kz_check(CL, Algebra(X, bad))
    assert not ok and failures


def test_omega_carries_algebra_structure():
    O = omega(PS.base)
    alpha = PS.algebra_structure(O)
    assert alpha is not None
    assert is_algebra(PS, O, alpha)
    ok, failures = kz_check(PS, Algebra(O, alpha))
    assert ok, failures


def test_strict_iff_hom():
    for A in posets_upto(3, pointed=True):
        for B in posets_upto(3, pointed=True):
            for f in CL.hom(A, B):
                assert strict_iff_hom_check(CL, f)


def test_strict_examples():
    S = FinPoset.chain(2)
    ident = CL.identity(S)
    assert is_strict(CL, ident)
    const_top = MonotoneMap.make(S, S, lambda _: "c1")
    assert not is_strict(CL, const_top)
    aS = CL.algebra_structure(S)
    assert is_homomorphism(CL, ident, aS, aS)
    assert not is_homomorphism(CL, const_top, aS, aS)


def test_scone_universal_and_epi_checks():
    for A in posets_upto(2):
        for C in posets_upto(3):
            ok, w = scone_universal_check(CL, A, C)
            assert ok, w
            ok, w = joint_epi_check(CL, A, C)
            assert ok, w
            ok, w = lax_epi_check(CL, A, C)
            assert ok, w


def test_scone_negative_control():
    # coproduct with a point is NOT the Sierpinski cone: uniqueness fails
    A = FinPoset.chain(2)
    cd = CL.coproduct(CL.terminal(), A)
    fake = cd.obj

    class FakeBackend(ClassicalBackend):
        def lift(self, X):
            ld = ClassicalBackend.lift(self, X)
            if X == A:
                from liftdom.backend import LiftData

                unit = MonotoneMap.make(A, fake, lambda a: ("in", 1, a))
                bottom = MonotoneMap.make(
                    self.terminal(), fake, lambda _: ("in", 0, "*")
                )
                return LiftData(
                    fake,
                    unit,
                    bottom,
                    lambda st, u: () if u == ("in", 0, "*") else ((st, u),),
                    lambda st, items: items[0][1] if items else ("in", 0, "*"),
                )
            return ld

    ok, w = scone_universal_check(FakeBackend(), A, FinPoset.chain(2))
    assert not ok and w is not None


def test_paths_phoa_opfibration():
    for A in posets_upto(2):
        for B in posets_upto(3):
            ok, w = paths_check(CL, A, B)
            assert ok, w
    for Y in posets_upto(3):
        assert phoa_check(CL, Y)
    assert top_opfibration_check(CL)
    assert top_opfibration_check(PS)


def test_a_point_is_what_is_isomorphic_to_1():
    # top_opfibration_check counts elements per stage instead of searching
    # for an iso with 1; both answers agree on every small object
    cases = [(CL, X) for X in posets_upto(3)]
    for _, base in _small_bases(OQ1Bounds(2, 2, 2)):
        bk = PresheafBackend(base)
        cases += [(bk, X) for X in internal_posets(base, OQ1Bounds(2, 2, 2))]
    assert sum(_is_point(bk, X) for bk, X in cases) > 1
    for bk, X in cases:
        assert _is_point(bk, X) == (bk.iso(X, bk.terminal()) is not None)


def test_partial_maps_count_and_bijection():
    A = FinPoset.chain(2)
    pms = enumerate_partial_maps(CL, A, A)
    assert len(pms) == 6
    ok, w = partial_product_check(CL, A, A)
    assert ok, w
    for X in posets_upto(2):
        for Y in posets_upto(2):
            ok, w = partial_product_check(CL, X, Y)
            assert ok, w


def test_partial_product_presheaf_terminal():
    one = PS.terminal()
    ok, w = partial_product_check(PS, one, one)
    assert ok, w


def _positive_elements_by_scan(X):
    # the definition: x is positive when every semidirected subset whose
    # supremum lies above x is inhabited, over all 2^n subsets
    out = set()
    for x in X.elements:
        if all(
            S.members
            for S in subsets(X)
            if is_semidirected(X, S) and lub(X, S) is not None and X.leq(x, lub(X, S))
        ):
            out.add(x)
    return frozenset(out)


def test_positive_elements_classical():
    X = FinPoset.chain(3)
    assert positive_elements(CL, X)[None] == frozenset({"c1", "c2"})
    # the backend's closed form against the scan, pointed or not
    for X in posets_upto(5):
        assert CL.positive_elements(X)[None] == _positive_elements_by_scan(X), X


def test_free_on_positives_classical():
    for X in posets_upto(4, pointed=True):
        ok, h = free_on_positives_check(CL, X)
        assert ok


def test_free_on_positives_omega():
    O = omega(PS.base)
    ok, h = free_on_positives_check(PS, O)
    assert ok  # the classifier is free on its positive part (a single point)


def test_nonbottom_part_is_not_free_generator():
    # removing only the forced-bottom sieves leaves too many sections: the
    # induced comparison onto L1 is not injective upstairs
    O = omega(PS.base)
    members = {
        p: frozenset(s for s in O.at(p) if s.members) for p in PS.base.stages
    }
    P, incl = PS.subobject(O, members)
    ok, _ = PS.is_dcpo(P)
    assert ok
    ld = PS.lift(P)
    bang = PS.bang(P)
    lbang = PS.lift_map(bang)
    lone = PS.lift(PS.terminal())
    assert len(ld.obj.at("s1")) == 4 and len(lone.obj.at("s1")) == 3
    assert not PS.is_iso(lbang)
    assert PS.iso(ld.obj, lone.obj) is None


def test_conservativity():
    for A in posets_upto(3):
        for B in posets_upto(3):
            for f in CL.hom(A, B):
                ok, w = conservativity_check(CL, f)
                assert ok, w


def test_strict_hom_set():
    S = FinPoset.chain(2)
    fs = strict_hom_set(CL, S, S)
    assert len(fs) == 2


def test_open_classifier_check_needs_every_open_once():
    # a list of opens that misses one, or repeats one, fails on the count
    for bk, A in ((CL, FinPoset.chain(2)), (PS, omega(PS.base))):
        opens = bk.scott_open_subobjects(A)
        n = len(opens)
        assert open_classifier_check(bk, A) == (True, None)
        assert open_classifier_check(bk, A, opens=opens[1:]) == (
            False,
            f"{n - 1} characteristic maps vs {n} maps into sigma",
        )
        assert open_classifier_check(bk, A, opens=opens + opens[:1]) == (
            False,
            f"{n} characteristic maps vs {n} maps into sigma",
        )


def test_classifier_map():
    for bk, A in ((CL, FinPoset.chain(2)), (PS, PS.terminal())):
        ld = bk.lift(A)
        sg = bk.lift(bk.terminal())
        pi = classifier(bk, A)
        for p in bk.stages(A):
            top = bk.app(sg.unit, p, "*")
            for u in bk.at(ld.obj, p):
                # the preimage of the top truth value is exactly the unit image
                assert (bk.app(pi, p, u) == top) == (ld.as_eta(p, u) is not None)
