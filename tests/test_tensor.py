import pytest

from liftdom.backend import ClassicalBackend, PresheafBackend, sierpinski_base
from liftdom.lifting import strict_hom_set
from liftdom.order import FinPoset, MonotoneMap, StructureError, poset_iso, posets_upto
from liftdom.tensor import (
    bilinearity,
    bistrictness,
    braiding,
    direct_smash_classical,
    hexagon_check,
    homs_coincide_check,
    kock_criterion_check,
    monoidal_adjunction_check,
    pentagon_check,
    seal_iso_check,
    seal_represents_bilinear_check,
    seal_tensor,
    smash,
    smash_comparison,
    smash_presentations,
    strict_hom,
    tensor_hom_adjunction_check,
    tensor_hom_naturality_check,
    triangle_check,
    universal_bistrict_check,
)

from support import antichain, associator_iso_check

CL = ClassicalBackend()
PS = PresheafBackend(sierpinski_base())
SIGMA = FinPoset.chain(2)
CHAIN3 = FinPoset.chain(3)
POINTED3 = posets_upto(3, pointed=True)


def test_meet_map_is_bistrict():
    pd = CL.product(SIGMA, SIGMA)
    meet = MonotoneMap.make(
        pd.obj, SIGMA, lambda x: "c1" if x[1] == "c1" and x[2] == "c1" else "c0"
    )
    assert bistrictness(CL, SIGMA, SIGMA)(meet)
    assert bilinearity(CL, SIGMA, SIGMA)(meet)


def test_projection_is_not_bistrict():
    pd = CL.product(SIGMA, SIGMA)
    proj = MonotoneMap.make(pd.obj, SIGMA, lambda x: x[1])
    assert not bistrictness(CL, SIGMA, SIGMA)(proj)
    assert not bilinearity(CL, SIGMA, SIGMA)(proj)


def test_bistrict_iff_bilinear_exhaustive():
    for A in POINTED3:
        for B in POINTED3:
            bilinear, bistrict = bilinearity(CL, A, B), bistrictness(CL, A, B)
            for C in POINTED3:
                pd = CL.product(A, B)
                for f in CL.hom(pd.obj, C):
                    assert bistrict(f) == bilinear(f)


def reference_is_bistrict(bk, f, A, B) -> bool:
    """The per-map test that ``bistrictness`` replaced: it reads every
    bottom again for every map."""
    pd = bk.product(A, B)
    if f.dom != pd.obj:
        raise StructureError("composability", "expected a map out of the product")
    bot_c = bk.bottom_point(f.cod)
    if bot_c is None or not bk.is_pointed(A) or not bk.is_pointed(B):
        raise StructureError("pointedness", "bistrictness needs pointed objects")
    ba, bb = bk.bottom_point(A), bk.bottom_point(B)
    for p in bk.stages(A):
        bap, bbp, bcp = bk.app(ba, p, "*"), bk.app(bb, p, "*"), bk.app(bot_c, p, "*")
        if any(bk.app(f, p, pd.pack(p, a, bbp)) != bcp for a in bk.at(A, p)):
            return False
        if any(bk.app(f, p, pd.pack(p, bap, b)) != bcp for b in bk.at(B, p)):
            return False
    return True


def _verdict(test, *args):
    try:
        return test(*args)
    except StructureError as e:
        return e.law


def test_bistrictness_matches_per_map_reference():
    # one test per factor pair, run over codomains with and without a
    # bottom and over factors without one, gives the per-map verdicts and
    # errors; a map out of another product is refused
    small = [P for P in posets_upto(2) if P.n > 0]
    for A in small:
        for B in small:
            bistrict = bistrictness(CL, A, B)
            for C in posets_upto(2):
                for f in CL.hom(CL.product(A, B).obj, C):
                    assert _verdict(bistrict, f) == _verdict(reference_is_bistrict, CL, f, A, B)
    f = CL.identity(CL.product(SIGMA, SIGMA).obj)
    assert _verdict(bistrictness(CL, SIGMA, CHAIN3), f) == "composability"


def test_smash_of_sigmas_is_sigma():
    for T in smash_presentations(CL, SIGMA, SIGMA):
        assert T.obj.n == 2
        assert poset_iso(T.obj, SIGMA) is not None


def test_smash_chain3_has_five_elements():
    T = smash(CL, CHAIN3, CHAIN3)
    assert T.obj.n == 5
    oracle = direct_smash_classical(CL, CHAIN3, CHAIN3)
    assert poset_iso(T.obj, oracle) is not None


def test_direct_smash_formula():
    assert direct_smash_classical(CL, SIGMA, SIGMA).n == 2
    diamond = FinPoset.from_generators(
        "wxyz", [("w", "x"), ("w", "y"), ("x", "z"), ("y", "z")]
    )
    assert direct_smash_classical(CL, diamond, SIGMA).n == 4


def test_four_presentations_agree():
    for A in POINTED3:
        for B in POINTED3:
            tensors = smash_presentations(CL, A, B)
            for i in range(4):
                for j in range(i + 1, 4):
                    smash_comparison(CL, tensors[i], tensors[j])
            oracle = direct_smash_classical(CL, A, B)
            assert poset_iso(tensors[0].obj, oracle) is not None


def test_cardinality_law_small():
    for A in POINTED3:
        for B in POINTED3:
            T = smash(CL, A, B)
            assert T.obj.n == (A.n - 1) * (B.n - 1) + 1


def test_universal_property_bounded():
    codomains = posets_upto(3)
    for A in posets_upto(2, pointed=True) + (CHAIN3,):
        for B in posets_upto(2, pointed=True):
            T = smash(CL, A, B)
            ok, w = universal_bistrict_check(CL, T, codomains)
            assert ok, w


def test_smash_unit_law():
    I = CL.lift(CL.terminal()).obj
    for A in POINTED3:
        T = smash(CL, A, I)
        assert poset_iso(T.obj, A) is not None


def test_seal_tensor_matches_smash():
    for A in posets_upto(2, pointed=True) + (CHAIN3,):
        for B in posets_upto(2, pointed=True) + (CHAIN3,):
            ok, w = seal_iso_check(CL, A, B)
            assert ok, w


def test_seal_represents_bilinear():
    ok, w = seal_represents_bilinear_check(CL, SIGMA, SIGMA, posets_upto(3))
    assert ok, w


def test_braiding_and_unitors():
    beta = braiding(CL, SIGMA, SIGMA)
    # the smash of two copies of the two-chain is symmetric: swap is identity
    assert beta == CL.identity(smash(CL, SIGMA, SIGMA).obj)
    from liftdom.tensor import left_unitor, right_unitor

    for A in POINTED3:
        left_unitor(CL, A)
        right_unitor(CL, A)


def test_coherence_small():
    assert associator_iso_check(CL, SIGMA, SIGMA, SIGMA)
    assert triangle_check(CL, SIGMA, SIGMA)
    assert hexagon_check(CL, SIGMA, SIGMA, SIGMA)
    assert pentagon_check(CL, SIGMA, SIGMA, SIGMA, SIGMA)
    V = FinPoset.from_generators(("b", "l", "r"), [("b", "l"), ("b", "r")])
    assert associator_iso_check(CL, SIGMA, V, SIGMA)
    assert hexagon_check(CL, V, SIGMA, SIGMA)


def test_monoidal_adjunction_classical():
    for A in posets_upto(2):
        for B in posets_upto(2):
            ok, w = monoidal_adjunction_check(CL, A, B)
            assert ok, w


def test_monoidal_adjunction_presheaf_terminal_unavailable():
    # the smash of two classifiers needs a dcpo coequaliser the stagewise
    # quotient cannot deliver: its projection fails internal continuity
    # (the directed family {(bot, top)} with lower-stage tail {(top0, top0)}
    # has sup (mid, top), but the image family's sup is (mid, mid)); the
    # construction refuses rather than approximates
    from liftdom.backend import UnavailableError

    one = PS.terminal()
    with pytest.raises(UnavailableError) as e:
        monoidal_adjunction_check(PS, one, one)
    assert "continuous" in e.value.reason


def test_presheaf_smash_of_constant_chains():
    from liftdom.presheaf import InternalPoset

    S = InternalPoset.constant(PS.base, SIGMA)
    T = smash(PS, S, S)
    assert all(len(T.obj.at(p)) == 2 for p in PS.base.stages)
    assert bistrictness(PS, S, S)(T.universal)


def test_strict_hom_of_sigmas():
    H, _ = strict_hom(CL, SIGMA, SIGMA)
    assert H.n == 2
    assert poset_iso(H, SIGMA) is not None
    Hpt, _ = strict_hom(CL, CHAIN3, CL.terminal())
    assert Hpt.n == 1


def test_homs_coincide_exhaustive():
    for A in POINTED3:
        for B in POINTED3:
            assert homs_coincide_check(CL, A, B)


def test_kock_criterion():
    for A in POINTED3:
        for B in POINTED3:
            assert kock_criterion_check(CL, A, B)


def test_tensor_hom_adjunction():
    ok, counts = tensor_hom_adjunction_check(CL, SIGMA, SIGMA, SIGMA)
    assert ok, counts
    assert counts[0] == counts[1]
    for C in posets_upto(2, pointed=True):
        for A in posets_upto(2, pointed=True):
            for B in POINTED3:
                ok, w = tensor_hom_adjunction_check(CL, C, A, B)
                assert ok, w


def test_tensor_hom_unit_instance():
    # tensoring with the unit: both sides are the strict maps C -> B
    I = CL.lift(CL.terminal()).obj
    C, B = SIGMA, CHAIN3
    T = smash(CL, C, I)
    lhs = strict_hom_set(CL, T.obj, B)
    H, _ = strict_hom(CL, I, B)
    rhs = strict_hom_set(CL, C, H)
    direct = strict_hom_set(CL, C, B)
    assert len(lhs) == len(rhs) == len(direct)


def test_tensor_hom_naturality():
    ok, w = tensor_hom_naturality_check(CL, SIGMA, SIGMA, SIGMA, SIGMA)
    assert ok, w


def test_smash_needs_pointed():
    with pytest.raises(StructureError):
        smash(CL, antichain(2), SIGMA)
