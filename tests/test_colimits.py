import pytest

from liftdom.backend import ClassicalBackend, PresheafBackend, sierpinski_base
from liftdom.colimits import (
    Diagram,
    colimit,
    colimit_universal_check,
    colimits_enriched_check,
    coproduct_algebras,
    coproduct_algebras_universal_check,
    creation_check,
    lift_algebra_to_colimit,
)
from liftdom.order import (
    FinPoset,
    MonotoneMap,
    StructureError,
    enumerate_monotone_maps,
    poset_iso,
    posets_upto,
)
from liftdom.presheaf import InternalPoset

from support import antichain

CL = ClassicalBackend()
PS = PresheafBackend(sierpinski_base())
POINT = FinPoset(("*",), frozenset([("*", "*")]))
APEXES4 = posets_upto(4)


def leg_map(src, tgt, assignment):
    return MonotoneMap.make(src, tgt, assignment)


def test_coequalizer_identity():
    B = FinPoset.chain(3)
    f = MonotoneMap.identity(B)
    coeq = CL.coequalizer(f, f)
    assert poset_iso(coeq.obj, B) is not None


def test_coequalizer_merges_antichain():
    B = antichain(2)
    f = leg_map(POINT, B, {"*": "a0"})
    g = leg_map(POINT, B, {"*": "a1"})
    coeq = CL.coequalizer(f, g)
    assert coeq.obj.n == 1


def test_coequalizer_collapses_chain():
    # identifying the two ends of a 2-chain collapses it to a point: the
    # generated congruence relates the classes both ways
    B = FinPoset.chain(2)
    f = leg_map(POINT, B, {"*": "c0"})
    g = leg_map(POINT, B, {"*": "c1"})
    coeq = CL.coequalizer(f, g)
    assert coeq.obj.n == 1


def test_coequalizer_universal_by_exhaustion():
    B = FinPoset.chain(3)
    A = antichain(2)
    f = leg_map(A, B, {"a0": "c0", "a1": "c1"})
    g = leg_map(A, B, {"a0": "c1", "a1": "c1"})
    coeq = CL.coequalizer(f, g)
    q = coeq.proj
    assert set(q.values) == set(q.cod.elements)  # onto
    for P in APEXES4:
        for u in enumerate_monotone_maps(B, P):
            if MonotoneMap.make(A, P, lambda x: u(f(x))) != MonotoneMap.make(
                A, P, lambda x: u(g(x))
            ):
                continue
            matching = [
                h for h in enumerate_monotone_maps(coeq.obj, P)
                if all(h(q(b)) == u(b) for b in B.elements)
            ]
            assert len(matching) == 1


def single_node_diagram(X):
    return Diagram(("n",), (), {"n": X}, {})


def test_colimit_single_node():
    X = FinPoset.chain(2)
    res = colimit(CL, single_node_diagram(X))
    assert poset_iso(res.apex, X) is not None
    ok, w = colimit_universal_check(CL, single_node_diagram(X), res, posets_upto(3))
    assert ok, w


def test_colimit_discrete_two_nodes_is_coproduct():
    d = Diagram(("a", "b"), (), {"a": FinPoset.chain(2), "b": POINT}, {})
    res = colimit(CL, d)
    assert res.apex.n == 3
    ok, w = colimit_universal_check(CL, d, res, posets_upto(3))
    assert ok, w


def test_pushout_glues_point_onto_bottom():
    C2 = FinPoset.chain(2)
    d = Diagram(
        ("m", "l", "r"),
        (("e1", "m", "l"), ("e2", "m", "r")),
        {"m": POINT, "l": POINT, "r": C2},
        {
            "e1": MonotoneMap.identity(POINT),
            "e2": leg_map(POINT, C2, {"*": "c0"}),
        },
    )
    res = colimit(CL, d)
    assert poset_iso(res.apex, C2) is not None
    ok, w = colimit_universal_check(CL, d, res, posets_upto(4))
    assert ok, w


def test_colimits_enriched():
    C2 = FinPoset.chain(2)
    d = Diagram(("a", "b"), (("e", "a", "b"),), {"a": POINT, "b": C2}, {"e": leg_map(POINT, C2, {"*": "c0"})})
    res = colimit(CL, d)
    ok, w = colimits_enriched_check(CL, d, res, posets_upto(3))
    assert ok, w


def test_lift_algebra_to_colimit_single_node():
    X = FinPoset.chain(2)
    d = single_node_diagram(X)
    res, beta, comparison = lift_algebra_to_colimit(CL, d)
    alpha = CL.algebra_structure(res.apex)
    assert beta == alpha


def test_lift_algebra_to_colimit_coequalizer_of_strict_maps():
    X = FinPoset.chain(3)
    idm = MonotoneMap.identity(X)
    drop = leg_map(X, X, {"c0": "c0", "c1": "c0", "c2": "c2"})
    d = Diagram(("a", "b"), (("e1", "a", "b"), ("e2", "a", "b")), {"a": X, "b": X}, {"e1": idm, "e2": drop})
    res, beta, _ = lift_algebra_to_colimit(CL, d)
    assert res.apex.is_pointed()
    ok, w = creation_check(CL, d, posets_upto(4))
    assert ok, w


def test_creation_check_rejects_disconnected():
    d = Diagram(("a", "b"), (), {"a": POINT, "b": POINT}, {})
    ok, why = creation_check(CL, d, posets_upto(3))
    assert not ok and "connected" in why


def test_coproduct_of_sierpinski_algebras_is_vee():
    S = FinPoset.chain(2)
    Q, beta, ix, iy = coproduct_algebras(CL, S, S)
    assert Q.n == 3
    V = FinPoset.from_generators(("b", "l", "r"), [("b", "l"), ("b", "r")])
    assert poset_iso(Q, V) is not None
    ok, w = coproduct_algebras_universal_check(CL, S, S, posets_upto(4))
    assert ok, w


def test_coproduct_with_initial_algebra():
    # the one-point algebra is initial: X + I is X again
    S = FinPoset.chain(2)
    Q, _, ix, _ = coproduct_algebras(CL, S, POINT)
    assert poset_iso(Q, S) is not None
    ok, w = coproduct_algebras_universal_check(CL, S, POINT, posets_upto(4))
    assert ok, w


def test_coproduct_two_chains_universal():
    C2 = FinPoset.chain(2)
    ok, w = coproduct_algebras_universal_check(CL, C2, C2, posets_upto(5))
    assert ok, w
    Q = w[0]
    assert Q.n == 3


def test_presheaf_coequalizer_stagewise():
    A = InternalPoset.constant(PS.base, antichain(2))
    one = PS.terminal()
    f = PS.mor_from_fn(one, A, lambda p, _: "a0")
    g = PS.mor_from_fn(one, A, lambda p, _: "a1")
    coeq = PS.coequalizer(f, g)
    assert all(len(coeq.obj.at(p)) == 1 for p in PS.base.stages)


def test_colimit_without_edges_is_the_coproduct():
    # without edges the coequaliser of the two maps out of the initial
    # object identifies nothing: the apex and legs are the coproduct's, and
    # the mediator of a cocone is its cotuple
    A, C = FinPoset.chain(2), FinPoset.chain(3)
    d = Diagram(("a", "b"), (), {"a": A, "b": POINT}, {})
    res = colimit(CL, d)
    cd = CL.coproduct(A, POINT)
    assert res.apex == cd.obj
    assert res.legs == {"a": cd.inl, "b": cd.inr}
    f = leg_map(A, C, {"c0": "c0", "c1": "c2"})
    g = leg_map(POINT, C, {"*": "c1"})
    assert res.factor({"a": f, "b": g}) == CL.cotuple(cd, f, g)


@pytest.mark.parametrize("bk", [CL, PS], ids=["classical", "2-chain-base"])
def test_descend_refuses_a_map_that_does_not_coequalise(bk):
    # collapse the 2-chain to a point: the map to the terminal object
    # descends, the identity does not
    B = FinPoset.chain(2) if bk is CL else InternalPoset.constant(PS.base, FinPoset.chain(2))
    one = bk.terminal()
    bottom = bk.mor_from_fn(one, B, lambda p, _: "c0")
    top = bk.mor_from_fn(one, B, lambda p, _: "c1")
    q = bk.coequalizer(bottom, top).proj
    assert bk.compose(bk.descend(q, bk.bang(B)), q) == bk.bang(B)
    with pytest.raises(StructureError) as e:
        bk.descend(q, bk.identity(B))
    assert e.value.law == "factorisation"
