"""The value-table fast paths, and the bottom-pinned strict homs, against
the composing references they replace.

``enumerate_cocones`` tests each edge of a candidate cocone by comparing
value tables and lists each cocone by its legs' tables, ``strict_hom_set``
runs the hom search with the bottom pinned, and ``restriction_groups``
keys its groups on value tables.  The references are the versions that
built a composite map for every test: the backtracking search that
composed each leg with each edge, the filter of the hom-set by
``is_strict`` (which composes with the bottom point; in ``support.py``),
and the grouping keyed on the composite maps.  Fast and reference must
give equal lists in equal order, on both backends; the cocones are
compared by their legs' tables, which are equal exactly when the legs
are.
"""
import itertools

import pytest

from liftdom import laws
from liftdom.backend import ClassicalBackend, PresheafBackend, sierpinski_base
from liftdom.colimits import Diagram, enumerate_cocones
from liftdom.lifting import restriction_groups, strict_hom_set, value_tables
from liftdom.order import FinPoset, StructureError, posets_upto
from liftdom.presheaf import BasePoset, InternalPoset, omega

from support import antichain, reference_strict_hom_set

CL = ClassicalBackend()
PS = PresheafBackend(sierpinski_base())


# ---------------------------------------------------------------------------
# The references.

def reference_enumerate_cocones(bk, d, P, leg_pool):
    pools = {n: list(leg_pool(d.objects[n], P)) for n in d.nodes}
    out = []
    legs = {}

    def rec(i):
        if i == len(d.nodes):
            out.append(dict(legs))
            return
        n = d.nodes[i]
        for cand in pools[n]:
            legs[n] = cand
            ok = True
            for name, s, t in d.edges:
                if s in legs and t in legs:
                    if bk.compose(legs[t], d.arrows[name]) != legs[s]:
                        ok = False
                        break
            if ok:
                rec(i + 1)
        legs.pop(n, None)

    rec(0)
    return out


def reference_cocone_tables(bk, d, P, leg_pool):
    return [tuple(value_tables(bk, [legs[n]])[0] for n in d.nodes)
            for legs in reference_enumerate_cocones(bk, d, P, leg_pool)]


def reference_restriction_groups(bk, homs, legs):
    groups = {}
    for h in homs:
        groups.setdefault(tuple(bk.compose(h, leg) for leg in legs), []).append(h)
    return groups


def strict_or_error(strict, bk, A, B):
    try:
        return strict(bk, A, B)
    except StructureError as e:
        return ("error", str(e))


def assert_cocones_match(bk, d, apexes):
    for P in apexes:
        assert enumerate_cocones(bk, d, P, bk.hom) == reference_cocone_tables(bk, d, P, bk.hom)
        if bk.is_pointed(P):
            def pool(X, C):
                return strict_hom_set(bk, X, C)

            assert enumerate_cocones(bk, d, P, pool) == reference_cocone_tables(bk, d, P, pool)


# ---------------------------------------------------------------------------
# The classical backend.

def test_cocones_match_reference_on_generated_diagrams():
    apexes = posets_upto(4)
    for d in laws._generated_diagrams(CL, 3):
        assert_cocones_match(CL, d, apexes)


def test_cocones_match_reference_with_loops_and_empty_pools():
    # an endo-edge tests a node against itself; the empty apex of
    # posets_upto(3) leaves every pool empty; the empty diagram has one cocone
    S, C3 = FinPoset.chain(2), FinPoset.chain(3)
    endo = [f for f in CL.hom(C3, C3) if f.values != C3.elements][0]
    loop = Diagram(("a", "b"), (("e", "a", "a"), ("f", "a", "b")), {"a": C3, "b": S},
                   {"e": endo, "f": strict_hom_set(CL, C3, S)[-1]})
    assert_cocones_match(CL, loop, posets_upto(3))
    assert enumerate_cocones(CL, Diagram((), (), {}, {}), S, CL.hom) == [()]


# The join: each edge between a node and an earlier one narrows the node's
# candidates to those whose table the edge admits.  The diagrams below give
# a node two such edges, edges that point back to an earlier node, and
# nodes without candidates.

def test_join_where_two_earlier_nodes_fix_a_node():
    S, C3 = FinPoset.chain(2), FinPoset.chain(3)
    vee = CL.lift(antichain(2)).obj
    f, g = strict_hom_set(CL, S, C3)[1], strict_hom_set(CL, vee, C3)[2]
    cospan = Diagram(("a", "b", "c"), (("f", "a", "c"), ("g", "b", "c")),
                     {"a": S, "b": vee, "c": C3}, {"f": f, "g": g})
    # the same node fixed twice by one earlier node, along parallel edges
    h = strict_hom_set(CL, S, C3)[-1]
    parallel = Diagram(("a", "c"), (("f", "a", "c"), ("h", "a", "c")), {"a": S, "c": C3}, {"f": f, "h": h})
    for d in (cospan, parallel):
        assert any(enumerate_cocones(CL, d, P, CL.hom) for P in posets_upto(3))
        assert_cocones_match(CL, d, posets_upto(4))


def test_join_along_edges_into_earlier_nodes():
    S, C3 = FinPoset.chain(2), FinPoset.chain(3)
    f, g = strict_hom_set(CL, S, C3)[1], strict_hom_set(CL, C3, S)[-1]
    back = Diagram(("c", "a"), (("f", "a", "c"),), {"a": S, "c": C3}, {"f": f})
    # a later node with one edge back into an earlier node and one from it
    mixed = Diagram(("a", "c", "b"), (("f", "a", "c"), ("g", "c", "b"), ("e", "b", "a")),
                    {"a": S, "c": C3, "b": S}, {"f": f, "g": g, "e": CL.identity(S)})
    for d in (back, mixed):
        assert_cocones_match(CL, d, posets_upto(4))
    assert any(enumerate_cocones(CL, mixed, P, CL.hom) for P in posets_upto(3))


def test_join_with_empty_pools():
    S, C3 = FinPoset.chain(2), FinPoset.chain(3)
    f, g = strict_hom_set(CL, S, C3)[1], strict_hom_set(CL, C3, S)[-1]
    d = Diagram(("a", "c", "b"), (("f", "a", "c"), ("g", "c", "b")),
                {"a": S, "c": C3, "b": S}, {"f": f, "g": g})

    def no_legs_from(X):
        return lambda Y, P: [] if Y == X else CL.hom(Y, P)

    for pool in (no_legs_from(C3), no_legs_from(S)):
        for P in posets_upto(3):
            assert enumerate_cocones(CL, d, P, pool) == reference_cocone_tables(CL, d, P, pool) == []


def test_strict_hom_set_matches_reference_on_pointed_posets():
    pointed = posets_upto(4, pointed=True)
    for A, B in itertools.product(pointed, repeat=2):
        assert strict_hom_set(CL, A, B) == reference_strict_hom_set(CL, A, B)


def test_strict_hom_set_raises_where_the_reference_raises():
    # unpointed ends raise, unless the hom-set is empty (a nonempty poset
    # into the empty one), where both return no maps
    for A, B in itertools.product(posets_upto(3), repeat=2):
        fast = strict_or_error(strict_hom_set, CL, A, B)
        assert fast == strict_or_error(reference_strict_hom_set, CL, A, B)
        if fast and fast[0] == "error":
            assert fast[1].startswith("pointedness:")


def test_strict_homs_are_pinned_memoised_and_scoped():
    bk, S, C3 = ClassicalBackend(), FinPoset.chain(2), FinPoset.chain(3)
    with bk.scope():
        strict = strict_hom_set(bk, C3, S)
        assert strict_hom_set(bk, C3, S) is strict
        # the pinned search enumerates no other map, and no full hom-set
        assert list(bk._hom_cache) == [(C3, S, ((None, "c0", "c0"),))]
    assert not bk._hom_cache


def test_dropped_last_map_reaches_the_pinned_search():
    # the fault of partial-product, pointed-iff-algebra and monadicity-triple
    # corrupts _hom, which the strict homs read too
    faulty = laws._DropLastMap()
    for A, B in itertools.product(posets_upto(3, pointed=True), repeat=2):
        assert strict_hom_set(faulty, A, B) == strict_hom_set(CL, A, B)[:-1]


def test_restriction_groups_match_reference():
    S, C3 = FinPoset.chain(2), FinPoset.chain(3)
    for X, Y in [(S, C3), (C3, C3), (antichain(2), C3)]:
        for legs in itertools.combinations(CL.hom(X, Y), 2):
            for P in posets_upto(3):
                homs = CL.hom(Y, P)
                fast = restriction_groups(CL, homs, legs)
                slow = reference_restriction_groups(CL, homs, legs)
                assert list(fast.values()) == list(slow.values())
                # each key is the tuple of the value tables of the composites
                assert list(fast) == [tuple(value_tables(CL, [m])[0] for m in key) for key in slow]


# ---------------------------------------------------------------------------
# The presheaf backend over the Sierpinski base.

def collapsing_chain():
    """A 2-chain at the top stage whose top restricts to the bottom, the one
    point below: a map into it can be strict at one stage and not the other."""
    (s0, s1), below = PS.base.stages, {("b", "b"), ("a", "a"), ("b", "a")}
    return InternalPoset.make(PS.base, {s0: ("b",), s1: ("b", "a")},
                              {(s1, s0): {"b": "b", "a": "b"}}, {s0: {("b", "b")}, s1: below})


def presheaf_catalog():
    one = PS.terminal()
    sigma = PS.lift(one).obj
    const = [InternalPoset.constant(PS.base, FinPoset.chain(n)) for n in (2, 3)]
    anti = InternalPoset.constant(PS.base, antichain(2))
    return [one, sigma, *const, PS.lift(anti).obj, collapsing_chain(), anti]


CATALOG = presheaf_catalog()
POINTED = [X for X in CATALOG if PS.is_pointed(X)]


def test_presheaf_catalog_has_unpointed_ends_and_one_stage_strictness():
    assert 0 < len(POINTED) < len(CATALOG)
    # the maps C2 -> collapsing chain include one that is strict at the lower
    # stage only, so a strictness test that reads one stage would pass it
    c2, chain = CATALOG[2], CATALOG[5]
    assert len(strict_hom_set(PS, c2, chain)) < len([
        f for f in PS.hom(c2, chain) if PS.app(f, PS.base.stages[0], "c0") == "b"
    ])


@pytest.mark.parametrize("A", CATALOG, ids=lambda X: f"A{CATALOG.index(X)}")
def test_presheaf_strict_hom_set_matches_reference(A):
    for B in CATALOG:
        assert strict_or_error(strict_hom_set, PS, A, B) == strict_or_error(reference_strict_hom_set, PS, A, B)


# every base of at most two stages, in the order of posets_upto(2)
SMALL_BASES = dict(zip(("empty", "point", "antichain2", "chain2"), posets_upto(2)))


@pytest.mark.parametrize("name", SMALL_BASES)
def test_pinned_strict_homs_match_reference_over_small_bases(name):
    # pointed and unpointed ends, in both orders
    bk = PresheafBackend(BasePoset(SMALL_BASES[name]))
    one = bk.terminal()
    const = [InternalPoset.constant(bk.base, P) for P in (FinPoset.chain(2), FinPoset.chain(3), antichain(2))]
    catalog = [one, omega(bk.base), bk.lift(one).obj, bk.initial(), *const, bk.lift(const[-1]).obj]
    for A, B in itertools.product(catalog, repeat=2):
        assert strict_or_error(strict_hom_set, bk, A, B) == strict_or_error(reference_strict_hom_set, bk, A, B)


def presheaf_diagrams():
    sigma, c2, c3 = POINTED[1], POINTED[2], POINTED[3]
    out = [Diagram(("a",), (), {"a": sigma}, {})]
    for X, Y in [(sigma, c2), (c2, c3), (c3, sigma)]:
        strict = strict_hom_set(PS, X, Y)
        out.append(Diagram(("a", "b"), (("e0", "a", "b"),), {"a": X, "b": Y}, {"e0": strict[-1]}))
        out.append(Diagram(("a", "b"), (("e0", "a", "b"), ("e1", "a", "b")), {"a": X, "b": Y},
                           {"e0": strict[0], "e1": strict[-1]}))
    f, g = strict_hom_set(PS, c2, sigma)[-1], strict_hom_set(PS, sigma, c3)[-1]
    out.append(Diagram(("a", "b", "c"), (("e0", "a", "b"), ("e1", "b", "c")),
                       {"a": c2, "b": sigma, "c": c3}, {"e0": f, "e1": g}))
    return out


def test_presheaf_cocones_match_reference():
    apexes = [X for X in CATALOG if X.size() <= 6]
    for d in presheaf_diagrams():
        assert_cocones_match(PS, d, apexes)


def test_presheaf_restriction_groups_match_reference():
    sigma, c2 = POINTED[1], POINTED[2]
    for P in POINTED:
        homs = PS.hom(sigma, P)
        for legs in itertools.combinations(PS.hom(c2, sigma), 2):
            assert list(restriction_groups(PS, homs, legs).values()) == list(
                reference_restriction_groups(PS, homs, legs).values()
            )
