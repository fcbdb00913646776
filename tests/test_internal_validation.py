"""The validation of internal posets and natural transformations against the
element-level loops it replaced.

An internal poset used to sit on a separate carrier of stage sets and
restrictions, and the carrier, the internal poset and each natural
transformation checked totality, membership and monotonicity with loops of
their own.  The references below keep those loops.  The constructors now run
``order._check_map`` on each restriction and component, and must accept and
reject the same inputs, naming the same law.
"""
from itertools import product as iproduct

import pytest

from liftdom.oq1 import OQ1Bounds, _labeled_posets_named, _small_bases, internal_posets
from liftdom.order import FinPoset, StructureError
from liftdom.presheaf import BasePoset, InternalPoset, NatTrans, restrict_to

SIERP = BasePoset(FinPoset.from_generators(("s0", "s1"), [("s0", "s1")]))
CHAIN3 = BasePoset(FinPoset.chain(3, prefix="s"))


def _law(build, *args):
    try:
        build(*args)
    except StructureError as e:
        return e.law
    return None


def reference_internal_poset(base, stage_sets, restrictions, orders):
    """The former validation: the carrier's checks, the stage orders, then
    the pairwise monotonicity of every restriction.  ``stage_sets`` and
    ``orders`` are keyed by stage, ``restrictions`` by strict pair, as value
    tuples aligned with the upper stage's elements."""
    at = {p: tuple(stage_sets[p]) for p in base.stages}
    for s in at.values():
        if len(set(s)) != len(s):
            raise StructureError("distinctness", "duplicate identifiers at a stage")
    for pair in base.strict_pairs():
        if pair not in restrictions:
            raise StructureError("totality", f"restriction {pair[0]!r}->{pair[1]!r} missing")
    for p, q in base.strict_pairs():
        values = restrictions[p, q]
        if len(values) != len(at[p]):
            raise StructureError("totality", f"restriction {p!r}->{q!r} must be total")
        for v in values:
            if v not in set(at[q]):
                raise StructureError("membership", f"{v!r} not at stage {q!r}")

    def res_el(p, q, x):
        return x if p == q else restrictions[p, q][at[p].index(x)]

    for p in base.stages:
        for q in base.down_list(p):
            for r in base.down_list(q):
                if p == q or q == r:
                    continue
                for x in at[p]:
                    if res_el(q, r, res_el(p, q, x)) != res_el(p, r, x):
                        raise StructureError("functoriality", f"{p!r}->{q!r}->{r!r} at {x!r}")
    posets = {p: FinPoset(at[p], orders[p]) for p in base.stages}
    for p, q in base.strict_pairs():
        P, Q = posets[p], posets[q]
        for x in P.elements:
            for y in P.elements:
                if P.leq(x, y) and not Q.leq(res_el(p, q, x), res_el(p, q, y)):
                    raise StructureError("monotonicity", f"{p!r}->{q!r} on {x!r} <= {y!r}")


def build_internal_poset(base, stage_sets, restrictions, orders):
    posets = tuple(FinPoset(stage_sets[p], orders[p]) for p in base.stages)
    return InternalPoset(base, posets, tuple(restrictions[pair] for pair in base.strict_pairs()))


def reference_nat_trans(dom, cod, components):
    """The former validation of a natural transformation, stage by stage and
    pair by pair; ``components`` is aligned with the base's stages."""
    base = dom.base
    if cod.base != base:
        raise StructureError("composability", "domain and codomain bases differ")
    if len(components) != len(base.stages):
        raise StructureError("totality", "one component per stage is required")
    comp = dict(zip(base.stages, components))

    def apply(p, x):
        return comp[p][dom.at(p).index(x)]

    for p in base.stages:
        src = dom.at(p)
        if len(comp[p]) != len(src):
            raise StructureError("totality", f"component at {p!r} must be total")
        for v in comp[p]:
            if v not in set(cod.at(p)):
                raise StructureError("membership", f"{v!r} not at stage {p!r}")
        for x in src:
            for y in src:
                if dom.leq_at(p, x, y) and not cod.leq_at(p, apply(p, x), apply(p, y)):
                    raise StructureError("monotonicity", f"component at {p!r} breaks {x!r} <= {y!r}")
    for p, q in base.strict_pairs():
        for x in dom.at(p):
            if cod.res_el(p, q, apply(p, x)) != apply(q, dom.res_el(p, q, x)):
                raise StructureError("naturality", f"square at {x!r} for {p!r}->{q!r}")


def _discrete(stage_sets):
    return {p: {(x, x) for x in els} for p, els in stage_sets.items()}


def _chains(stage_sets):
    # each stage a chain in the listed order
    return {p: {(x, y) for i, x in enumerate(els) for y in els[i:]} for p, els in stage_sets.items()}


SIERP_SETS = {"s1": ("a", "b"), "s0": ("u", "v")}
CHAIN3_SETS = {"s0": ("a", "b"), "s1": ("a", "b"), "s2": ("a", "b")}
INVALID_INTERNAL_POSETS = [
    # (case, base, stage sets, restrictions, orders, law)
    ("wrong-length restriction", SIERP, SIERP_SETS, {("s1", "s0"): ("u",)}, _discrete(SIERP_SETS), "totality"),
    ("value outside the lower stage", SIERP, SIERP_SETS, {("s1", "s0"): ("u", "w")},
     _discrete(SIERP_SETS), "membership"),
    ("non-monotone restriction", SIERP, SIERP_SETS, {("s1", "s0"): ("v", "u")}, _chains(SIERP_SETS),
     "monotonicity"),
    ("non-functorial triple", CHAIN3, CHAIN3_SETS,
     {("s1", "s0"): ("a", "b"), ("s2", "s0"): ("b", "a"), ("s2", "s1"): ("a", "b")},
     _discrete(CHAIN3_SETS), "functoriality"),
    ("duplicate stage elements", SIERP, {"s1": ("a",), "s0": ("u", "u")}, {("s1", "s0"): ("u",)},
     {"s1": {("a", "a")}, "s0": {("u", "u")}}, "distinctness"),
]


@pytest.mark.parametrize(
    "case, base, sets, res, orders, law", INVALID_INTERNAL_POSETS, ids=[c[0] for c in INVALID_INTERNAL_POSETS]
)
def test_invalid_internal_posets_name_the_reference_law(case, base, sets, res, orders, law):
    assert _law(reference_internal_poset, base, sets, res, orders) == law
    assert _law(build_internal_poset, base, sets, res, orders) == law


def test_internal_poset_validation_matches_reference_exhaustively():
    # every labelled stage poset and every restriction function, monotone or
    # not, over every base with at most 3 stages, at most 3 elements per
    # stage and 5 in all.  The one difference: the reference checked
    # functoriality before monotonicity, the kernel checks each restriction
    # whole first, so an input with both faults names the other one.
    bounds = OQ1Bounds(3, 3, 5)
    cases = rejected = both = 0
    for _, base in _small_bases(bounds):
        stages, pairs = base.stages, base.strict_pairs()
        for sizes in iproduct(*[range(1, bounds.max_stage + 1) for _ in stages]):
            if sum(sizes) > bounds.max_carrier:
                continue
            per_stage = [_labeled_posets_named(k, prefix=f"{p}_") for k, p in zip(sizes, stages)]
            for stage_posets in iproduct(*per_stage):
                sets = {p: P.elements for p, P in zip(stages, stage_posets)}
                orders = {p: P.pairs for p, P in zip(stages, stage_posets)}
                for combo in iproduct(*[iproduct(sets[q], repeat=len(sets[p])) for p, q in pairs]):
                    res = dict(zip(pairs, combo))
                    law = _law(reference_internal_poset, base, sets, res, orders)
                    got = _law(build_internal_poset, base, sets, res, orders)
                    if got != law:
                        assert (law, got) == ("functoriality", "monotonicity")
                        both += 1
                    cases += 1
                    rejected += law is not None
    assert cases > rejected > both > 0


def test_oq1_objects_pass_validation_and_equal_their_trusted_twins():
    # the trusted producers: the OQ1 generator and the truncations of
    # restrict_to pass the validating constructor unchanged
    bounds = OQ1Bounds(3, 3, 5)
    checked = 0
    for _, base in _small_bases(bounds):
        for A in internal_posets(base, bounds):
            B = InternalPoset(base, A.stage_posets, A.restrictions)
            assert A == B and hash(A) == hash(B)
            for p in base.stages:
                sub_base, Ap = restrict_to(A, p)
                assert Ap == InternalPoset(sub_base, Ap.stage_posets, Ap.restrictions)
                assert Ap.restrictions == tuple(
                    tuple(A.res_el(q, r, x) for x in A.at(q)) for q, r in sub_base.strict_pairs()
                )
            sets = {p: A.at(p) for p in base.stages}
            orders = {p: A.stage_poset(p).pairs for p in base.stages}
            assert _law(reference_internal_poset, base, sets, dict(zip(base.strict_pairs(), A.restrictions)), orders) is None
            checked += 1
    assert checked == 2012


def _chain_over_sierp():
    sets = {"s1": ("a", "b"), "s0": ("a", "b")}
    return InternalPoset.make(SIERP, sets, {("s1", "s0"): {"a": "a", "b": "b"}}, _chains(sets))


def _antichain_over_sierp():
    sets = {"s1": ("a", "b"), "s0": ("a", "b")}
    return InternalPoset.make(SIERP, sets, {("s1", "s0"): {"a": "a", "b": "b"}}, _discrete(sets))


INVALID_NAT_TRANS = [
    # (case, dom, cod, components aligned with ("s0", "s1"), law)
    ("non-monotone component", _chain_over_sierp(), _chain_over_sierp(), (("b", "a"), ("b", "a")), "monotonicity"),
    ("non-natural component", _antichain_over_sierp(), _antichain_over_sierp(), (("b", "a"), ("a", "b")),
     "naturality"),
    ("wrong-length component", _chain_over_sierp(), _chain_over_sierp(), (("a",), ("a", "b")), "totality"),
    ("value outside the stage", _chain_over_sierp(), _chain_over_sierp(), (("a", "c"), ("a", "b")), "membership"),
]


@pytest.mark.parametrize("case, dom, cod, comps, law", INVALID_NAT_TRANS, ids=[c[0] for c in INVALID_NAT_TRANS])
def test_invalid_nat_trans_name_the_reference_law(case, dom, cod, comps, law):
    assert _law(reference_nat_trans, dom, cod, comps) == law
    assert _law(NatTrans, dom, cod, comps) == law


def test_nat_trans_validation_matches_reference_exhaustively():
    # every stagewise function between the internal posets over the 2-chain
    # with at most 2 elements per stage
    base = SIERP
    objs = list(internal_posets(base, OQ1Bounds(2, 2, 4)))
    cases = rejected = 0
    for A in objs:
        for B in objs:
            per_stage = [iproduct(B.at(p), repeat=len(A.at(p))) for p in base.stages]
            for comps in iproduct(*per_stage):
                law = _law(reference_nat_trans, A, B, comps)
                assert _law(NatTrans, A, B, comps) == law
                cases += 1
                rejected += law is not None
    assert cases > rejected > 0
