import hashlib
from itertools import product as iproduct

from liftdom.backend import PresheafBackend
from liftdom.oq1 import (
    OQ1Bounds,
    _labeled_posets_named,
    _small_bases,
    candidate_algebras,
    internal_posets,
    positivity_by_forcing,
    search_open_question_1,
)
from liftdom.order import FinPoset, StructureError
from liftdom.presheaf import (
    BasePoset,
    InternalPoset,
    is_internal_dcpo,
    is_internal_pointed,
    positive_members,
)


def test_empty_bounds_trivially_clean():
    rep = search_open_question_1(OQ1Bounds(max_base=0, max_stage=0, max_carrier=0))
    assert rep.status == "pass"
    assert all(i.status == "pass" for i in rep.instances)


def test_classical_lane_clean():
    rep = search_open_question_1(OQ1Bounds(max_base=0, max_stage=2, max_carrier=4))
    assert rep.status == "pass"
    lane = [i for i in rep.instances if "classical lane" in i.objects]
    assert lane and lane[0].witness == "0 failures"


# sha256 of the default search's zero-elapsed JSON and a newline; it runs
# the presheaf lift, fold and cone-induced map over three bases.  A change
# that moves it must say what changed in the report on purpose.
DEFAULT_SEARCH_SHA256 = "6ed874f88dbf32efcea662f1ab016a4283b786378aff77ca54cbfdea5535f331"


def test_default_search_deterministic_and_reverified():
    rep1 = search_open_question_1()
    rep2 = search_open_question_1()
    assert rep1.to_json(zero_elapsed=True) == rep2.to_json(zero_elapsed=True)
    digest = hashlib.sha256((rep1.to_json(zero_elapsed=True) + "\n").encode("utf-8")).hexdigest()
    assert digest == DEFAULT_SEARCH_SHA256
    fails = [i for i in rep1.instances if i.status == "fail" and "carrier" in i.objects]
    # every reported candidate must carry the independent confirmation
    assert all("confirmed candidate" in i.witness for i in fails)
    # no candidate may be left unconfirmed (that would flag an internal bug)
    assert not any(i.status == "unavailable" for i in rep1.instances)


def test_smallest_candidate_by_hand():
    # upper stage a 2-chain, lower stage a point: pointed internal dcpo whose
    # positive part is empty, because every element restricts to the unique
    # (hence bottom) element downstairs
    base = BasePoset(FinPoset.from_generators(("lo", "hi"), [("lo", "hi")]))
    A = InternalPoset.make(
        base,
        {"hi": ("b", "t"), "lo": ("p",)},
        {("hi", "lo"): {"b": "p", "t": "p"}},
        {"hi": {("b", "b"), ("t", "t"), ("b", "t")}, "lo": {("p", "p")}},
    )
    bk = PresheafBackend(base)
    assert bk.is_pointed(A) and bk.is_dcpo(A)[0]
    pos = positive_members(A)
    assert all(not pos.at(p) for p in base.stages)
    assert positivity_by_forcing(A) == {p: frozenset() for p in base.stages}
    from liftdom.lifting import free_on_positives_check

    ok, _ = free_on_positives_check(bk, A)
    assert not ok
    # and it is not the lift of anything: no generator sizes fit
    members = {p: pos.at(p) for p in base.stages}
    P, _ = bk.subobject(A, members)
    assert bk.iso(bk.lift(P).obj, A) is None


def test_time_budget_truncates_with_marker():
    rep = search_open_question_1(OQ1Bounds(), time_budget_s=0.0)
    assert any("truncated" in i.objects for i in rep.instances)
    assert rep.status == "unavailable"


def test_candidate_enumeration_filters():
    base = BasePoset(FinPoset.from_generators(("lo", "hi"), [("lo", "hi")]))
    bounds = OQ1Bounds(max_base=2, max_stage=2, max_carrier=3)
    for A in candidate_algebras(base, bounds):
        bk = PresheafBackend(base)
        assert bk.is_pointed(A)
        ok, _ = bk.is_dcpo(A)
        assert ok


def _internal_posets_by_validation(base, bounds):
    """The reference enumeration: every combination of labelled stage posets
    and restriction functions, built and validated, failures skipped."""
    stages, pairs = base.stages, base.strict_pairs()
    for sizes in iproduct(*[range(1, bounds.max_stage + 1) for _ in stages]):
        if sum(sizes) > bounds.max_carrier:
            continue
        per_stage = [_labeled_posets_named(k, prefix=f"{p}_") for k, p in zip(sizes, stages)]
        for stage_posets in iproduct(*per_stage):
            sets = {p: P.elements for p, P in zip(stages, stage_posets)}
            orders = {p: P.pairs for p, P in zip(stages, stage_posets)}
            choices = [iproduct(sets[q], repeat=len(sets[p])) for p, q in pairs]
            for combo in iproduct(*choices):
                res = {pair: dict(zip(sets[pair[0]], values)) for pair, values in zip(pairs, combo)}
                try:
                    yield InternalPoset.make(base, sets, res, orders)
                except StructureError:
                    continue


def _hidden_state(A):
    # dataclass equality sees the restrictions and the stage posets; the
    # kernels also read the stage posets' index dicts
    return A.restrictions, [(P.elements, P._index, P._rows) for P in A.stage_posets]


def test_internal_posets_match_validating_enumeration():
    # the trusted enumeration yields the same objects in the same order, with
    # the hidden attributes that validation would have computed
    bounds = OQ1Bounds(3, 3, 5)
    objects = 0
    for _, base in _small_bases(bounds):
        got = list(internal_posets(base, bounds))
        want = list(_internal_posets_by_validation(base, bounds))
        assert got == want
        assert [_hidden_state(A) for A in got] == [_hidden_state(A) for A in want]
        objects += len(got)
    assert objects == 2012


def test_candidate_algebras_match_filtered_validating_enumeration():
    # pointed first: the stagewise bottom filter keeps exactly the
    # is_internal_pointed objects, in order
    bounds = OQ1Bounds(3, 3, 5)
    total = 0
    for _, base in _small_bases(bounds):
        got = list(candidate_algebras(base, bounds))
        want = [
            A
            for A in _internal_posets_by_validation(base, bounds)
            if is_internal_pointed(A) and is_internal_dcpo(A)[0]
        ]
        assert got == want
        assert [_hidden_state(A) for A in got] == [_hidden_state(A) for A in want]
        total += len(got)
    assert total == 255
