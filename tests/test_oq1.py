import hashlib
import time
from itertools import combinations_with_replacement, permutations
from itertools import product as iproduct

import pytest

from liftdom import oq1
from liftdom.backend import ClassicalBackend, PresheafBackend, UnavailableError
from liftdom.oq1 import (
    OQ1Bounds,
    _labeled_posets_named,
    _small_bases,
    _stage_canon,
    candidate_algebras,
    internal_posets,
    iso_key,
    positivity_by_forcing,
    search_open_question_1,
)
from liftdom.order import (
    FinPoset,
    StructureError,
    _down_rows,
    _labeled_rows,
    _rows_to_poset,
    all_posets,
    posets_upto,
)
from liftdom.report import FAIL, PASS, UNAVAILABLE, InstanceReport, fmt, make_report
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
    for _, A in candidate_algebras(base, bounds):
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
        got = [A for _, A in candidate_algebras(base, bounds)]
        want = [
            A
            for A in _internal_posets_by_validation(base, bounds)
            if is_internal_pointed(A) and is_internal_dcpo(A)[0]
        ]
        assert got == want
        assert [_hidden_state(A) for A in got] == [_hidden_state(A) for A in want]
        total += len(got)
    assert total == 255


def test_stage_canon_is_the_all_posets_labelling():
    # the canonical rows of a labelled poset are those of the all_posets
    # representative of its class, and each listed relabelling maps it there
    for n in range(5):
        reps = {P._rows for P in all_posets(n)}
        for P in all_posets(n):
            assert _stage_canon(P, {})[0] == P._rows
        for rows in _labeled_rows(n):
            P = _rows_to_poset(rows)
            least, relabellings = _stage_canon(P, {})
            assert least in reps and relabellings
            for order, label in relabellings:
                assert [label[P.elements[i]] for i in order] == list(range(n))
                assert all(
                    P.leq(P.elements[order[k]], P.elements[order[j]]) == bool(least[k] >> j & 1)
                    for k in range(n)
                    for j in range(n)
                )


def _order_key(rows: tuple) -> tuple:
    # the key of a labelling in order.py: per label k, the masks of the
    # labels j < k with j <= k and with k <= j
    down = _down_rows(rows)
    return tuple((down[k] & (1 << k) - 1, rows[k] & (1 << k) - 1) for k in range(len(rows)))


def _stage_canon_by_permutations(P: FinPoset) -> tuple:
    """The reference for ``_stage_canon``: try all n! relabellings of P and
    keep those onto the rows with the least key."""
    n, rows = P.n, P._rows
    onto: dict = {}
    for order in permutations(range(n)):
        new = tuple(sum(1 << j for j in range(n) if rows[i] >> order[j] & 1) for i in order)
        onto.setdefault(new, []).append((order, {P.elements[i]: k for k, i in enumerate(order)}))
    least = min(onto, key=_order_key)
    return least, onto[least]


def test_stage_canon_matches_the_permutation_reference():
    # the same canonical rows and the same relabellings onto them, on every
    # labelled poset with at most 4 elements
    def relabellings(pairs):
        return sorted((order, sorted(label.items())) for order, label in pairs)

    count = 0
    for n in range(5):
        for rows in _labeled_rows(n):
            P = _rows_to_poset(rows)
            least, pairs = _stage_canon(P, {})
            ref_least, ref_pairs = _stage_canon_by_permutations(P)
            assert least == ref_least
            assert relabellings(pairs) == relabellings(ref_pairs)
            count += 1
    assert count == 1 + 1 + 3 + 19 + 219  # OEIS A001035


def test_iso_key_matches_backend_iso():
    # the key against the slow reference it replaces: equal keys exactly
    # when the exhaustive natural-iso search finds an iso
    bounds = OQ1Bounds(3, 3, 5)
    objects = classes = 0
    for _, base in _small_bases(bounds):
        bk = PresheafBackend(base)
        objs = list(internal_posets(base, bounds, pointed=True))
        keys = [iso_key(A) for A in objs]
        for i, j in combinations_with_replacement(range(len(objs)), 2):
            assert (keys[i] == keys[j]) == (bk.iso(objs[i], objs[j]) is not None), (i, j)
        objects += len(objs)
        classes += len(set(keys))
    assert (objects, classes) == (478, 108)


def test_class_counts_at_deep_bounds():
    # the counts ROADMAP item 2 quotes for OQ1Bounds(3, 3, 6), summed over
    # the bases: pointed objects and their classes, dcpos and their classes
    bounds = OQ1Bounds(3, 3, 6)
    pointed = pointed_classes = dcpos = dcpo_classes = 0
    for _, base in _small_bases(bounds):
        keys = [iso_key(A) for A in internal_posets(base, bounds, pointed=True)]
        pointed, pointed_classes = pointed + len(keys), pointed_classes + len(set(keys))
        keys = [key for key, _ in candidate_algebras(base, bounds)]
        dcpos, dcpo_classes = dcpos + len(keys), dcpo_classes + len(set(keys))
    assert (pointed, pointed_classes, dcpos, dcpo_classes) == (2314, 255, 698, 102)


def _search_by_labelling(bounds, time_budget_s=None):
    """The reference search: every labelling decided on its own, with the
    dcpo check, the freeness check and the re-verification run for each."""
    t0 = time.perf_counter()

    def out_of_time() -> bool:
        return time_budget_s is not None and time.perf_counter() - t0 > time_budget_s

    instances = []
    cl = ClassicalBackend()
    classical_failures = 0
    for i, X in enumerate(posets_upto(min(bounds.max_carrier, 4), pointed=True)):
        ok, _h = oq1.free_on_positives_check(cl, X)
        if not ok:
            classical_failures += 1
            instances.append(
                InstanceReport(f"classical#{i}", FAIL, f"not free on positives: {fmt(X)}")
            )
    instances.append(
        InstanceReport(
            f"classical lane (pointed ≤ {min(bounds.max_carrier, 4)})",
            PASS if classical_failures == 0 else FAIL,
            f"{classical_failures} failures",
        )
    )
    truncated = False
    for base_name, base in _small_bases(bounds):
        if truncated:
            break
        bk = PresheafBackend(base)
        checked = 0
        hits = 0
        for A in internal_posets(base, bounds, pointed=True):
            if not is_internal_dcpo(A)[0]:
                continue
            if out_of_time():
                truncated = True
                instances.append(
                    InstanceReport(
                        f"{base_name}: search truncated after {checked} algebras",
                        UNAVAILABLE,
                        f"time budget of {time_budget_s}s exceeded; report is partial",
                    )
                )
                break
            checked += 1
            try:
                ok, _h = oq1.free_on_positives_check(bk, A)
            except UnavailableError as e:
                instances.append(
                    InstanceReport(f"{base_name}:carrier#{checked}", UNAVAILABLE, e.reason)
                )
                continue
            if not ok:
                confirmed = oq1.reverify_failure(bk, A)
                hits += 1
                status = FAIL if confirmed else UNAVAILABLE
                instances.append(
                    InstanceReport(
                        f"{base_name}:carrier#{checked}",
                        status,
                        ("confirmed candidate: " if confirmed else "unconfirmed: ") + fmt(A),
                    )
                )
        instances.append(
            InstanceReport(
                f"{base_name} ({checked} algebras searched)",
                PASS,
                f"{hits} candidate counterexamples",
            )
        )
    return make_report("search-oq1", instances, bounds.as_dict(), 0)


def _carriers(bounds):
    """Per carrier line name, the base, the class key, the labelling and
    whether it is the first labelling of its class in the search order."""
    out = {}
    for base_name, base in _small_bases(bounds):
        seen = set()
        for k, (key, A) in enumerate(candidate_algebras(base, bounds), 1):
            out[f"{base_name}:carrier#{k}"] = (base, key, A, key not in seen)
            seen.add(key)
    return out


@pytest.mark.parametrize("bounds", [OQ1Bounds(2, 3, 5), OQ1Bounds(3, 3, 5)])
def test_search_matches_per_labelling_reference(bounds):
    got = search_open_question_1(bounds).to_json(zero_elapsed=True)
    assert got == _search_by_labelling(bounds).to_json(zero_elapsed=True)


def test_truncated_search_matches_per_labelling_reference():
    got = search_open_question_1(OQ1Bounds(3, 3, 5), time_budget_s=0.0)
    want = _search_by_labelling(OQ1Bounds(3, 3, 5), time_budget_s=0.0)
    assert got.to_json(zero_elapsed=True) == want.to_json(zero_elapsed=True)


def test_refused_class_reads_unavailable_on_every_labelling(monkeypatch):
    # the freeness check refuses on one candidate class with several
    # labellings: each of them gets the refusal's line, under its own
    # carrier number, and every other line stays as it was
    bounds = OQ1Bounds(2, 3, 5)
    plain = {i.objects: i for i in search_open_question_1(bounds).instances}
    carriers = _carriers(bounds)
    sizes: dict = {}
    for name, (base, key, _, _) in carriers.items():
        if plain.get(name) is not None:
            sizes[base, key] = sizes.get((base, key), 0) + 1
    target = max(sizes, key=sizes.get)
    assert sizes[target] > 1
    real = oq1.free_on_positives_check

    def refuse(bk, A):
        if getattr(A, "base", None) == target[0] and iso_key(A) == target[1]:
            raise UnavailableError("stubbed refusal")
        return real(bk, A)

    monkeypatch.setattr(oq1, "free_on_positives_check", refuse)
    rep = search_open_question_1(bounds)
    assert rep.to_json(zero_elapsed=True) == _search_by_labelling(bounds).to_json(zero_elapsed=True)
    members = {name for name, (base, key, _, _) in carriers.items() if (base, key) == target}
    refused = [i for i in rep.instances if i.status == UNAVAILABLE]
    assert {i.objects for i in refused} == members
    assert all(i.witness == "stubbed refusal" for i in refused)
    for i in rep.instances:
        if i.objects not in members and ":carrier#" in i.objects:
            assert i == plain[i.objects]


def test_reused_hit_without_an_iso_reads_unconfirmed(monkeypatch):
    # refuse rather than guess: a labelling that reuses its class's confirmed
    # verdict is confirmed only through an iso to the class's first member
    bounds = OQ1Bounds(2, 3, 5)
    want = _search_by_labelling(bounds).instances
    carriers = _carriers(bounds)
    monkeypatch.setattr(oq1, "natural_iso", lambda A, B: None)
    got = search_open_question_1(bounds).instances
    reused = 0
    for g, w in zip(got, want):
        if w.status == FAIL and w.objects in carriers and not carriers[w.objects][3]:
            reused += 1
            witness = w.witness.replace("confirmed candidate: ", "unconfirmed: ", 1)
            w = InstanceReport(w.objects, UNAVAILABLE, witness)
        assert g == w
    assert len(got) == len(want) and reused > 0


# sha256 of the zero-elapsed JSON and a newline of searches deeper than the
# default, pinned to the per-labelling search's reports
DEEP_SEARCH_SHA256 = {
    OQ1Bounds(3, 3, 7): "a5c6a43db42a21f0d6b7f0127949a79c0e739dca029f26e6b5b66f4d0cc5d06d",
    OQ1Bounds(4, 3, 6): "c0437b57461d4567171628a0160fb186465f3c82173b6c4dd29281a037d26a1d",
}


@pytest.mark.parametrize("bounds", list(DEEP_SEARCH_SHA256))
def test_deep_search_digest(bounds):
    text = search_open_question_1(bounds).to_json(zero_elapsed=True) + "\n"
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DEEP_SEARCH_SHA256[bounds]
