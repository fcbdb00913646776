import gc
import itertools
import hashlib
import os
import subprocess
import sys
import tracemalloc
import weakref
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

import liftdom
from liftdom import colimits, laws, lifting, tensor
from liftdom.backend import ClassicalBackend, UnavailableError, _ConstructionCache
from liftdom.laws import REGISTRY, Backends, Bounds, run_law, run_negative
from liftdom.model import default_model, parse_model
from liftdom.order import FinPoset, StructureError, posets_upto
from liftdom.report import FAIL, PASS, UNAVAILABLE, CheckReport, InstanceReport


def test_registry_shape():
    assert len(REGISTRY) == 27
    for name, law in REGISTRY.items():
        assert law.name == name
        assert law.statement
        assert isinstance(law.bounds, Bounds)


def test_unknown_law():
    with pytest.raises(KeyError):
        run_law("no-such-law")


def test_unknown_control_names_the_known_laws():
    # a law and its control share one check and one message
    for run in (run_law, run_negative):
        with pytest.raises(KeyError, match="unknown law 'nope'; known: kz-adjunction, "):
            run("nope")


@pytest.mark.parametrize("name", ["kz-adjunction", "lax-epi", "smash-presentations", "top-opfibration"])
def test_no_backend_outlives_its_law(monkeypatch, name):
    # every backend a law or its control builds, caches and all, is garbage
    # once the report is back
    built = []
    init = _ConstructionCache._init_caches

    def record(self):
        init(self)
        built.append(weakref.ref(self))

    monkeypatch.setattr(_ConstructionCache, "_init_caches", record)
    for run in (run_law, run_negative):
        built.clear()
        run(name)
        gc.collect()
        assert built and [r() for r in built] == [None] * len(built), run.__name__


def _traced_peak(name):
    """The law's report and its ``tracemalloc`` peak in bytes, at its
    registered bounds, with ``posets_upto(6)`` built and a collection run
    first."""
    posets_upto(6)
    gc.collect()
    tracemalloc.start()
    try:
        rep = run_law(name)
        return rep, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_smash_presentations_forgets_each_pair():
    # each of the law's 625 pairs builds objects that no later pair reads;
    # kept in the memo until the law ends they peak at 9.9-10.6 MiB.  Scoped
    # to their pair the peak reads 1.3-2.8 MiB: most of it is the
    # interpreter's free lists, which the collection before the run empties
    # and the run then fills with traced blocks (the worst case)
    rep, peak = _traced_peak("smash-presentations")
    assert rep.status == PASS
    assert peak < 4 * 2**20, f"{peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("name, ceiling", [("algebras-cocomplete", 12), ("connected-colimits", 8)])
def test_colimit_laws_stay_under_their_memory_ceilings(name, ceiling):
    # measured alone in a fresh interpreter under hash seeds 1-3: 9.68 MiB
    # (algebras-cocomplete) and 6.48 MiB (connected-colimits), each the same
    # under every seed; the ceilings leave about a fifth on top
    rep, peak = _traced_peak(name)
    assert rep.status == PASS
    assert peak < ceiling * 2**20, f"{peak / 2**20:.2f} MiB"


def test_consecutive_runs_share_no_backend(monkeypatch):
    used = []  # per run, the backends asked for a hom-set (kept alive, so ids stay unique)
    hom = _ConstructionCache.hom

    def record(self, A, B):
        used[-1].append(self)
        return hom(self, A, B)

    monkeypatch.setattr(_ConstructionCache, "hom", record)
    for _ in range(2):
        used.append([])
        run_law("kz-adjunction")
    first, second = ({id(bk) for bk in run} for run in used)
    assert len(first) == len(second) == 2  # the classical and the presheaf lane
    assert not first & second


# sha256 over every default report's zero-elapsed JSON, each followed by a
# newline, in registry order; pinned before the runners were rebuilt on one
# check-to-report combinator, re-pinned when the unread ``per_stage`` bound
# left every report's bounds, and again when monadicity-triple was registered
# at the size its map-level lane checks (3, not 4), which that lane's summary
# now names.  Passing reports must not change.
SUITE_SHA256 = "0b6cf773a0291a850a80af0ea845d9637571158d37249adaf726fa676e5219f0"


def test_default_suite_green(default_suite_run):
    # the reports of the one `check all` run of the session (conftest.py)
    h = hashlib.sha256()
    assert [rep.law for rep in default_suite_run.reports] == list(REGISTRY)
    for rep in default_suite_run.reports:
        assert rep.status == PASS, (rep.law, [i for i in rep.instances if i.status != PASS])
        h.update(rep.to_json(zero_elapsed=True).encode("utf-8") + b"\n")
    assert h.hexdigest() == SUITE_SHA256


def test_negative_controls_all_fail_with_witness():
    for name in REGISTRY:
        rep = run_negative(name)
        assert rep.status == FAIL, name
        assert any(i.status == FAIL and i.witness for i in rep.instances), name


def test_presentations_witness_reaches_every_presentation(monkeypatch):
    # the comparisons run along a spanning tree from presentation 1, so a
    # wrong universal map on presentation 4 must still give a failure
    real = tensor._smash_by

    def smash_by(bk, A, B, presentation, mixed):
        T = real(bk, A, B, presentation, mixed)
        if presentation != 4:
            return T
        const = bk.compose(bk.bottom_point(T.obj), bk.bang(T.universal.dom))
        return replace(T, universal=const)

    cl, A = ClassicalBackend(), FinPoset.chain(3)
    assert laws._presentations_witness(cl, A, A) is None
    monkeypatch.setattr(tensor, "_smash_by", smash_by)
    assert isinstance(laws._presentations_witness(cl, A, A), str)


@pytest.mark.parametrize("name", list(REGISTRY))
def test_the_fault_not_the_bound_fails_each_control(name):
    # at the control bound the law's runner passes on honest backends in the
    # lanes its fault sets, and fails on the fault with a witness on one of
    # the law's own case lines, where the control stops
    fault = REGISTRY[name].fault()
    lanes = [lane for lane in ("classical", "presheaf") if getattr(fault, lane)]
    assert len(lanes) == 1
    assert run_law(name, bounds=laws.CONTROL_BOUNDS, backends=lanes).status == PASS
    rep = run_negative(name)
    assert rep.status == FAIL and rep.bounds == laws.CONTROL_BOUNDS.as_dict()
    caught = rep.instances[-1]
    assert [i for i in rep.instances if i.status == FAIL] == [caught]
    assert caught.witness and caught.objects != "construction"


def test_structure_error_in_a_fault_is_a_construction_failure(monkeypatch):
    # a fault that makes a construction refuse ends its control the way
    # run_law ends a law, not the whole run
    class Refusing(ClassicalBackend):
        def lift(self, A):
            raise StructureError("lift", "stubbed refusal")

    monkeypatch.setattr(REGISTRY["kz-adjunction"], "fault", lambda: Backends(Refusing(), None))
    rep = run_negative("kz-adjunction")
    assert rep.status == FAIL
    assert [(i.objects, i.status, i.witness) for i in rep.instances] == [
        ("construction", FAIL, "lift: stubbed refusal")
    ]


@pytest.mark.parametrize(
    "fault, law, witness",
    [
        (laws._fake_scone_backend, "kz-adjunction", "KeyError: ('in', 1, 'x0')"),
        (laws._AlwaysPointed, "pointed-iff-algebra", "AttributeError: 'NoneType' object has no attribute 'dom'"),
    ],
)
def test_an_exception_from_a_checker_is_a_construction_failure(fault, law, witness):
    # another law's fault breaks an invariant this law's checker reads, and
    # the checker raises; the report ends on a FAIL line naming the
    # exception instead of the raise ending the run
    lines = REGISTRY[law].runner(laws._control_model(), laws.CONTROL_BOUNDS, Backends(fault(), None))
    rep = laws._report(law, lines, laws.CONTROL_BOUNDS)
    assert rep.status == FAIL
    assert [(i.objects, i.status, i.witness) for i in rep.instances] == [("construction", FAIL, witness)]


def test_no_exception_escapes_a_report():
    # every law's runner on every law's fault at the control bounds gives a
    # report; the runs whose checker raised end on a FAIL construction line
    crashed = 0
    for fault in [law.fault for law in REGISTRY.values()]:
        for name, law in REGISTRY.items():
            rep = laws._report(name, law.runner(laws._control_model(), laws.CONTROL_BOUNDS, fault()), laws.CONTROL_BOUNDS)
            last = rep.instances[-1]
            if last.objects == "construction" and last.status == FAIL:
                crashed += last.witness.startswith(("KeyError: ", "AttributeError: "))
    assert crashed


def test_a_faulty_coproduct_fails_on_its_own_line(monkeypatch):
    # a coproduct check whose construction rejects what it built fails on
    # that coproduct's line; only a refused construction is UNAVAILABLE,
    # and the law goes on past it
    rep = run_negative("algebras-cocomplete")
    assert [(i.objects, i.status, i.witness) for i in rep.instances] == [
        ("coproduct 2⊕2", FAIL, "reflexivity: section fails the first leg")
    ]

    def refuse(cl, X, Y, apexes):
        raise UnavailableError("stubbed refusal")

    monkeypatch.setattr(colimits, "coproduct_algebras_universal_check", refuse)
    rep = run_law("algebras-cocomplete", bounds=laws.CONTROL_BOUNDS)
    assert [(i.status, i.witness) for i in rep.instances] == [(UNAVAILABLE, "stubbed refusal")] * 4 + [(PASS, None)]


def test_reports_deterministic():
    for name in ("kz-adjunction", "nonboolean-lift", "phoa"):
        a = run_law(name).to_json(zero_elapsed=True)
        b = run_law(name).to_json(zero_elapsed=True)
        assert a == b


def test_report_invariants():
    with pytest.raises(StructureError):
        CheckReport("x", FAIL, [InstanceReport("i", FAIL, None)], {}, 0)
    with pytest.raises(StructureError):
        CheckReport("x", UNAVAILABLE, [], {}, 0)
    CheckReport("x", UNAVAILABLE, [], {}, 0, reason="why")


def test_backend_filtering():
    rep = run_law("nonboolean-lift", backends=("classical",))
    assert rep.status == UNAVAILABLE  # the law is presheaf-only
    rep = run_law("joint-epi", backends=("presheaf",))
    assert rep.status == UNAVAILABLE
    for backends in (("presheaf",), ["presheaf"]):
        rep = run_law("monoidal-adjunction", backends=backends)
        assert rep.status == UNAVAILABLE
        assert rep.instances[0].objects == "1,1/2-chain-base"
        assert "continuous" in rep.instances[0].witness


def _reduced(law):
    """The law's bounds cut down to the smallest sizes that still give cases."""
    b = REGISTRY[law].bounds
    return replace(b, max_size=min(b.max_size, 2), apex=min(b.apex, 3), competing=min(b.competing, 2))


def test_both_lanes_report_what_each_lane_reports_alone():
    # run_law narrows the shared record to the selected lanes, so running
    # both lanes must give, as a multiset, the instances of each lane run
    # alone; monoidal-adjunction's presheaf instance is the one exception,
    # as it runs only when the presheaf lane runs alone
    def instances(law, backends):
        rep = run_law(law, bounds=_reduced(law), backends=backends)
        return Counter((i.objects, i.status, i.witness) for i in rep.instances if i.objects != "no instances in scope")

    for law in REGISTRY:
        classical, presheaf = instances(law, ("classical",)), instances(law, ("presheaf",))
        if law == "monoidal-adjunction":
            assert [objects for objects, _, _ in presheaf] == ["1,1/2-chain-base"]
            presheaf = Counter()
        assert instances(law, ("classical", "presheaf")) == classical + presheaf, law


def test_structure_error_in_a_runner_is_a_failure(monkeypatch):
    def refuse(*args):
        raise StructureError("kz", "stubbed refusal")

    monkeypatch.setattr(lifting, "kz_check", refuse)
    rep = run_law("kz-adjunction")
    assert rep.status == FAIL
    assert [(i.status, i.witness) for i in rep.instances] == [(FAIL, "kz: stubbed refusal")]


def test_lines_yielded_before_a_runner_raised_are_kept(monkeypatch):
    # the first instance is checked, the second raises: the report keeps the
    # first line and adds the construction line after it
    first = run_law("kz-adjunction").instances[0]
    calls = []
    real = lifting.kz_check

    def refuse_second(*args):
        calls.append(args)
        if len(calls) == 2:
            raise StructureError("kz", "stubbed refusal")
        return real(*args)

    monkeypatch.setattr(lifting, "kz_check", refuse_second)
    rep = run_law("kz-adjunction")
    assert rep.status == FAIL
    assert [(i.objects, i.status, i.witness) for i in rep.instances] == [
        (first.objects, first.status, first.witness),
        ("construction", FAIL, "kz: stubbed refusal"),
    ]


def test_failing_cases_found_before_a_raise_are_kept(monkeypatch):
    # the 3rd pair fails and the 10th raises: the failing case is reported as
    # it is found, so it stays in the report above the construction line
    calls = []
    real = lifting.partial_product_check

    def stub(*args):
        calls.append(args)
        if len(calls) == 3:
            return False, "stubbed"
        if len(calls) == 10:
            raise StructureError("pp", "stubbed refusal")
        return real(*args)

    monkeypatch.setattr(lifting, "partial_product_check", stub)
    rep = run_law("partial-product", backends=("classical",))
    pairs = [name for name, _, _ in laws._each_pair("{}⇀{}")(None, None, Bounds(max_size=3))]
    assert [(i.objects, i.status, i.witness) for i in rep.instances] == [
        (pairs[2], FAIL, "stubbed"),
        ("construction", FAIL, "pp: stubbed refusal"),
    ]


def test_negative_bounds_are_refused():
    # a negative bound would make the classical lane check nothing and the
    # colimit laws pass vacuously
    for field in ("max_size", "competing", "apex", "base_stages"):
        b = replace(REGISTRY["kz-adjunction"].bounds, **{field: -1})
        rep = run_law("kz-adjunction", bounds=b)
        assert rep.status == UNAVAILABLE and rep.reason == "requested bounds are negative"
        assert [(i.objects, i.status) for i in rep.instances] == [("bounds", UNAVAILABLE)]


def test_fault_injected_through_the_record_fails_the_law():
    run, b = REGISTRY["kz-adjunction"].runner, Bounds(max_size=3)
    faulty = list(run(default_model(), b, Backends(laws._DropLastMap(), None)))
    assert any(i.status == FAIL and i.witness for i in faulty)
    assert [i.status for i in run(default_model(), b, Backends(ClassicalBackend(), None))] == [PASS] * len(faulty)


# Runners whose bounded family collapses to one summary line when it passes:
# the checker to stub, what the stub returns, and the lines of the report
# that do not come from that family.
STUBBED_FAMILIES = [
    ("partial-product", lifting, "partial_product_check", (False, "stubbed"), []),
    ("paths", lifting, "paths_check", (False, "stubbed"), []),
    ("seal-iso", tensor, "seal_iso_check", (False, "stubbed"), ["tensor represents bilinear maps"]),
    ("strict-iff-hom", lifting, "strict_iff_hom_check", False, []),
]


@pytest.mark.parametrize(
    "law,module,checker,result,others", STUBBED_FAMILIES, ids=[row[0] for row in STUBBED_FAMILIES]
)
def test_failing_family_lists_cases_without_summary(monkeypatch, law, module, checker, result, others):
    monkeypatch.setattr(module, checker, lambda *args: result)
    rep = run_law(law, bounds=replace(REGISTRY[law].bounds, max_size=2), backends=("classical",))
    assert rep.status == FAIL
    failing = [i for i in rep.instances if i.objects not in others]
    assert len(failing) > 1
    assert all(i.status == FAIL and i.witness for i in failing)
    assert [i.objects for i in rep.instances if i.status == PASS] == others


def test_model_objects_are_used():
    spec = parse_model(
        "poset Z4 { elems a b c d ; leq a<=b a<=c a<=d b<=d c<=d }"
    )
    rep = run_law("kz-adjunction", spec)
    assert any("model:Z4" in i.objects for i in rep.instances)


def test_oversized_bounds_unavailable():
    rep = run_law("kz-adjunction", bounds=Bounds(max_size=9))
    assert rep.status == UNAVAILABLE
    assert "exceed" in rep.reason


def test_json_schema():
    rep = run_law("phoa")
    d = rep.to_dict()
    assert set(d) == {"law", "status", "instances", "bounds", "elapsed_ms"}
    assert all(set(i) == {"objects", "status", "witness"} for i in d["instances"])


# sha256 over every negative control's zero-elapsed JSON, each followed by a
# newline, in registry order; re-pinned when every control became its law's
# own runner on the law's fault, reporting the lines up to the first FAIL at
# the control bounds, and again when a coproduct whose construction rejects
# what it built became a FAIL on its own line (the algebras-cocomplete
# control now stops at "coproduct 2⊕2"), and again when strict homs came
# from a bottom-pinned search, which drops the last strict map on both
# sides of the tensor-hom bijection: that control's fault became an
# exponential without its last function element, and it now stops at
# "genP1.0⊗genP1.0⊸genP1.0" with "(cardinality,1,0)".  A change that
# moves it must say what changed in the report on purpose.
NEGATIVES_SHA256 = "3e7f10c8edbe2503cb11272423bf12ae01d8bf4e2d1c365e96f893b256f7d38a"

_NEGATIVES_DIGEST = """
import hashlib
from liftdom.laws import REGISTRY, run_negative
h = hashlib.sha256()
for name in REGISTRY:
    h.update(run_negative(name).to_json(zero_elapsed=True).encode("utf-8") + b"\\n")
print(len(REGISTRY), h.hexdigest())
"""


def test_negative_reports_pinned_across_hash_seeds():
    src = str(Path(liftdom.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    for seed in ("0", "4242"):
        env = {**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed}
        out = subprocess.run(
            [sys.executable, "-c", _NEGATIVES_DIGEST],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        ).stdout.split()
        assert out == ["27", NEGATIVES_SHA256], seed


# OEIS A000112: posets on n points up to isomorphism.  A pointed poset on
# n + 1 points is a poset on n points with a bottom added.
A000112 = [1, 1, 2, 5, 16, 63, 318]


def _posets_upto_count(n, pointed=False):
    return sum(A000112[k - 1] if pointed else A000112[k] for k in range(pointed, n + 1))


def _monotone_count(dom, leq, B):
    """Brute force: the functions from ``dom`` to B that preserve ``leq``."""
    below = [(i, j) for i, x in enumerate(dom) for j, y in enumerate(dom) if leq(x, y)]
    return sum(
        all(B.leq(f[i], f[j]) for i, j in below) for f in itertools.product(B.elements, repeat=len(dom))
    )


def _maps_count(n, pointed=False):
    ps = posets_upto(n, pointed=pointed)
    return sum(_monotone_count(A.elements, A.leq, B) for A in ps for B in ps)


def _triples_count(n):
    # maps A x B -> C between pointed posets, A x B ordered componentwise
    ps = posets_upto(n, pointed=True)
    count = 0
    for A, B in itertools.product(ps, repeat=2):
        pairs = list(itertools.product(A.elements, B.elements))
        leq = lambda x, y: A.leq(x[0], y[0]) and B.leq(x[1], y[1])  # noqa: E731
        count += sum(_monotone_count(pairs, leq, C) for C in ps)
    return count


def test_exhausted_families_are_counted(default_suite_run):
    # a family that drops cases still prints one PASS line, so every
    # exhausted family's case count is pinned to a count made without the law
    seen = {rep.law: counts for rep, counts in zip(default_suite_run.reports, default_suite_run.families) if counts}
    pairs = _posets_upto_count(3) ** 2
    pointed3 = _posets_upto_count(3, pointed=True)
    small = _posets_upto_count(2, pointed=True) + 1  # and the 3-chain
    expected = {
        "partial-product": [("all pairs ≤ 3 classical", pairs)],
        "conservative-L": [("all maps between posets ≤ 3", _maps_count(3))],
        "strict-iff-inductive": [("all maps between pointed posets ≤ 3", _maps_count(3, pointed=True))],
        "strict-iff-hom": [("all maps between pointed posets ≤ 4", _maps_count(4, pointed=True))],
        "monadicity-triple": [("map-level equivalences ≤ 3", _maps_count(3, pointed=True))],
        "smash-presentations": [
            ("four presentations agree for pointed pairs ≤ 5", _posets_upto_count(5, pointed=True) ** 2),
            ("unique bistrict factorisation on the bounded range", small**2),
        ],
        "bistrict-iff-bilinear": [("exhaustive over pointed triples ≤ 3", _triples_count(3))],
        "seal-iso": [("tensor ≅ smash for pointed pairs ≤ 3", pointed3**2)],
        "monoidal-adjunction": [
            ("strong/lax symmetry for pairs ≤ 3", pairs),
            ("coherence on 2-chains", _posets_upto_count(2, pointed=True) ** 2 + 2),  # and hexagon, pentagon
        ],
        "tensor-hom": [("currying bijections verified", small**3)],
        "homs-coincide": [("pointed pairs ≤ 3", pointed3**2 + 1)],  # and the Kock criterion
        "paths": [("paths = pointwise order, A ≤ 2, B ≤ 3", _posets_upto_count(2) * _posets_upto_count(3))],
        "commutative-monad": [
            ("extension orders agree for pairs ≤ 3", pairs),
            ("strict extension criterion on pointed pairs ≤ 2", _posets_upto_count(2, pointed=True) ** 2),
        ],
    }
    assert seen == expected
    # the counts measured when the families were first pinned
    assert [n for law in expected for _, n in seen[law]] == [
        81, 485, 77, 1679, 77, 625, 9, 2666, 16, 81, 6, 27, 17, 36, 81, 4
    ]


# Laws checked above their default size, each with its checker stubbed to
# pass and counting its calls: the bounds, the summary's size and the cases
# checked, counted without the law.
LARGER_BOUNDS = [
    ("partial-product", lifting, "partial_product_check", "all pairs ≤ 4 classical",
     lambda: _posets_upto_count(4) ** 2),
    ("paths", lifting, "paths_check", "paths = pointwise order, A ≤ 2, B ≤ 4",
     lambda: _posets_upto_count(2) * _posets_upto_count(4)),
    ("seal-iso", tensor, "seal_iso_check", "tensor ≅ smash for pointed pairs ≤ 4",
     lambda: _posets_upto_count(4, pointed=True) ** 2),
    ("monoidal-adjunction", tensor, "monoidal_adjunction_check", "strong/lax symmetry for pairs ≤ 4",
     lambda: _posets_upto_count(4) ** 2),
    ("homs-coincide", tensor, "homs_coincide_check", "pointed pairs ≤ 4",
     lambda: _posets_upto_count(4, pointed=True) ** 2),
]


@pytest.mark.parametrize("law,module,checker,summary,count", LARGER_BOUNDS, ids=[row[0] for row in LARGER_BOUNDS])
def test_a_larger_max_size_is_checked_not_narrowed(monkeypatch, law, module, checker, summary, count):
    calls = []
    monkeypatch.setattr(module, checker, lambda *args: calls.append(args) or (True, None))
    rep = run_law(law, bounds=replace(REGISTRY[law].bounds, max_size=4), backends=("classical",))
    assert rep.status == PASS and rep.bounds["max_size"] == 4
    assert InstanceReport(summary, PASS) in rep.instances
    assert len(calls) == count()


def test_a_larger_competing_bound_is_checked_not_narrowed(monkeypatch):
    # the universal pairs factor through every pointed codomain up to competing
    codomains = []
    stub = lambda bk, T, cods: codomains.append(len(cods)) or (True, None)  # noqa: E731
    monkeypatch.setattr(tensor, "universal_bistrict_check", stub)
    rep = run_law("smash-presentations", bounds=Bounds(max_size=2, competing=5), backends=("classical",))
    assert rep.status == PASS and rep.bounds["competing"] == 5
    small = _posets_upto_count(2, pointed=True) + 1  # and the 3-chain
    assert codomains == [_posets_upto_count(5, pointed=True)] * small**2


def test_open_classifier_reads_model_internal_posets_up_to_max_size():
    spec = parse_model(
        "base P2 { elems s0 s1 ; leq s0<=s1 }\n"
        "presheaf F over P2 { stage s1: a b c ; stage s0: u v ; restrict s1->s0: a->u b->u c->v }\n"
        "iposet B5 over P2 from F { order s1: a<=b ; order s0: u<=v }"
    )
    for max_size, read in ((4, False), (5, True)):
        rep = run_law("open-classifier", spec, Bounds(max_size=max_size), ("presheaf",))
        assert rep.status == PASS
        assert (InstanceReport("model:B5", PASS) in rep.instances) == read, max_size


def test_monadicity_reports_the_size_of_its_map_level_lane():
    # its object-level halves at 4 are pointed-iff-algebra and pointed-iff-inductive
    rep = run_law("monadicity-triple")
    assert rep.bounds["max_size"] == 3
    assert rep.instances[-1] == InstanceReport("map-level equivalences ≤ 3", PASS)


@pytest.mark.parametrize("name", ["connected-colimits", "algebras-cocomplete", "colimits-enriched"])
def test_colimit_laws_without_a_pointed_carrier_fail_nothing(name):
    # no pointed poset has 0 elements, so there is no diagram to draw
    rep = run_law(name, bounds=Bounds(max_size=0, apex=2))
    assert FAIL not in {i.status for i in rep.instances}
