"""Tests of the benchmark itself: generator, oracles, tracer and runner.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests``.
"""
from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import gen  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# OQ1 at (max_base, max_stage, max_carrier) = (2, 2, 4), pinned at the seed commit.
OQ1_TINY = (2, 2, 4)
OQ1_TINY_COUNTS = {"base1.1": (3, 0), "base2.2": (9, 0), "base2.3": (7, 2)}


def tiny_build_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    return {"classical": gen.classical_pairs(rng, 6), "presheaf": gen.presheaf_pairs(rng, 1)}


def test_generator_is_deterministic_in_the_seed():
    assert gen.build_inputs(7) == gen.build_inputs(7)
    assert gen.build_inputs(7) != gen.build_inputs(8)


def test_generated_inputs_are_valid_objects():
    from liftdom import BasePoset, FinPoset, InternalPoset

    inputs = gen.build_inputs(3)
    for pair in inputs["classical"]:
        for elements, leq in pair:
            assert 2 <= len(elements) <= 5
            assert all((elements[0], x) in leq for x in elements)
            assert gen.closure(elements, leq) == leq
            FinPoset(elements, leq)
    assert {p[0] for p in inputs["presheaf"]} == {b[0] for b in gen.BASES}
    for _, (stages, leq), a, b in inputs["presheaf"]:
        base = BasePoset(FinPoset(stages, leq))
        for x in (a, b):
            InternalPoset.make(base, x["sets"], x["res"], x["orders"])


def test_wrapper_returns_the_wrapped_result():
    t = tracer.Tracer("test")
    sentinel = object()
    assert t.wrap(lambda: sentinel, "f")() is sentinel
    assert t.wrap(lambda: sentinel, "g", span=False)() is sentinel
    assert t.calls["f"] == t.calls["g"] == 1


def _small_runs(spec, around=None):
    laws = ["kz-adjunction", "scone-universal", "colimits-enriched", "nonboolean-lift"]
    suite = workloads.check_suite(workloads.run_suite(spec, laws, apex=3, around_law=around))
    oq1 = workloads.check_oq1(workloads.run_oq1(OQ1_TINY), OQ1_TINY_COUNTS)
    inputs = tiny_build_inputs(5)
    build = workloads.check_build(inputs, workloads.run_build(inputs))
    return suite, oq1, build


def test_tracing_leaves_every_report_unchanged():
    from liftdom import backend, default_model, order

    spec = default_model()
    plain = _small_runs(spec)
    compose, lift = order.compose, backend.ClassicalBackend.lift
    t = tracer.Tracer("test")
    try:
        tracer.install(t)
        traced = _small_runs(spec, around=t.timed)
    finally:
        t.uninstall()
    assert order.compose is compose and backend.ClassicalBackend.lift is lift
    assert [r.digest() for r in traced] == [r.digest() for r in plain]
    assert not t.missing
    values = metrics.layer_values(t, {})
    added_by_runner = {"model.parse_model.s", "report.digest", "process.cpu_s", "trace.overhead_ratio", "src.lines"}
    assert {m["name"] for m in metrics.declared("per_layer")} - added_by_runner == set(values)
    assert values["order.compose.calls"] > 0
    assert values["presheaf.kj_forces.calls"] > 0
    assert values["backend.classical.lift.calls"] > 0
    assert values["laws.kz-adjunction.s"] > 0
    ids = {span[0] for span in t.spans}
    assert all(parent is None or parent in ids for _, parent, *_ in t.spans)
    for name, total in t.total_s.items():
        assert -1e-9 <= t.self_s[name] <= total + 1e-9


def test_tiny_workloads_have_no_verdict_errors():
    from liftdom import default_model

    for result in _small_runs(default_model()):
        assert result.attempted > 0
        assert result.errors == []


def test_oracles_catch_wrong_answers():
    inputs = tiny_build_inputs(5)
    from liftdom import FinPoset

    empty = ("ok", FinPoset((), frozenset()), "")
    outcomes = workloads.run_build(inputs)
    broken = [
        (req, empty if req[0] == "classical" and req[2] in ("smash", "hom") else out)
        for req, out in outcomes
    ]
    assert len(workloads.check_build(inputs, broken).errors) == 2 * len(inputs["classical"])
    seeded = dict(gen.build_inputs(1), classical=[])
    outcomes = workloads.run_build(seeded)
    assert workloads.check_build(seeded, outcomes).errors == []
    # a refusal the oracles allow (a smash over an ordered base), but not pinned
    i = next(i for i, ((base, _, op), out) in enumerate(outcomes)
             if op == "smash" and out[0] == "ok" and base in ("2-chain", "V", "3-chain"))
    outcomes[i] = (outcomes[i][0], ("unavailable", "refused"))
    assert len(workloads.check_build(seeded, outcomes).errors) == 1
    rep = workloads.run_oq1(OQ1_TINY)
    wrong = dict(OQ1_TINY_COUNTS, **{"base2.3": (7, 1)})
    assert len(workloads.check_oq1(rep, wrong).errors) == 1


def test_benchmark_json_lists_every_law_and_the_baseline_every_metric():
    from liftdom import REGISTRY

    names = [m["name"] for m in metrics.declared("per_layer")]
    assert [n for n in names if n.startswith("laws.")] == [f"laws.{law}.s" for law in REGISTRY] + ["laws.negatives.s"]
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        assert [w["name"] for w in json.load(fh)["workloads"]] == list(workloads.WORKLOADS)
    with open(os.path.join(BENCH, "baseline.json"), encoding="utf-8") as fh:
        baseline = json.load(fh)["workloads"]
    assert list(baseline) == list(workloads.WORKLOADS)
    for entry in baseline.values():
        assert list(entry["end_to_end"]) == [m["name"] for m in metrics.declared("end_to_end")]
        assert list(entry["per_layer"]) == names
        assert entry["verdict_errors"] == 0


def test_scaled_work_leaves_out_the_handlers_and_scales_each_stretch():
    ref = run.CAL_REF_S
    # 1 s at the reference speed, a 0.5 s handler, then 1 s at half speed
    assert abs(run.scaled_work(10.0, 12.5, [(11.0, 11.5, ref)], 2 * ref) - 1.5) < 1e-9


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_run_prints_the_result_line():
    proc = _run(ROOT, "--workload", "build", "--seed", "2", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == [m["name"] for m in metrics.declared("end_to_end")]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_refuses_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(str(tmp_path), "--workload", "suite", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
