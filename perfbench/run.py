"""The liftdom benchmark: cold passes of a workload, timed from outside.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {suite,oq1-deep,build} --seed N \
        --seconds S --trace {0,1}

Each pass of the workload runs in a fresh interpreter (``unit.py``),
because the program's caches are process-global and a user of ``liftdom
check`` pays the cold cost every time.  This process only starts passes,
one at a time, and timestamps the lines they print:

* ``setup_s``: interpreter start to ``ready`` (``import liftdom`` and the
  model parse).  Median over every pass plus ``SETUP_GROUP`` set-up-only
  starts before each pass and after the last, after one discarded start
  that fills the bytecode cache.
* ``wall_s``: ``go`` to ``done``, the timed work up to the last verdict or
  outcome.  Median over the passes.
* ``peak_rss_mb``: the peak resident memory of a pass's process, median
  over the passes.

Both times are given in reference seconds.  On a shared host the CPU's
speed can drift (by as much as 1.7 times, in phases of seconds to
minutes, on a 2-vCPU Xeon VM), so each pass runs a fixed calibration loop
right after ``ready``, every quarter second of the work, and after
``done`` (see ``unit.py``).  Each stretch of time is scaled by
``CAL_REF_S`` over the loop's time at the stretch's end.  The unscaled
times are kept in the detail file.

With ``--trace 0`` passes repeat until another one would end after
``--seconds``; there is always at least one.  With ``--trace 1`` the run
makes one plain pass and one traced pass and reports the per-layer
metrics of the traced one, with ``trace.overhead_ratio`` = traced
``wall_s`` / plain ``wall_s``.

Every pass gets its own ``PYTHONHASHSEED``, derived from the seed, and the
run is correct only if each pass's verdicts match the known answers and all
passes produce the same report digest (reports must not depend on the hash
seed; a traced run always has two passes, so it always checks this).
The last line of standard output is the JSON result; details of every pass, the environment, and (traced) the
span file go to ``.bench_build/perfbench/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
sys.path.insert(0, HERE)

import metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_GROUP = 8
# Seconds the calibration loop of unit.calibrate takes on the reference
# host; times are reported as they would read there.
CAL_REF_S = 0.004
DEADLINE_S = 170.0


class PassFailed(RuntimeError):
    pass


def hash_seed(seed: int, k: int) -> int:
    return (seed * 1_000_003 + k * 7_919 + 1) % 4_294_967_295


def run_pass(workload: str, seed: int, k: int, deadline: float, trace_file=None) -> dict:
    """Start one pass, timestamp its marker lines and return its record."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=str(hash_seed(seed, k)))
    cmd = [sys.executable, os.path.join(HERE, "unit.py"), "--workload", workload, "--seed", str(seed)]
    if trace_file:
        cmd += ["--trace-file", trace_file]
    marks: dict = {}
    lines: list = []
    t_start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    try:
        fd, buf = proc.stdout.fileno(), b""
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise PassFailed(f"{workload} pass {k} did not finish before the deadline")
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(fd, 1 << 16)
            now = time.perf_counter()
            if not chunk:
                break
            buf += chunk
            while b"\n" in buf:
                line, buf = buf.split(b"\n", 1)
                text = line.decode("utf-8")
                if text in ("ready", "go", "done"):
                    marks[text] = now
                else:
                    lines.append(text)
        code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or "ready" not in marks:
        raise PassFailed(f"{workload} pass {k} exited with code {code}")
    if not lines or (workload != "setup" and "done" not in marks):
        raise PassFailed(f"{workload} pass {k} printed no result")
    rec = json.loads(lines[-1])
    rec["hash_seed"] = hash_seed(seed, k)
    rec["setup_raw_s"] = marks["ready"] - t_start
    rec["setup_s"] = rec["setup_raw_s"] * CAL_REF_S / rec["setup_cal"]
    if workload != "setup":
        cals = rec.pop("cals")
        rec["calibrations"] = len(cals)
        rec["wall_raw_s"] = marks["done"] - marks["go"] - sum(t1 - t0 for t0, t1, _ in cals)
        rec["wall_s"] = scaled_work(marks["go"], marks["done"], cals, rec["end_cal"])
    return rec


def scaled_work(go: float, done: float, cals: list, end_cal: float) -> float:
    """The work between ``go`` and ``done`` in reference seconds: each
    stretch between two calibration handlers, scaled by CAL_REF_S over the
    calibration that ended it; the handlers themselves are left out.  The
    child's clock is the same system-wide monotonic clock as ours."""
    total, start = 0.0, go
    for t0, t1, cal in cals:
        total += (t0 - start) * CAL_REF_S / cal
        start = t1
    return total + (done - start) * CAL_REF_S / end_cal


def src_lines() -> int:
    total = 0
    pkg = os.path.join(SRC, "liftdom")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                total += sum(1 for _ in fh)
    return total


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": git_commit(),
        "src_lines": src_lines(),
    }


def git_commit():
    """HEAD of a git checkout at the root, read from ``.git``; None elsewhere."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run the passes of one benchmark run; returns (result line, details)."""
    deadline = time.perf_counter() + DEADLINE_S
    run_pass("setup", seed, 0, deadline)  # fills the bytecode cache; discarded
    setups: list = []

    def probes():
        # a group of set-up-only starts before each pass and after the last,
        # so that the set-up samples span the run as the passes do
        for _ in range(SETUP_GROUP):
            setups.append(run_pass("setup", seed, 1 + len(setups), deadline)["setup_s"])

    passes = []
    t0 = time.perf_counter()
    if trace:
        os.makedirs(OUT, exist_ok=True)
        trace_file = os.path.join(OUT, f"trace-{workload}-seed{seed}.jsonl")
        probes()
        passes.append(run_pass(workload, seed, 100, deadline))
        probes()
        passes.append(run_pass(workload, seed, 101, deadline, trace_file))
    else:
        while True:
            probes()
            passes.append(run_pass(workload, seed, 100 + len(passes), deadline))
            elapsed = time.perf_counter() - t0
            if elapsed + elapsed / len(passes) > seconds:
                break
    probes()
    setups += [p["setup_s"] for p in passes]
    errors = [e for p in passes for e in p["errors"]]
    digests = sorted({p["digest"] for p in passes})
    result = {
        "correct": not errors and len(digests) == 1,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": len(errors) + (len(digests) - 1),
    }
    if trace:
        plain, traced = passes
        values = dict(traced["layers"])
        values.update({
            "model.parse_model.s": traced["parse_s"],
            "report.digest": int(traced["digest"][:12], 16),
            "process.cpu_s": traced["cpu_s"],
            "trace.overhead_ratio": traced["wall_s"] / plain["wall_s"],
            "src.lines": src_lines(),
        })
        result["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                             for m in metrics.declared("per_layer")}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        result["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                             for m in metrics.declared("end_to_end")}
    detail = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment(), "setup_samples": setups, "digests": digests,
              "errors": errors, "passes": [{k: v for k, v in p.items() if k != "layers"} for p in passes]}
    return result, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "liftdom", "__init__.py")):
        print(f"no liftdom sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    try:
        result, detail = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except PassFailed as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    os.makedirs(OUT, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump({"result": result, **detail}, fh, indent=1)
    env = detail["environment"]
    print(f"workload={args.workload} seed={args.seed} passes={len(detail['passes'])} "
          f"python={env['python']} nproc={env['nproc']} cpu={env['cpu']!r} "
          f"commit={env['commit']} src_lines={env['src_lines']}")
    for err in detail["errors"]:
        print(f"verdict error: {err}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
