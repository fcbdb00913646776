"""One cold pass of one workload, in a fresh interpreter started by run.py.

Usage: python3 perfbench/unit.py --workload W --seed N [--trace-file PATH]

Talks to run.py on stdout, one line per step, so that run.py can time the
steps from outside: ``ready`` once liftdom is imported and the model
parsed, ``go`` just before the timed work, ``done`` right after the last
verdict or outcome, then one JSON line with the verdicts, the digest and
the figures only the process itself can see (peak RSS, CPU time, the
calibrations, and with ``--trace-file`` the per-layer values).
``--workload setup`` stops after ``ready`` and its calibration.

On a shared host the CPU's speed can drift in phases of seconds to
minutes, and the drift slows the calibration loop about as much as the
program.
So a pass interrupts the timed work every ``CAL_EVERY_S`` and runs the
fixed calibration loop of ``calibrate`` in a signal handler; the handler
touches no program state.  run.py takes the handlers' time out of the pass
and scales each stretch of work between two calibrations by how fast the
loop ran at its end.  In a traced pass the handlers' time is also taken
out of every span's self time (``Tracer.exclude``), though not out of the
spans' total times.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


CAL_EVERY_S = 0.25
CAL_STEPS = 25_000
_TABLE = {i: i * 2654435761 % 1000003 for i in range(64)}


def _step(x: int) -> int:
    return _TABLE[x & 63] ^ x


def calibrate() -> float:
    """Seconds for a fixed piece of pure-Python work: calls, dict lookups
    and integer arithmetic, but no new containers, so the garbage
    collector's schedule is left as the program set it."""
    t0 = time.perf_counter()
    x = 0
    for i in range(CAL_STEPS):
        x = _step(x + i) & 0xFFFF
    return time.perf_counter() - t0


def calibrate_now() -> float:
    return statistics.median(calibrate() for _ in range(3))


def _say(word: str):
    print(word, flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=["setup", "suite", "oq1-deep", "build"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace-file", default=None)
    args = ap.parse_args(argv)

    import liftdom
    import liftdom.cli  # noqa: F401  (the command-line entry point loads it too)

    t0 = time.perf_counter()
    spec = liftdom.default_model()
    parse_s = time.perf_counter() - t0
    _say("ready")
    setup_cal = calibrate_now()
    if args.workload == "setup":
        print(json.dumps({"setup_cal": setup_cal}), flush=True)
        return 0

    import gen
    import workloads

    inputs = gen.build_inputs(args.seed) if args.workload == "build" else None
    tracer = originals = None
    around = None
    if args.trace_file:
        import tracer as tracing

        tracer = tracing.Tracer(run_id=f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
        originals = tracing.install(tracer)
        around = tracer.timed

    cals = []  # (handler start, handler end, calibration seconds)

    def on_alarm(signum, frame):
        t0 = time.perf_counter()
        cal = calibrate()
        t1 = time.perf_counter()
        cals.append((t0, t1, cal))
        if tracer is not None:
            tracer.exclude(t1 - t0)

    _say("go")
    signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
    if args.workload == "suite":
        raw = workloads.run_suite(spec, around_law=around)
    elif args.workload == "oq1-deep":
        raw = workloads.run_oq1()
    else:
        raw = workloads.run_build(inputs)
    signal.setitimer(signal.ITIMER_REAL, 0)
    _say("done")
    usage = resource.getrusage(resource.RUSAGE_SELF)
    end_cal = calibrate_now()

    if tracer is not None:
        tracer.uninstall()
    if args.workload == "suite":
        result = workloads.check_suite(raw)
    elif args.workload == "oq1-deep":
        result = workloads.check_oq1(raw)
    else:
        result = workloads.check_build(inputs, raw)

    record = {
        "attempted": result.attempted,
        "errors": result.errors,
        "digest": result.digest(),
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "parse_s": parse_s,
        "setup_cal": setup_cal,
        "cals": cals,
        "end_cal": end_cal,
    }
    if tracer is not None:
        import metrics

        tracer.counts.update(result.counts)
        record["layers"] = metrics.layer_values(tracer, originals)
        record["spans_kept"] = len(tracer.spans)
        record["spans_dropped"] = tracer.dropped
        record["missing_targets"] = tracer.missing
        tracer.write_jsonl(args.trace_file)
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
