"""Every end-to-end metric of every workload, with the determinism check.

Usage (from the root of a checkout):

    python3 perfbench/summary.py [--seed N] [--seconds S]

Runs each workload as ``run.py --trace 0`` does and prints one line per
metric with its unit, including ``verdict_errors`` against the number of
verdicts attempted, and whether passes under two or more ``PYTHONHASHSEED``
values gave the same report digest.  Exits 1 if any verdict is
wrong or any digest differs, 2 if the run itself fails.
"""
from __future__ import annotations

import argparse
import sys
import time

import run
from workloads import WORKLOADS


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    args = ap.parse_args(argv)
    bad = False
    print(f"environment: {run.environment()}  seed={args.seed}")
    print(f"{'workload':10s} {'metric':16s} {'value':>14s}  unit")
    try:
        for workload in WORKLOADS:
            result, detail = run.measure(workload, args.seed, args.seconds, trace=False)
            for name, m in result["metrics"].items():
                print(f"{workload:10s} {name:16s} {m['value']:14.4f}  {m['unit']}")
            print(f"{workload:10s} {'verdict_errors':16s} {result['failed']:14d}  count"
                  f"  (of {result['attempted']} attempted)")
            for err in detail["errors"]:
                print(f"    {err}")
            bad |= result["failed"] > 0
            hs = [p["hash_seed"] for p in detail["passes"]]
            digests = set(detail["digests"])
            if len(hs) < 2:  # compare under a second hash seed
                extra = run.run_pass(workload, args.seed, 1, time.perf_counter() + run.DEADLINE_S)
                hs.append(extra["hash_seed"])
                digests.add(extra["digest"])
            same = len(digests) == 1
            print(f"{workload:10s} {'determinism':16s} {'same' if same else 'DIFFERS':>14s}"
                  f"  report digest under PYTHONHASHSEED {', '.join(map(str, hs))}")
            bad |= not same
    except run.PassFailed as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 2
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
