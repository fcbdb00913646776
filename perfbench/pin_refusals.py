"""Pins which presheaf requests of the ``build`` workload the program refuses.

Usage (from the root of a checkout, at the commit whose behaviour is
pinned): python3 perfbench/pin_refusals.py

Runs the presheaf requests of ``build`` for seeds 0 to ``SEEDS`` - 1 and writes
``perfbench/refusals.json``: per seed, ``workloads.refusal_mask`` of the
outcomes in hex.  ``check_build`` counts every request whose refusal
differs from the pinned one as a verdict error.
"""
from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEEDS = 128


def main() -> int:
    seeds = {}
    for seed in range(SEEDS):
        inputs = dict(gen.build_inputs(seed), classical=[])
        seeds[str(seed)] = format(workloads.refusal_mask(workloads.run_build(inputs)), "x")
    doc = {
        "about": "Per build seed: bit 4k+i is set when presheaf pair k's request "
                 "workloads.PRESHEAF_OPS[i] was refused.  Written by pin_refusals.py.",
        "commit": run.git_commit(),
        "seeds": seeds,
    }
    with open(os.path.join(HERE, "refusals.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
