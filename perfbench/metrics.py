"""Metric names, units and directions, and the per-layer values of a trace.

Names, units and directions are read from ``BENCHMARK.json``.  Which
end-to-end metric each layer metric should move, and on which workload:

* ``order.*`` moves ``wall_s`` on ``suite`` and ``build``, barely on
  ``oq1-deep``;
* ``presheaf.*`` moves ``wall_s`` on ``oq1-deep``, and on ``build`` through
  its presheaf requests;
* ``backend.*`` hit ratios move ``wall_s`` on ``suite`` (high reuse) versus
  ``build`` (low reuse); ``backend.memo.entries`` moves ``peak_rss_mb`` on
  ``oq1-deep`` and ``build``;
* the ``colimits``/``tensor`` checks move ``wall_s`` on ``suite``, the
  constructions move it on ``build``, ``free_on_positives_check`` on
  ``oq1-deep``;
* ``laws.<law>.s`` shows which law a ``suite`` gain came from;
* ``oq1.*`` belongs to ``wall_s`` on ``oq1-deep``;
* ``model.parse_model.s`` moves ``setup_s``; ``report.digest`` (the first
  48 bits of the sha256 of every zero-elapsed report) shows drift in what
  the program reports;
* ``process.cpu_s``, ``trace.overhead_ratio`` and ``src.lines`` are
  recorded only.
"""
from __future__ import annotations

import json
import os

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")


def declared(kind: str) -> list:
    """The ``end_to_end`` or ``per_layer`` entries of BENCHMARK.json."""
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        return json.load(fh)[kind]


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_values(tracer, originals) -> dict:
    """Per-layer values taken from a finished trace (without the five that
    the runner adds: parse time, digest, CPU time, overhead ratio and
    source lines)."""
    c, calls, self_s, total_s = tracer.counts, tracer.calls, tracer.self_s, tracer.total_s
    out = {}
    for name in (m["name"] for m in declared("per_layer")):
        if name.endswith(".calls"):
            out[name] = calls[name[:-len(".calls")]]
        elif name.endswith(".self_s"):
            out[name] = self_s[name[:-len(".self_s")]]
        elif name.startswith("laws."):
            out[name] = total_s[name[:-len(".s")]]
    dcpo = originals.get("presheaf.is_internal_dcpo")
    info = dcpo.cache_info() if hasattr(dcpo, "cache_info") else None
    out.update({
        "order.enumerate_monotone_maps.maps_out": c["order.enumerate_monotone_maps.out"],
        "order.enumerate_monotone_maps.max_out": tracer.maxima["order.enumerate_monotone_maps.max_out"],
        "order.all_posets.useful_ratio": _ratio(c["order.all_posets.classes"], c["order.all_posets.labelled"]),
        "presheaf.is_internal_dcpo.hit_ratio": _ratio(info.hits, info.hits + info.misses) if info else 0.0,
        "presheaf.subpresheaves_enumerated": c["presheaf.subpresheaves_enumerated"],
        "presheaf.directed_ratio": _ratio(c["presheaf.directed"], c["presheaf.directed_candidates"]),
        "presheaf.enumerate_nat_trans.out": c["presheaf.enumerate_nat_trans.out"],
        "backend.memo.hit_ratio": _ratio(c["backend.memo.hits"], c["backend.memo.hits"] + c["backend.memo.misses"]),
        "backend.hom.hit_ratio": _ratio(c["backend.hom.hits"], c["backend.hom.hits"] + c["backend.hom.misses"]),
        "backend.memo.entries": c["backend.memo.misses"],
        "oq1.algebras_searched": c["oq1.algebras_searched"],
        "oq1.candidates": c["oq1.candidates"],
    })
    return out
