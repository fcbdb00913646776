"""Spans and counters for the traced run, installed from outside ``src/``.

``install`` replaces each named public function of the ``liftdom`` modules
(in every module that imported the name) and each named backend method
with a wrapper that returns exactly what the original returns.  Each call
opens a span with an id, a parent and start/end times; self time is the
span's duration minus the time covered by its child spans, accumulated as
the spans close.  Spans live in memory and are written as JSONL at the end.

Only spans of at least ``MIN_SPAN_S`` are kept for the JSONL file, so the
millions of microsecond calls to ``compose`` do not fill memory; their
calls and self time are still counted exactly.  A kept span's parent is at
least as long, so the kept spans always form a tree.
"""
from __future__ import annotations

import functools
import itertools
import json
import sys
import time
from collections import Counter, defaultdict

MIN_SPAN_S = 1e-3


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.stack: list = []  # open frames: [span id, name, child seconds]
        self.spans: list = []  # kept spans: (id, parent id, name, start, end)
        self.dropped = 0
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.missing: list = []
        self._ids = itertools.count(1)
        self._undo: list = []

    def wrap(self, fn, name: str, before=None, after=None, span=True, reentrant=True):
        """A wrapper recording ``name``; ``before(args)`` runs ahead of the
        call and ``after(args, result)`` after it returns.  With
        ``reentrant=False`` a direct recursive call is passed straight
        through, so only the outermost call is counted."""
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        stack, ids = self.stack, self._ids
        perf = time.perf_counter

        if not span:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[name] += 1
                if before is not None:
                    before(args)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not reentrant and stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            frame = [next(ids), name, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                calls[name] += 1
                self_s[name] += dur - frame[2]
                total_s[name] += dur
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += dur
                if dur >= MIN_SPAN_S:
                    self.spans.append((frame[0], parent[0] if parent else None, name, t0, t1))
                else:
                    self.dropped += 1
            if after is not None:
                after(args, result)
            return result

        return traced

    def timed(self, name: str, body):
        """Call ``body()`` inside a span named ``name``; returns its result."""
        return self.wrap(body, name)()

    def parent_name(self):
        return self.stack[-1][1] if self.stack else None

    def exclude(self, seconds: float):
        """Count ``seconds`` spent inside the open span, but not on its
        behalf, as child time, so that no span's self time includes it."""
        if self.stack:
            self.stack[-1][2] += seconds

    # -- installing and removing wrappers ------------------------------------
    def patch_function(self, modules, home, attr: str, name: str, **kw):
        """Wrap ``home.attr`` in every module of ``modules`` that holds it."""
        original = getattr(home, attr, None)
        if original is None:
            self.missing.append(name)
            return None
        wrapper = self.wrap(original, name, **kw)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original, True))
        return original

    def patch_method(self, cls, attr: str, name: str, **kw):
        """Wrap ``cls.attr`` for this class only (inherited methods too)."""
        original = getattr(cls, attr, None)
        if original is None:
            self.missing.append(name)
            return None
        own = attr in vars(cls)
        setattr(cls, attr, self.wrap(original, name, **kw))
        self._undo.append((cls, attr, original, own))
        return original

    def uninstall(self):
        for obj, key, original, own in reversed(self._undo):
            if own:
                setattr(obj, key, original)
            else:
                delattr(obj, key)
        self._undo.clear()

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"run": self.run_id, "id": sid, "parent": parent,
                                     "name": name, "start": t0, "end": t1}) + "\n")


def liftdom_modules():
    return [m for k, m in sorted(sys.modules.items())
            if (k == "liftdom" or k.startswith("liftdom.")) and m is not None]


# (module, attribute, metric prefix) of every wrapped public function.
FUNCTIONS = (
    ("order", "compose", "order.compose"),
    ("order", "enumerate_monotone_maps", "order.enumerate_monotone_maps"),
    ("order", "all_posets", "order.all_posets"),
    ("order", "poset_iso", "order.poset_iso"),
    ("order", "quotient_poset", "order.quotient_poset"),
    ("presheaf", "kj_forces", "presheaf.kj_forces"),
    ("presheaf", "is_internal_dcpo", "presheaf.is_internal_dcpo"),
    ("presheaf", "internal_sup", "presheaf.internal_sup"),
    ("presheaf", "positive_members", "presheaf.positive_members"),
    ("presheaf", "enumerate_nat_trans", "presheaf.enumerate_nat_trans"),
    ("presheaf", "is_continuous", "presheaf.is_continuous"),
    ("colimits", "coproduct_algebras_universal_check", "colimits.coproduct_algebras_universal_check"),
    ("colimits", "creation_check", "colimits.creation_check"),
    ("colimits", "colimit_universal_check", "colimits.colimit_universal_check"),
    ("colimits", "enumerate_cocones", "colimits.enumerate_cocones"),
    ("tensor", "smash", "tensor.smash"),
    ("tensor", "seal_tensor", "tensor.seal_tensor"),
    ("tensor", "strict_hom", "tensor.strict_hom"),
    ("tensor", "universal_bistrict_check", "tensor.universal_bistrict_check"),
    ("lifting", "kz_check", "lifting.kz_check"),
    ("lifting", "strict_hom_set", "lifting.strict_hom_set"),
    ("lifting", "free_on_positives_check", "lifting.free_on_positives_check"),
    ("oq1", "search_open_question_1", "oq1.search"),
    ("oq1", "reverify_failure", "oq1.reverify_failure"),
)
BACKEND_METHODS = ("lift", "product", "coequalizer", "exponential", "hom", "iso")
BACKENDS = (("ClassicalBackend", "classical"), ("PresheafBackend", "presheaf"))


def install(tracer: Tracer) -> dict:
    """Install every wrapper; returns the originals needed for cache stats."""
    import liftdom  # noqa: F401  (loads every module listed below)
    from liftdom import backend, order, presheaf

    mods = liftdom_modules()
    byname = {m.__name__.rsplit(".", 1)[-1]: m for m in mods}
    counts, maxima = tracer.counts, tracer.maxima
    hooks: dict = {
        "order.enumerate_monotone_maps": {"after": _out_counter(counts, maxima, "order.enumerate_monotone_maps")},
        "presheaf.enumerate_nat_trans": {"after": _out_counter(counts, maxima, "presheaf.enumerate_nat_trans")},
        "presheaf.kj_forces": {"reentrant": False},
    }
    originals = {}

    labeled_rows = getattr(order, "_labeled_rows", None)
    seen_n: set = set()

    def all_posets_after(args, result):
        n = args[0]
        if n in seen_n or labeled_rows is None:
            return
        seen_n.add(n)
        counts["order.all_posets.classes"] += len(result)
        counts["order.all_posets.labelled"] += len(labeled_rows(n))

    hooks["order.all_posets"] = {"after": all_posets_after}

    for modname, attr, name in FUNCTIONS:
        originals[name] = tracer.patch_function(mods, byname.get(modname), attr, name, **hooks.get(name, {}))

    # MonotoneMap validation runs in __post_init__: count it, no span.
    tracer.patch_method(order.MonotoneMap, "__post_init__", "order.MonotoneMap.validate", span=False)

    # Enumeration counters around the subpresheaf enumerators.
    def enumerated(args, result):
        counts["presheaf.subpresheaves_enumerated"] += len(result)

    def below_after(args, result):
        if tracer.parent_name() == "presheaf.directed_subpresheaves_below":
            counts["presheaf.directed_candidates"] += len(result)

    def directed_after(args, result):
        counts["presheaf.directed"] += len(result)

    tracer.patch_function(mods, presheaf, "_subpresheaves_on", "presheaf._subpresheaves_on",
                          span=False, after=enumerated)
    tracer.patch_function(mods, presheaf, "subpresheaves_below", "presheaf.subpresheaves_below",
                          span=False, after=below_after)
    tracer.patch_function(mods, presheaf, "directed_subpresheaves_below",
                          "presheaf.directed_subpresheaves_below", after=directed_after)

    # Backend constructions, per backend class; cache probes read the caches
    # before the call and never write them.
    def memo_before(args):
        bk, key = args[0], args[1]
        hit = key in getattr(bk, "_memo", {})
        counts["backend.memo.hits" if hit else "backend.memo.misses"] += 1

    def hom_before(args):
        bk, A, B = args
        hit = (A, B) in getattr(bk, "_hom_cache", {})
        counts["backend.hom.hits" if hit else "backend.hom.misses"] += 1

    for clsname, kind in BACKENDS:
        cls = getattr(backend, clsname)
        for meth in BACKEND_METHODS:
            kw = {"before": hom_before} if meth == "hom" else {}
            tracer.patch_method(cls, meth, f"backend.{kind}.{meth}", **kw)
        tracer.patch_method(cls, "memo", f"backend.{kind}.memo", span=False, before=memo_before)
    return originals


def _out_counter(counts, maxima, prefix):
    def after(args, result):
        n = len(result)
        counts[prefix + ".out"] += n
        if n > maxima[prefix + ".max_out"]:
            maxima[prefix + ".max_out"] = n
    return after
