"""The three workloads, each a function from prepared inputs to verdicts.

Every workload returns a ``Result``: the number of verdicts attempted, the
ones that differ from the known answer (``errors``), and the zero-elapsed
rendering of every report or outcome, which ``digest`` hashes.  Oracles run
in ``check``, after the timed region, on what the timed region returned.

* ``suite``: ``check all`` on the bundled default model with both
  backends, then every negative control.  It is the command ROADMAP names
  first, and it asks the same few small objects the same questions over and
  over, so the caches hit often (the read side).  The colimit laws run at
  ``SUITE_APEX`` = 5 apexes instead of their registered 6: at 6 one cold
  pass takes about 100 s, and the benchmark must repeat it 22 times.
* ``oq1-deep``: the OQ1 search at ``OQ1_DEEP`` = (3, 3, 6), the deeper
  search ROADMAP wants; 698 distinct algebras, so the caches miss and grow.
* ``build``: a seeded stream of construction requests on distinct inputs
  (see ``gen``), handled the way the lift/smash/tensor/hom subcommands
  handle them (the write side).
"""
from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass, field, replace

import oracles

SUITE_APEX = 5
# (max_base, max_stage, max_carrier) of the deep OQ1 search.
OQ1_DEEP = (3, 3, 6)
# base -> (algebras searched, candidates), pinned at the seed commit.
OQ1_DEEP_COUNTS = {
    "base1.1": (12, 0), "base2.2": (144, 0), "base2.3": (94, 23), "base3.4": (162, 0),
    "base3.5": (99, 63), "base3.6": (71, 62), "base3.7": (68, 59), "base3.8": (48, 39),
}
WORKLOADS = ("suite", "oq1-deep", "build")


@dataclass
class Result:
    attempted: int = 0
    errors: list = field(default_factory=list)  # one line per wrong verdict
    rendered: list = field(default_factory=list)  # zero-elapsed report texts
    counts: dict = field(default_factory=dict)  # workload-level counters

    def digest(self) -> str:
        h = hashlib.sha256()
        for text in self.rendered:
            h.update(text.encode("utf-8"))
            h.update(b"\n")
        return h.hexdigest()


# ---------------------------------------------------------------------------
# suite

def run_suite(spec, laws=None, apex=SUITE_APEX, around_law=None):
    """Run every law then every negative control; returns the raw reports.

    ``around_law(label, body)`` lets the traced run time each law."""
    from liftdom import REGISTRY, run_law, run_negative

    laws = list(REGISTRY) if laws is None else laws
    call = around_law or (lambda label, body: body())
    reports = []
    for name in laws:
        bounds = replace(REGISTRY[name].bounds, apex=min(REGISTRY[name].bounds.apex, apex))
        reports.append(call(f"laws.{name}", lambda: run_law(name, spec, bounds, ("classical", "presheaf"))))
    negatives = call("laws.negatives", lambda: [run_negative(name) for name in laws])
    return reports, negatives


def check_suite(raw) -> Result:
    from liftdom.report import FAIL, PASS

    reports, negatives = raw
    res = Result(attempted=len(reports) + len(negatives))
    for rep in reports:
        if rep.status != PASS:
            res.errors.append(f"{rep.law}: {rep.status}, expected pass")
    for rep in negatives:
        witnessed = any(i.status == FAIL and i.witness for i in rep.instances)
        if rep.status != FAIL or not witnessed:
            res.errors.append(f"{rep.law}: {rep.status}, expected fail with a witness")
    res.rendered = [r.to_json(zero_elapsed=True) for r in reports + negatives]
    return res


# ---------------------------------------------------------------------------
# oq1-deep

def run_oq1(bounds=OQ1_DEEP):
    from liftdom import OQ1Bounds, search_open_question_1

    return search_open_question_1(OQ1Bounds(*bounds))


_SEARCHED = re.compile(r"^(base[\d.]+) \((\d+) algebras searched\)$")
_CANDIDATES = re.compile(r"^(\d+) candidate counterexamples$")


def check_oq1(rep, pinned=OQ1_DEEP_COUNTS) -> Result:
    from liftdom.report import FAIL, PASS, UNAVAILABLE

    res = Result(attempted=len(rep.instances))
    seen = {}
    hits: dict = {}
    for inst in rep.instances:
        if inst.status == UNAVAILABLE:
            res.errors.append(f"{inst.objects}: unavailable")
        elif inst.objects.startswith("classical"):
            if inst.status != PASS or inst.witness != "0 failures":
                res.errors.append(f"{inst.objects}: {inst.status} {inst.witness}")
        elif ":carrier#" in inst.objects:
            base = inst.objects.split(":")[0]
            hits[base] = hits.get(base, 0) + 1
            if inst.status != FAIL or not (inst.witness or "").startswith("confirmed candidate"):
                res.errors.append(f"{inst.objects}: not a confirmed candidate")
        else:
            m, c = _SEARCHED.match(inst.objects), _CANDIDATES.match(inst.witness or "")
            if m is None or c is None:
                res.errors.append(f"{inst.objects}: unexpected instance")
                continue
            seen[m.group(1)] = (int(m.group(2)), int(c.group(1)))
    for base, want in pinned.items():
        got = seen.get(base)
        if got != want or hits.get(base, 0) != want[1]:
            res.errors.append(f"{base}: searched/candidates {got}, {hits.get(base, 0)} hits; pinned {want}")
    res.counts = {
        "oq1.algebras_searched": sum(s for s, _ in seen.values()),
        "oq1.candidates": sum(c for _, c in seen.values()),
    }
    res.rendered = [rep.to_json(zero_elapsed=True)]
    return res


# ---------------------------------------------------------------------------
# build

CLASSICAL_OPS = ("lift", "smash", "tensor", "hom")
PRESHEAF_OPS = ("lift", "product", "smash", "hom")
REFUSALS_JSON = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refusals.json")


def pinned_refusals(seed):
    """The refusal_mask the program gave for ``seed`` at the seed commit
    (see pin_refusals.py), or None for a seed that was not pinned."""
    with open(REFUSALS_JSON, encoding="utf-8") as fh:
        mask = json.load(fh)["seeds"].get(str(seed))
    return None if mask is None else int(mask, 16)


def run_build(inputs):
    """Every request of the stream, in order; returns (request, outcome)
    pairs.  An outcome is ("ok", object, text) or ("unavailable", reason)."""
    from liftdom import BasePoset, ClassicalBackend, FinPoset, InternalPoset, PresheafBackend, UnavailableError
    from liftdom.cli import describe
    from liftdom.tensor import seal_tensor, smash, strict_hom

    out = []
    cl = ClassicalBackend()
    for k, ((ea, pa), (eb, pb)) in enumerate(inputs["classical"]):
        A, B = FinPoset(ea, pa), FinPoset(eb, pb)
        for op in CLASSICAL_OPS:
            if op == "lift":
                obj = cl.lift(A).obj
            elif op == "smash":
                obj = smash(cl, A, B).obj
            elif op == "tensor":
                obj = seal_tensor(cl, A, B)[0]
            else:
                obj = strict_hom(cl, A, B)[0]
            out.append((("classical", k, op), ("ok", obj, describe(obj))))
    backends: dict = {}
    for k, (base_name, (stages, leq), a, b) in enumerate(inputs["presheaf"]):
        if base_name not in backends:
            backends[base_name] = PresheafBackend(BasePoset(FinPoset(stages, leq)))
        bk = backends[base_name]
        A = InternalPoset.make(bk.base, a["sets"], a["res"], a["orders"])
        B = InternalPoset.make(bk.base, b["sets"], b["res"], b["orders"])
        for op in PRESHEAF_OPS:
            try:
                if op == "lift":
                    obj = bk.lift(A).obj
                elif op == "product":
                    obj = bk.product(A, B).obj
                elif op == "smash":
                    obj = smash(bk, A, B).obj
                else:
                    obj = strict_hom(bk, A, B)[0]
                outcome = ("ok", obj, describe(obj))
            except UnavailableError as e:
                outcome = ("unavailable", e.reason)
            out.append(((base_name, k, op), outcome))
    return out


def refusal_mask(outcomes) -> int:
    """Bit 4k+i is set when presheaf pair k's request PRESHEAF_OPS[i] was refused."""
    mask = 0
    for (family, k, op), outcome in outcomes:
        if family != "classical" and outcome[0] != "ok":
            mask |= 1 << (len(PRESHEAF_OPS) * k + PRESHEAF_OPS.index(op))
    return mask


def check_build(inputs, outcomes) -> Result:
    """The oracles on every outcome; for a pinned seed, also the exact set
    of refused requests.  For other seeds only the oracles' rule
    holds: only the smash over an ordered base may refuse."""
    res = Result(attempted=len(outcomes))
    for (family, k, op), outcome in outcomes:
        res.rendered.append(f"{family}#{k} {op}: " + (outcome[2] if outcome[0] == "ok" else outcome[1]))
        if family == "classical":
            a, b = inputs["classical"][k]
            why = oracles.classical(op, a, b, outcome[1])
        else:
            _, base, a, b = inputs["presheaf"][k]
            why = oracles.presheaf(op, base, a, b, outcome)
        if why:
            res.errors.append(f"{family}#{k} {op}: {why}")
    pinned = pinned_refusals(inputs.get("seed"))
    if pinned is not None:
        diff = pinned ^ refusal_mask(outcomes)
        for bit in range(diff.bit_length()):
            if diff >> bit & 1:
                k, op = divmod(bit, len(PRESHEAF_OPS))
                want = "refused" if pinned >> bit & 1 else "built"
                res.errors.append(f"presheaf#{k} {PRESHEAF_OPS[op]}: pinned as {want}, got the other")
    return res
