"""Check reports: named results with element-level witnesses."""
from __future__ import annotations

import json
from dataclasses import dataclass, field

from .order import FinPoset, MonotoneMap, StructureError
from .presheaf import InternalPoset, NatTrans, Sieve

PASS, FAIL, UNAVAILABLE = "pass", "fail", "unavailable"


def fmt(x) -> str:
    """Deterministic, human-oriented rendering of elements and maps."""
    if x.__class__ is str:
        # most calls: the plain-string components of compound elements
        return x
    if isinstance(x, Sieve):
        return repr(x)
    if isinstance(x, tuple):
        if x and x[0] == "pr":
            return f"({fmt(x[1])},{fmt(x[2])})"
        if x and x[0] == "in":
            side = "inl" if x[1] == 0 else "inr"
            return f"{side}({fmt(x[2])})"
        if x and x[0] == "lf":
            if not x[1]:
                return "⊥"
            stages = ",".join(map(str, x[1]))
            vals = ",".join(fmt(v) for v in x[2])
            return f"⟨{stages}|{vals}⟩"
        if x and x[0] == "fn":
            return "fn[" + ",".join([fmt(v) for v in x[1:]]) + "]"
        return "(" + ",".join(fmt(v) for v in x) + ")"
    if isinstance(x, MonotoneMap):
        body = ",".join(f"{fmt(a)}→{fmt(b)}" for a, b in zip(x.dom.elements, x.values))
        return "{" + body + "}"
    if isinstance(x, NatTrans):
        parts = []
        for p in x.dom.base.stages:
            body = ",".join(
                f"{fmt(a)}→{fmt(x.apply(p, a))}" for a in x.dom.at(p)
            )
            parts.append(f"{p}:{{{body}}}")
        return "; ".join(parts)
    if isinstance(x, FinPoset):
        return f"poset[{','.join(fmt(e) for e in x.elements)}]"
    if isinstance(x, InternalPoset):
        parts = [f"{p}:[{','.join(fmt(e) for e in x.at(p))}]" for p in x.base.stages]
        return "ipo{" + "; ".join(parts) + "}"
    return str(x)


@dataclass
class InstanceReport:
    objects: str
    status: str
    witness: str | None = None


@dataclass
class CheckReport:
    law: str
    status: str
    instances: list = field(default_factory=list)
    bounds: dict = field(default_factory=dict)
    elapsed_ms: int = 0
    reason: str | None = None

    def __post_init__(self):
        if self.status == FAIL and not any(
            i.status == FAIL and i.witness for i in self.instances
        ):
            raise StructureError("witness", "a failing report needs a counterexample")
        if self.status == UNAVAILABLE and not self.reason and not any(
            i.status == UNAVAILABLE and i.witness for i in self.instances
        ):
            raise StructureError("witness", "an unavailable report needs a reason")

    def to_dict(self, zero_elapsed: bool = False) -> dict:
        return {
            "law": self.law,
            "status": self.status,
            "instances": [
                {"objects": i.objects, "status": i.status, "witness": i.witness}
                for i in self.instances
            ],
            "bounds": dict(sorted(self.bounds.items())),
            "elapsed_ms": 0 if zero_elapsed else self.elapsed_ms,
            **({"reason": self.reason} if self.reason else {}),
        }

    def to_json(self, zero_elapsed: bool = False) -> str:
        return json.dumps(self.to_dict(zero_elapsed=zero_elapsed), ensure_ascii=False, indent=2)


def aggregate_status(instances) -> str:
    statuses = {i.status for i in instances}
    if FAIL in statuses:
        return FAIL
    if UNAVAILABLE in statuses:
        return UNAVAILABLE
    return PASS


def make_report(law: str, instances, bounds: dict, elapsed_ms: int, reason=None) -> CheckReport:
    return CheckReport(
        law, aggregate_status(instances), list(instances), bounds, elapsed_ms, reason
    )
