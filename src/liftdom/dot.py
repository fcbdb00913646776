"""Deterministic DOT export: Hasse edges only, stages as clusters."""
from __future__ import annotations

from .backend import UnavailableError
from .order import FinPoset, MonotoneMap
from .presheaf import InternalPoset, NatTrans
from .report import fmt


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _poset_body(P: FinPoset, prefix: str, lines: list, indent: str = "  "):
    for i, e in enumerate(P.elements):
        lines.append(f"{indent}{prefix}{i} [label={_quote(fmt(e))}];")
    for i, j in P._cover_indices():
        lines.append(f"{indent}{prefix}{i} -> {prefix}{j};")


def export_dot(obj) -> str:
    """Render a poset, an internal poset (one cluster per stage), or a map;
    refuse anything else with ``UnavailableError``."""
    lines = ["digraph G {", "  rankdir=BT;"]
    if isinstance(obj, FinPoset):
        _poset_body(obj, "n", lines)
    elif isinstance(obj, InternalPoset):
        for k, p in enumerate(obj.base.stages):
            lines.append(f"  subgraph cluster_{k} {{")
            lines.append(f"    label={_quote(str(p))};")
            _poset_body(obj.stage_poset(p), f"s{k}_", lines, "    ")
            lines.append("  }")
    elif isinstance(obj, MonotoneMap):
        for side, P in (("dom", obj.dom), ("cod", obj.cod)):
            lines.append(f"  subgraph cluster_{side} {{")
            lines.append(f'    label="{side}";')
            _poset_body(P, side[0], lines, "    ")
            lines.append("  }")
        for i, e in enumerate(obj.dom.elements):
            lines.append(f"  d{i} -> c{obj.cod.index(obj(e))} [style=dashed];")
    elif isinstance(obj, NatTrans):
        for k, p in enumerate(obj.dom.base.stages):
            lines.append(f"  subgraph cluster_{k} {{")
            lines.append(f"    label={_quote(str(p))};")
            D = obj.dom.stage_poset(p)
            C = obj.cod.stage_poset(p)
            _poset_body(D, f"s{k}d", lines, "    ")
            _poset_body(C, f"s{k}c", lines, "    ")
            for i, e in enumerate(D.elements):
                lines.append(
                    f"    s{k}d{i} -> s{k}c{C.index(obj.apply(p, e))} [style=dashed];"
                )
            lines.append("  }")
    else:
        raise UnavailableError(f"cannot export {type(obj).__name__}")
    lines.append("}")
    return "\n".join(lines) + "\n"
