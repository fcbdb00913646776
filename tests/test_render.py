"""``describe`` and ``export_dot`` against the helpers they replaced, which
formatted an element once per cover it is in and found each cover's ends
by ``FinPoset.index``."""
from liftdom import cli, dot
from liftdom.backend import ClassicalBackend, PresheafBackend
from liftdom.model import default_model
from liftdom.order import FinPoset, posets_upto
from liftdom.presheaf import InternalPoset
from liftdom.report import fmt
from liftdom.tensor import seal_tensor, smash, strict_hom

import support


def reference_describe(obj) -> str:
    if isinstance(obj, FinPoset):
        lines = [f"{obj.n} elements: {', '.join(fmt(e) for e in obj.elements)}"]
        covers = support.covers(obj)
        if covers:
            lines.append("covers: " + ", ".join(f"{fmt(x)} < {fmt(y)}" for x, y in covers))
        else:
            lines.append("covers: none (discrete)")
        b = obj.bottom()
        lines.append(f"bottom: {fmt(b) if b is not None else 'none'}")
        return "\n".join(lines)
    assert isinstance(obj, InternalPoset)
    lines = []
    for p in obj.base.stages:
        P = obj.stage_poset(p)
        covers = ", ".join(f"{fmt(x)} < {fmt(y)}" for x, y in support.covers(P)) or "discrete"
        lines.append(f"stage {p}: {len(P.elements)} elements "
                     f"[{', '.join(fmt(e) for e in P.elements)}]; {covers}")
    return "\n".join(lines)


def reference_poset_body(P, prefix, lines, indent="  "):
    for i, e in enumerate(P.elements):
        lines.append(f"{indent}{prefix}{i} [label={dot._quote(fmt(e))}];")
    for x, y in support.covers(P):
        lines.append(f"{indent}{prefix}{P.index(x)} -> {prefix}{P.index(y)};")


def reference_export_dot(obj, monkeypatch) -> str:
    with monkeypatch.context() as m:
        m.setattr(dot, "_poset_body", reference_poset_body)
        return dot.export_dot(obj)


def rendered_objects():
    # every poset with at most 4 elements; the strict function space, smash
    # product and algebra tensor of every pair of pointed posets with at most
    # 3 elements; the lift of the default model's internal poset IP1
    objs = list(posets_upto(4))
    CL = ClassicalBackend()
    pointed = [P for P in posets_upto(3) if P.is_pointed()]
    for A in pointed:
        for B in pointed:
            objs += [strict_hom(CL, A, B)[0], smash(CL, A, B).obj, seal_tensor(CL, A, B)[0]]
    _, ip1 = default_model().lookup("IP1")
    objs.append(PresheafBackend(ip1.base).lift(ip1).obj)
    return objs


def test_describe_and_export_dot_match_references(monkeypatch):
    objs = rendered_objects()
    assert len(objs) == 25 + 3 * 16 + 1
    for obj in objs:
        assert cli.describe(obj) == reference_describe(obj)
        assert dot.export_dot(obj) == reference_export_dot(obj, monkeypatch)
