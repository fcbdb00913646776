"""The liftdom command line.

Subcommands: check (run a named law or all of them), lift / smash /
tensor / hom (build objects from a model), search-oq1, export-dot.
Exit codes: 0 all pass, 1 failure found, 2 error or unavailable.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .backend import ClassicalBackend, PresheafBackend, UnavailableError
from .dot import export_dot
from .laws import REGISTRY, run_law
from .model import ModelError, ModelSpec, default_model, parse_model
from .oq1 import OQ1Bounds, search_open_question_1
from .order import FinPoset, StructureError
from .presheaf import InternalPoset
from .report import FAIL, PASS, UNAVAILABLE, CheckReport, aggregate_status, fmt

EXIT_PASS, EXIT_FAIL, EXIT_UNAVAILABLE = 0, 1, 2
# a run's exit code is that of its reports' aggregate status
EXIT_CODES = {PASS: EXIT_PASS, FAIL: EXIT_FAIL, UNAVAILABLE: EXIT_UNAVAILABLE}


def _load_model(path: str | None) -> ModelSpec:
    if path is None:
        return default_model()
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ModelError(f"cannot read the model file: {e}") from e
    return parse_model(text)


def _print_report(rep: CheckReport, as_json: bool):
    if as_json:
        print(rep.to_json())
        return
    print(f"[{rep.status.upper():11s}] {rep.law}  ({rep.elapsed_ms} ms)")
    for inst in rep.instances:
        mark = {PASS: "ok", FAIL: "FAIL", UNAVAILABLE: "n/a"}[inst.status]
        line = f"    {mark:4s} {inst.objects}"
        if inst.witness:
            line += f"  -- {inst.witness}"
        print(line)
    if rep.reason:
        print(f"    reason: {rep.reason}")


def _names_and_covers(P: FinPoset) -> tuple[str, str]:
    # each element formatted once, then reused in the list and every cover
    names = [fmt(e) for e in P.elements]
    covers = ", ".join(f"{names[i]} < {names[j]}" for i, j in P._cover_indices())
    return ", ".join(names), covers


def _describe_poset(P: FinPoset) -> str:
    names, covers = _names_and_covers(P)
    lines = [f"{P.n} elements: {names}", f"covers: {covers or 'none (discrete)'}"]
    b = P.bottom()
    lines.append(f"bottom: {fmt(b) if b is not None else 'none'}")
    return "\n".join(lines)


def _describe_ipo(A: InternalPoset) -> str:
    lines = []
    for p in A.base.stages:
        P = A.stage_poset(p)
        names, covers = _names_and_covers(P)
        lines.append(f"stage {p}: {P.n} elements [{names}]; {covers or 'discrete'}")
    return "\n".join(lines)


def describe(obj) -> str:
    """A poset or internal poset as text: its elements, Hasse covers and
    (for a poset) bottom, each element formatted once; anything else by
    ``fmt``."""
    if isinstance(obj, FinPoset):
        return _describe_poset(obj)
    if isinstance(obj, InternalPoset):
        return _describe_ipo(obj)
    return fmt(obj)


def _backend_for(kind: str, obj):
    if kind in ("posets", "maps"):
        return ClassicalBackend()
    if kind == "iposets":
        return PresheafBackend(obj.base)
    raise ModelError(f"objects of kind {kind!r} have no ambient category here")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="liftdom",
        description="finite-model workbench for the lifting construction on "
        "directed-complete partial orders, classical and presheaf-internal",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    lawlist = ", ".join(REGISTRY)
    epilog = "laws:\n" + "\n".join(
        f"  {law.name:24s} {law.statement}" for law in REGISTRY.values()
    )
    p_check = sub.add_parser(
        "check",
        help="run a named law (or 'all')",
        epilog=epilog,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p_check.add_argument("law", help=f"one of: all, {lawlist}")
    p_check.add_argument("--model", default=None, help="model file")
    p_check.add_argument("--backend", choices=["classical", "presheaf"], default=None)
    p_check.add_argument("--max-size", type=int, default=None, help="classical instance bound")
    p_check.add_argument("--json", action="store_true")

    for name in ("lift", "smash", "tensor", "hom"):
        p = sub.add_parser(name, help=f"compute a {name} of model objects")
        p.add_argument("objs", nargs=1 if name == "lift" else 2, metavar="OBJ")
        p.add_argument("--model", default=None)

    p_oq = sub.add_parser("search-oq1", help="bounded search for non-free-on-positives algebras")
    p_oq.add_argument("--max-base", type=int, default=2)
    p_oq.add_argument("--max-stage", type=int, default=3)
    p_oq.add_argument("--max-carrier", type=int, default=5)
    p_oq.add_argument("--json", action="store_true")

    p_dot = sub.add_parser("export-dot", help="emit a DOT rendering of a model object")
    p_dot.add_argument("obj")
    p_dot.add_argument("--model", default=None)

    args = ap.parse_args(argv)

    try:
        if args.cmd == "check":
            spec = _load_model(args.model)
            backends = (args.backend,) if args.backend else ("classical", "presheaf")
            if args.law != "all" and args.law not in REGISTRY:
                print(f"unknown law {args.law!r}; known: all, {lawlist}", file=sys.stderr)
                return EXIT_UNAVAILABLE
            reports = []
            for name in REGISTRY if args.law == "all" else [args.law]:
                b = REGISTRY[name].bounds
                if args.max_size is not None:
                    b = replace(b, max_size=args.max_size)
                reports.append(run_law(name, spec, b, backends))
            if args.json:
                print("[" + ",\n".join(r.to_json() for r in reports) + "]")
            else:
                for r in reports:
                    _print_report(r, as_json=False)
            return EXIT_CODES[aggregate_status(reports)]

        if args.cmd in ("lift", "smash", "tensor", "hom"):
            spec = _load_model(args.model)
            names = args.objs
            kinds_objs = [spec.lookup(n) for n in names]
            kinds = {k for k, _ in kinds_objs}
            if not kinds <= {"posets", "iposets"}:
                print("these commands operate on posets or internal posets", file=sys.stderr)
                return EXIT_UNAVAILABLE
            if len(kinds) > 1:
                print("objects must come from the same backend", file=sys.stderr)
                return EXIT_UNAVAILABLE
            kind = next(iter(kinds))
            bk = _backend_for(kind, kinds_objs[0][1])
            objs = [o for _, o in kinds_objs]
            if args.cmd == "lift":
                ld = bk.lift(objs[0])
                print(f"lift of {names[0]}:")
                print(describe(ld.obj))
            elif args.cmd == "smash":
                from .tensor import smash

                T = smash(bk, objs[0], objs[1])
                print(f"smash product {names[0]} (x) {names[1]}:")
                print(describe(T.obj))
            elif args.cmd == "tensor":
                from .tensor import seal_tensor

                Q, _q, _box = seal_tensor(bk, objs[0], objs[1])
                print(f"algebra tensor {names[0]} [x] {names[1]}:")
                print(describe(Q))
            else:  # hom
                from .tensor import strict_hom

                H, _ = strict_hom(bk, objs[0], objs[1])
                print(f"strict function space {names[0]} -o {names[1]}:")
                print(describe(H))
            return EXIT_PASS

        if args.cmd == "search-oq1":
            rep = search_open_question_1(
                OQ1Bounds(args.max_base, args.max_stage, args.max_carrier)
            )
            _print_report(rep, as_json=args.json)
            return EXIT_CODES[rep.status]

        if args.cmd == "export-dot":
            spec = _load_model(args.model)
            _, obj = spec.lookup(args.obj)
            print(export_dot(obj), end="")
            return EXIT_PASS
    except ModelError as e:
        print(f"model error: {e}", file=sys.stderr)
        return EXIT_UNAVAILABLE
    except UnavailableError as e:
        print(f"unavailable: {e.reason}", file=sys.stderr)
        return EXIT_UNAVAILABLE
    except StructureError as e:  # a construction refused the model's objects
        print(f"construction error: {e}", file=sys.stderr)
        return EXIT_UNAVAILABLE
    except BrokenPipeError:
        return EXIT_PASS
    return EXIT_UNAVAILABLE


if __name__ == "__main__":
    sys.exit(main())
