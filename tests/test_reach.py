"""Every function in ``src/liftdom`` serves a production entry point.

A fresh interpreter drives every law, control, the default OQ1 search, each
CLI subcommand and the package's exported functions under ``sys.setprofile``
and reports the code objects it entered.  A ``def`` that none of them enters
either leaves ``src/`` or stands on ``ALLOWED`` with its reason."""
import ast
import json
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path
from textwrap import dedent

import liftdom

SRC = Path(liftdom.__file__).resolve().parent

# Run with the profiler set before the package is imported, so that the
# functions that run at import time (the runners laws.py builds) count too.
# Prints, per module file of the package, the (name, first line) of every
# code object entered.
_DRIVER = r"""
import contextlib, io, json, os, sys
from dataclasses import replace

entered = set()


def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)


sys.setprofile(profile)
import liftdom
from liftdom import cli

with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    # every law under each lane selection at reduced bounds, and every control
    for law, entry in liftdom.REGISTRY.items():
        b = entry.bounds
        b = replace(b, max_size=min(b.max_size, 2), apex=min(b.apex, 3), competing=min(b.competing, 2))
        for backends in (("classical", "presheaf"), ("classical",), ("presheaf",)):
            liftdom.run_law(law, bounds=b, backends=backends)
        liftdom.run_negative(law)
    liftdom.search_open_question_1()
    spec = liftdom.default_model()
    liftdom.parse_model(liftdom.render_model(spec))
    # each CLI subcommand, on every model object and on an unknown name
    law = next(iter(liftdom.REGISTRY))
    for argv in (["check", law], ["check", law, "--json"], ["check", "NOPE"],
                 ["search-oq1", "--max-base", "1", "--max-stage", "2", "--max-carrier", "2"]):
        cli.main(argv)
    objs = list(spec.posets) + list(spec.iposets)
    for a in objs + ["NOPE"]:
        cli.main(["lift", a])
    for cmd in ("smash", "tensor", "hom"):
        for a in objs:
            for b in objs:
                cli.main([cmd, a, b])
    for name in spec.names() + ["NOPE"]:
        cli.main(["export-dot", name])
sys.setprofile(None)

root = os.path.dirname(liftdom.__file__)
out = {}
for code in entered:
    if os.path.dirname(code.co_filename) == root:
        out.setdefault(os.path.basename(code.co_filename), []).append((code.co_name, code.co_firstlineno))
print(json.dumps(out))
"""

# (module, qualified name) of a function that no entry point enters, and why
# it stays.  The list may only shrink: the gate caps its length, and fails on
# an entry that the driver reaches.
ALLOWED = {
    # dunders that Python calls implicitly: on assignment, and in messages
    # and debugging
    ("order", "FinPoset.__setattr__"): "the immutability guard; it runs only on a mistaken assignment",
    ("order", "FinPoset.__repr__"): "repr for debugging and assertion messages",
    ("order", "MonotoneMap.__repr__"): "repr for debugging and assertion messages",
    ("presheaf", "Sieve.__repr__"): "repr for debugging and assertion messages",
    ("presheaf", "NatTrans.__repr__"): "repr for debugging and assertion messages",
    # names perfbench/tracer.py patches (its missing-targets check needs
    # them), and what only they call
    ("colimits", "colimit_universal_check"): "patched by perfbench/tracer.py",
    ("presheaf", "directed_subpresheaves_below"): "patched by perfbench/tracer.py",
    ("presheaf", "internal_directed"): "called only by directed_subpresheaves_below",
    ("presheaf", "directedness_formula"): "called only by internal_directed",
    # backend-contract members that shared code calls on whichever backend it gets
    ("backend", "PresheafBackend.initial"): "backend contract: the classical initial object is reached",
    ("backend", "PresheafBackend._exponential.<locals>.encode"): "backend contract: ExpData.encode, reached classically",
}


def unreached(source: str, entered: set) -> list[tuple[str, int]]:
    """The functions defined in ``source`` whose code was never entered, as
    ``(qualified name, def line)``, given the ``(name, first line)`` of every
    code object that was.  A decorated function's code starts at its first
    decorator, not at its ``def``."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = child.decorator_list[0].lineno if child.decorator_list else child.lineno
                if (child.name, first) not in entered:
                    out.append((prefix + child.name, child.lineno))
                visit(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return out


def test_unreached_keys_functions_by_their_first_line():
    source = dedent(
        """\
        def plain():
            def dead():
                pass

        @staticmethod
        @lru_cache
        def decorated():
            pass
        """
    )
    namespace = {"lru_cache": lru_cache}
    exec(compile(source, "<reach>", "exec"), namespace)
    entered = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == "<reach>":
            entered.add((frame.f_code.co_name, frame.f_code.co_firstlineno))

    sys.setprofile(profile)
    try:
        namespace["plain"]()
        namespace["decorated"]()
    finally:
        sys.setprofile(None)
    # the decorated code starts at its first decorator (line 5), not at its
    # def (line 7); a nested def is reported when its enclosing one ran
    assert entered == {("plain", 1), ("decorated", 5)}
    assert unreached(source, entered) == [("plain.<locals>.dead", 2)]
    assert unreached(source, {("plain", 1), ("decorated", 7)}) == [
        ("plain.<locals>.dead", 2), ("decorated", 7)
    ]


def test_every_function_in_src_is_reached():
    src = str(SRC.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", _DRIVER],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, check=True, timeout=300,
    ).stdout
    entered = {file: {tuple(key) for key in keys} for file, keys in json.loads(out).items()}
    missed = {
        (path.stem, name): line
        for path in sorted(SRC.glob("*.py"))
        for name, line in unreached(path.read_text(encoding="utf-8"), entered.get(path.name, set()))
    }
    assert len(ALLOWED) <= 11
    stale = sorted(set(ALLOWED) - set(missed))
    assert stale == [], "reached now: drop from ALLOWED"
    assert sorted((f"{mod}.py:{line}", name) for (mod, name), line in missed.items() if (mod, name) not in ALLOWED) == []
