"""Every fault against every law (ROADMAP item 4, step 2).

A negative control shows that a law fails on its own fault.  This matrix
runs each distinct fault of ``laws.REGISTRY`` through every law's runner at
``CONTROL_BOUNDS``, as ``run_negative`` does, and pins which laws catch it,
and which of those end on a ``construction`` line, that is, on a raise that
``laws._report`` turned into a FAIL.  A change that shrinks what a law
catches fails here even when every control still fails."""
from liftdom import laws
from liftdom.report import FAIL


def fault_name(law) -> str:
    """The factory behind ``law.fault``: ``laws._classical(f, *args)`` keeps
    f and its arguments in its closure; the one other fault is a lambda
    that calls a module-level factory."""
    f = law.fault
    cells = dict(zip(f.__code__.co_freevars, [c.cell_contents for c in f.__closure__ or ()]))
    if "fault" in cells:
        return cells["fault"].__name__ + ("(junk)" if cells["args"] else "")
    (name,) = [n for n in f.__code__.co_names if n.startswith("_")]
    return name


# fault -> (the laws that fail on it, the failing laws whose report ends on
# a construction line), both in registry order
MATRIX = {
    "_UnitAtBottom": (
        ["kz-adjunction", "scone-universal", "sierpinski-cocomma", "open-classifier", "joint-epi",
         "lax-epi", "conservative-L", "pointed-iff-algebra", "monadicity-triple", "connected-colimits",
         "algebras-cocomplete", "smash-presentations", "seal-iso", "monoidal-adjunction", "paths",
         "top-opfibration"],
        ["pointed-iff-algebra", "monadicity-triple", "monoidal-adjunction"],
    ),
    "_fake_scone_backend": (
        ["kz-adjunction", "scone-universal", "sierpinski-cocomma", "open-classifier", "partial-product",
         "conservative-L", "pointed-iff-algebra", "strict-iff-hom", "monadicity-triple",
         "connected-colimits", "algebras-cocomplete", "smash-presentations", "bistrict-iff-bilinear",
         "seal-iso", "monoidal-adjunction", "homs-coincide", "phoa", "paths", "commutative-monad"],
        ["kz-adjunction", "open-classifier", "partial-product", "conservative-L", "pointed-iff-algebra",
         "strict-iff-hom", "monadicity-triple", "connected-colimits", "algebras-cocomplete",
         "smash-presentations", "bistrict-iff-bilinear", "seal-iso", "monoidal-adjunction",
         "homs-coincide", "commutative-monad"],
    ),
    "_fake_scone_backend(junk)": (
        ["kz-adjunction", "scone-universal", "sierpinski-cocomma", "open-classifier", "partial-product",
         "joint-epi", "lax-epi", "conservative-L", "pointed-iff-algebra", "strict-iff-hom",
         "monadicity-triple", "connected-colimits", "algebras-cocomplete", "smash-presentations",
         "bistrict-iff-bilinear", "seal-iso", "monoidal-adjunction", "homs-coincide", "phoa", "paths",
         "commutative-monad"],
        ["kz-adjunction", "open-classifier", "conservative-L", "pointed-iff-algebra", "strict-iff-hom",
         "monadicity-triple", "connected-colimits", "algebras-cocomplete", "smash-presentations",
         "bistrict-iff-bilinear", "seal-iso", "monoidal-adjunction", "homs-coincide",
         "commutative-monad"],
    ),
    "_DropLastMap": (
        ["kz-adjunction", "scone-universal", "sierpinski-cocomma", "open-classifier", "partial-product",
         "pointed-iff-algebra", "monadicity-triple", "connected-colimits"],
        [],
    ),
    "_LiftMapAtBottom": (
        ["kz-adjunction", "conservative-L", "pointed-iff-algebra", "strict-iff-hom", "monadicity-triple",
         "connected-colimits", "algebras-cocomplete", "smash-presentations", "bistrict-iff-bilinear",
         "seal-iso", "monoidal-adjunction", "commutative-monad"],
        ["kz-adjunction", "pointed-iff-algebra", "monadicity-triple"],
    ),
    "_AlwaysPointed": (
        ["pointed-iff-algebra", "pointed-iff-inductive", "monadicity-triple", "connected-colimits",
         "algebras-cocomplete", "seal-iso", "monoidal-adjunction"],
        ["pointed-iff-algebra", "monadicity-triple", "connected-colimits", "seal-iso",
         "monoidal-adjunction"],
    ),
    "_BottomNamesTop": (
        ["kz-adjunction", "pointed-iff-algebra", "strict-iff-inductive", "strict-iff-hom",
         "monadicity-triple", "connected-colimits", "algebras-cocomplete", "smash-presentations",
         "bistrict-iff-bilinear", "seal-iso", "monoidal-adjunction", "homs-coincide",
         "commutative-monad"],
        ["kz-adjunction", "pointed-iff-algebra", "strict-iff-hom", "monadicity-triple",
         "smash-presentations", "bistrict-iff-bilinear", "seal-iso", "monoidal-adjunction",
         "homs-coincide"],
    ),
    "_FoldAtTop": (
        ["kz-adjunction", "pointed-iff-algebra", "strict-iff-hom", "monadicity-triple",
         "connected-colimits", "algebras-cocomplete", "smash-presentations", "bistrict-iff-bilinear",
         "seal-iso", "monoidal-adjunction", "homs-coincide", "commutative-monad"],
        ["kz-adjunction", "pointed-iff-algebra", "monadicity-triple", "monoidal-adjunction"],
    ),
    "_StrayPoint": (
        ["connected-colimits", "algebras-cocomplete", "colimits-enriched", "smash-presentations",
         "seal-iso", "monoidal-adjunction", "tensor-hom"],
        ["connected-colimits", "smash-presentations", "seal-iso", "monoidal-adjunction", "tensor-hom"],
    ),
    "_DropLastFunction": (["tensor-hom", "phoa"], []),
    "_boolean_presheaves": (["nonboolean-lift"], []),
}


def test_every_fault_against_every_law():
    faults = {}
    for law in laws.REGISTRY.values():
        faults.setdefault(fault_name(law), law.fault)
    assert len(faults) == 11 and set(faults) == set(MATRIX)
    model, b = laws._control_model(), laws.CONTROL_BOUNDS
    for name, factory in faults.items():
        caught, construction = [], []
        for law in laws.REGISTRY.values():
            report = laws._report(law.name, law.runner(model, b, factory()), b, until_fail=True)
            if report.status == FAIL:
                caught.append(law.name)
                if report.instances[-1].objects == "construction":
                    construction.append(law.name)
        assert caught, name
        assert (caught, construction) == MATRIX[name], name
