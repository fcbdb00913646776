"""The named law suite: registry, runners, and negative controls.

Each law is data: a name, a one-line statement of the claim it checks, the
default bounds it runs at, a runner producing per-instance results over
the model plus generated families, and a negative control that corrupts
exactly one ingredient and must make the same verification fail with an
element-level witness.  CLI help and docs are generated from this table.

Runners yield their instance reports.  A check contributes a witness: None
when it holds, otherwise a short text.  ``_verdict`` turns one witness into
a report line, and ``_exhaust`` turns a bounded family of them into either
its failing cases or a single PASS line for the whole family.

A runner declares its lanes through ``_lanes``: per backend, a lazy family
of named cases built from the backend, the model and the bounds; one
checker ``(bk, *case) -> witness``; and an optional summary, which makes
each family one ``_exhaust`` line.  ``_lanes`` alone decides whether a lane
runs (its field of the ``Backends`` record is None when the run leaves it
out), which base the presheaf lane uses (the Sierpinski base), and how its
cases are reported.  ``_seq`` joins such runners in report order.  The few
runners that do not fit stay hand-written and say why in their docstrings.
Controls always get both backends.  ``run_law`` and ``run_negative`` make
a fresh record for each call, so every cache a law fills lives no longer
than the law.
"""
from __future__ import annotations

import itertools
import random
import time
from dataclasses import asdict, dataclass, replace
from functools import cache
from typing import Callable

from . import colimits as co
from . import lifting as li
from . import tensor as te
from .backend import ClassicalBackend, LiftData, PresheafBackend, UnavailableError, sierpinski_base
from .model import ModelSpec, default_model
from .order import (
    FinPoset,
    MonotoneMap,
    StructureError,
    Subset,
    directed_subsets,
    lub,
    poset_iso,
    posets_upto,
    quotient_poset,
    semidirected_subsets,
)
from .presheaf import BasePoset, InternalPoset, global_elements_raw, omega
from .report import FAIL, PASS, UNAVAILABLE, CheckReport, InstanceReport, fmt, make_report


@dataclass(frozen=True)
class Backends:
    """The backends one law is checked in, made fresh for each run with
    only its lanes; a lane left out of the run is None."""

    classical: ClassicalBackend | None
    presheaf: Callable[[BasePoset], PresheafBackend] | None  # base -> its backend, made once per base


@dataclass(frozen=True)
class Bounds:
    max_size: int = 5  # classical instance size
    competing: int = 4  # competing objects in universal-property exhaustion
    apex: int = 6  # competing apexes for colimit checks
    base_stages: int = 2  # presheaf base size for generated instances

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class Law:
    name: str
    statement: str
    bounds: Bounds
    runner: Callable  # (spec, bounds, Backends) -> iterable of InstanceReport
    negative: Callable  # (Backends) -> list[InstanceReport], at least one FAIL


def _gen_posets(n, pointed=False):
    return [(f"gen{'P' if pointed else ''}{P.n}.{i}", P) for i, P in enumerate(posets_upto(n, pointed=pointed))]


def _pairs(gens, label):
    """Every ordered pair of named objects, named ``label.format(first, second)``."""
    return ((label.format(na, nb), A, B) for na, A in gens for nb, B in gens)


def _each_poset(pointed=False):
    """The family of generated posets up to ``max_size``, then the model's."""
    return lambda cl, spec, b: _gen_posets(b.max_size, pointed) + [
        (f"model:{name}", P)
        for name, P in spec.posets.items()
        if P.n <= b.max_size and (not pointed or P.is_pointed())
    ]


def _each_pair(label, pointed=False):
    """The family of ordered pairs of generated posets up to ``max_size``."""
    return lambda cl, spec, b: _pairs(_gen_posets(b.max_size, pointed), label)


def _each_map(pointed=False):
    """The family of maps between generated posets up to ``max_size``, named by their ends."""
    return lambda cl, spec, b: (
        (name, f) for name, A, B in _pairs(_gen_posets(b.max_size, pointed), "{}->{}") for f in cl.hom(A, B)
    )


def _witness(result):
    """The formatted witness of a failed ``(ok, witness)`` check, else None."""
    ok, w = result
    return None if ok else fmt(w)


def _verdict(name, witness):
    """PASS, or FAIL with the witness."""
    return InstanceReport(name, PASS) if witness is None else InstanceReport(name, FAIL, witness)


def _exhaust(results, summary):
    """The failing ``(name, witness)`` cases, or one PASS line named ``summary``;
    UNAVAILABLE when the bounds leave no case, since checking nothing proves nothing."""
    bad, checked = [], 0
    for checked, (name, w) in enumerate(results, 1):
        if w is not None:
            bad.append(InstanceReport(name, FAIL, w))
    if not checked:
        return [InstanceReport(summary, UNAVAILABLE, "no cases within the bounds")]
    return bad or [InstanceReport(summary, PASS)]


def _attempt(name, check, refusals=(UnavailableError,)):
    """The verdict of ``check()``, or UNAVAILABLE with the reason a construction was refused."""
    try:
        return _verdict(name, check())
    except refusals as e:
        return InstanceReport(name, UNAVAILABLE, str(e))


def _sierpinski(bk):
    """The presheaf lane's backend, over the Sierpinski base; None when the run leaves the lane out."""
    return bk.presheaf and bk.presheaf(sierpinski_base())


def _lanes(check, classical=None, presheaf=None, summary=None, cap=None):
    """The runner that checks ``check(bk, *case)`` on every case of its lanes.

    ``classical`` and ``presheaf`` are families ``(bk, spec, bounds) ->
    (name, *case)``, kept lazy; a lane runs when the law gives its family
    and the run selects its backend, the presheaf one over the Sierpinski
    base.  ``cap`` bounds ``max_size`` before the families see it.  Without
    a ``summary`` each case is a line of its own; with one, each lane is one
    ``_exhaust`` family, its summary formatted with the capped size ``n``."""

    def run(spec, b: Bounds, bk):
        if cap is not None:
            b = replace(b, max_size=min(b.max_size, cap))
        for family, lane in ((classical, bk.classical), (presheaf, presheaf and _sierpinski(bk))):
            if family and lane:
                results = ((name, check(lane, *case)) for name, *case in family(lane, spec, b))
                if summary is None:
                    yield from (_verdict(name, w) for name, w in results)
                else:
                    yield from _exhaust(results, summary.format(n=b.max_size))

    return run


def _seq(*runners):
    """The runner that yields the lines of each runner in turn."""

    def run(spec, b: Bounds, bk):
        for runner in runners:
            yield from runner(spec, b, bk)

    return run


def _control(name, caught, witness):
    """A negative control's report: FAIL when the corruption was caught."""
    return [InstanceReport(name, FAIL if caught else PASS, witness)]


# ---------------------------------------------------------------------------
# kz-adjunction

def _kz_witness(bk, X):
    alg = li.algebra_structure(bk, X)
    if alg is None:
        return "pointed object without a structure map"
    ok, failures = li.kz_check(bk, alg)
    if not ok:
        return fmt(failures[0])
    structures = li.all_algebra_structures(bk, X)
    return None if structures == [alg.structure] else f"{len(structures)} structure maps found"


run_kz = _lanes(_kz_witness, classical=_each_poset(pointed=True),
                presheaf=lambda ps, spec, b: [("omega/2-chain-base", omega(ps.base))])


def _corrupted_fold(cl):
    """The 3-chain with a fold that sends its middle element to the top."""
    X = FinPoset.chain(3)
    ld = cl.lift(X)
    return X, MonotoneMap.make(ld.obj, X, lambda u: "c0" if ld.is_bot(None, u) else ("c2" if u == "c1" else u))


def neg_kz(bk):
    ok, failures = li.kz_check(bk.classical, li.Algebra(*_corrupted_fold(bk.classical)))
    return _control("corrupted fold on the 3-chain", not ok, fmt(failures[0]) if failures else None)


# ---------------------------------------------------------------------------
# scone-universal / sierpinski-cocomma / joint-epi / lax-epi

def _fake_scone_backend(junk=False):
    """A backend whose "lift" is coproduct-with-a-point (plus optional junk):
    the cone exists but is not universal."""

    class Fake(ClassicalBackend):
        def lift(self, X):
            base = super()
            obj = base.coproduct(base.terminal(), X).obj
            bot, eta = ("in", 0, "*"), (lambda a: ("in", 1, a))
            if junk:
                obj = base.coproduct(obj, base.terminal()).obj
                bot, eta = ("in", 0, bot), (lambda a: ("in", 0, ("in", 1, a)))
            return LiftData(
                obj,
                MonotoneMap.make(X, obj, eta),
                MonotoneMap.make(base.terminal(), obj, lambda _: bot),
                lambda st, u: () if u == bot else ((st, u),),
                lambda st, items: items[0][1] if items else bot,
            )

    return Fake()


def _universal(check):
    """The checker of a lift of A against competing objects by the lifting
    checker named ``check``, looked up when it runs, so a stubbed one is
    seen: a witness against the first competitor that fails, else None."""

    def witness(bk, A, competitors):
        for C in competitors:
            ok, w = getattr(li, check)(bk, A, C)
            if not ok:
                return f"against {fmt(C)}: {fmt(w)}"
        return None

    return witness


def _competing(cl, spec, b):
    """The family of ``_each_poset``, each with the competing posets."""
    competitors = posets_upto(b.competing)
    return ((name, A, competitors) for name, A in _each_poset()(cl, spec, b))


def _cone_law(check, control, junk):
    """The runner and the negative control of a law that the lifting
    checker named ``check`` decides for a lift against a competing object."""

    def negative(bk):
        ok, w = getattr(li, check)(_fake_scone_backend(junk), FinPoset.chain(2), FinPoset.chain(2))
        return _control(control, not ok, fmt(w))

    return _lanes(_universal(check), classical=_competing, cap=3), negative


run_scone, neg_scone = _cone_law(
    "scone_universal_check", "coproduct-with-a-point posing as the cone", junk=False
)
run_joint_epi, neg_joint_epi = _cone_law("joint_epi_check", "cone with a stray point", junk=True)
run_lax_epi, neg_lax_epi = _cone_law("lax_epi_check", "cone with a stray point", junk=True)


run_cocomma = _lanes(
    _universal("scone_universal_check"),
    classical=lambda cl, spec, b: [("sigma=lift(1)", cl.terminal(), posets_upto(b.competing))],
    presheaf=lambda ps, spec, b: [("omega-cocomma/2-chain-base", ps.terminal(), [
        ps.terminal(), omega(ps.base), InternalPoset.constant(ps.base, FinPoset.chain(2))
    ])],
)


def neg_cocomma(bk):
    fake = _fake_scone_backend()
    ok, w = li.scone_universal_check(fake, fake.terminal(), FinPoset.chain(2))
    return _control("two-antichain posing as sigma", not ok, fmt(w))


# ---------------------------------------------------------------------------
# open-classifier

run_open_classifier = _lanes(
    lambda bk, A: _witness(li.open_classifier_check(bk, A)), classical=_each_poset(), cap=4,
    presheaf=lambda ps, spec, b: [("terminal", ps.terminal()), ("omega", omega(ps.base))]
    + [(f"model:{name}", ip) for name, ip in spec.iposets.items() if ip.size() <= 4],
)


def neg_open_classifier(bk):
    # present a non-open (not up-closed) subset as an open of the 2-chain:
    # its characteristic map is not monotone
    try:
        ok, w = li.open_classifier_check(bk.classical, FinPoset.chain(2), opens=[{None: frozenset({"c0"})}])
    except StructureError as e:
        return _control("down-set posing as an open", True, str(e))
    return _control("down-set posing as an open", not ok, w)


# ---------------------------------------------------------------------------
# partial-product

def _partial_product_witness(bk, A, B):
    return _witness(li.partial_product_check(bk, A, B))


run_partial_product = _seq(
    _lanes(_partial_product_witness, classical=_each_pair("{}⇀{}"), summary="all pairs ≤ {n} classical", cap=3),
    _lanes(_partial_product_witness,
           presheaf=lambda ps, spec, b: [("1⇀1/2-chain-base", ps.terminal(), ps.terminal())]),
)


def neg_partial_product(bk):
    # drop one partial map from the enumeration: the count no longer matches
    cl = bk.classical
    A = FinPoset.chain(2)
    pms = li.enumerate_partial_maps(cl, A, A)[1:]
    totals = [li.partial_to_total(cl, pm) for pm in pms]
    homs = cl.hom(A, cl.lift(A).obj)
    return _control(
        "enumeration missing one span",
        set(totals) != set(homs),
        f"{len(totals)} spans vs {len(homs)} classifying maps",
    )


# ---------------------------------------------------------------------------
# conservative-L

def _named_conservativity_witness(bk, f):
    ok, w = li.conservativity_check(bk, f)
    return None if ok else f"{fmt(f)}: {fmt(w)}"


run_conservative = _seq(
    _lanes(lambda bk, f: _witness(li.conservativity_check(bk, f)),
           classical=lambda cl, spec, b: ((f"model:{name}", f) for name, f in spec.maps.items())),
    _lanes(_named_conservativity_witness, classical=_each_map(), summary="all maps between posets ≤ {n}", cap=3),
)


def neg_conservative(bk):
    # pair a map with the functorial image of a different map: the unit
    # square no longer commutes
    cl = bk.classical
    A = FinPoset.chain(2)
    f = MonotoneMap.make(A, A, lambda x: "c1")
    g = cl.identity(A)
    la = cl.lift(A)
    lg = cl.lift_map(g)
    square = cl.compose(lg, la.unit) == cl.compose(la.unit, f)
    return _control("mismatched square", not square, "unit square does not commute for the swapped pair")


# ---------------------------------------------------------------------------
# pointed-iff-algebra / pointed-iff-inductive / strict-iff-inductive /
# strict-iff-hom / monadicity-triple

def _pointed_algebra_witness(bk, X):
    """A structure map exists iff X is pointed, and it is then the only one."""
    pointed = bk.is_pointed(X)
    if (li.algebra_structure(bk, X) is not None) != pointed:
        return "structure map existence disagrees with pointedness"
    structures = li.all_algebra_structures(bk, X)
    return None if len(structures) == int(pointed) else f"{len(structures)} structure maps"


run_pointed_iff_algebra = _lanes(
    _pointed_algebra_witness, classical=_each_poset(), cap=4,
    presheaf=lambda ps, spec, b: [("omega", omega(ps.base)), ("terminal", ps.terminal())],
)


def neg_pointed_iff_algebra(bk):
    # a non-pointed object with a claimed fold: the laws must reject it
    X = FinPoset.antichain(2)
    ld = bk.classical.lift(X)
    candidate = MonotoneMap.make(ld.obj, X, lambda u: "a0")
    ok = li.is_algebra(bk.classical, X, candidate)
    return _control("constant fold on the 2-antichain", not ok, "unit law fails: fold(eta(a1)) = a0")


def _inductive_object(X, subsets=semidirected_subsets) -> bool:
    return all(lub(X, S) is not None for S in subsets(X))


def _pointed_inductive_witness(bk, X):
    return None if X.is_pointed() == _inductive_object(X) else "pointedness disagrees with semidirected completeness"


run_pointed_iff_inductive = _lanes(_pointed_inductive_witness, classical=_each_poset(), cap=4)


def neg_pointed_iff_inductive(bk):
    # corrupt the inductive side to quantify over directed subsets only:
    # the empty family is lost and the 2-antichain slips through
    X = FinPoset.antichain(2)
    return _control(
        "inhabitation dropped from the quantifier",
        _inductive_object(X, directed_subsets) != X.is_pointed(),
        "2-antichain: no bottom, yet every inhabited directed subset has a sup",
    )


def _preserves_sups(f, subsets=semidirected_subsets) -> bool:
    for S in subsets(f.dom):
        v = lub(f.dom, S)
        if v is None:
            continue
        w = lub(f.cod, Subset(f.cod, frozenset(f(x) for x in S.members)))
        if w is None or f(v) != w:
            return False
    return True


def _strict_inductive_witness(bk, f):
    return None if li.is_strict(bk, f) == _preserves_sups(f) else fmt(f)


run_strict_iff_inductive = _lanes(_strict_inductive_witness, classical=_each_map(pointed=True),
                                  summary="all maps between pointed posets ≤ {n}", cap=3)


def neg_strict_iff_inductive(bk):
    # against directed sups only, the constant-top endomap of the 2-chain
    # wrongly qualifies as inductive despite not being strict
    S = FinPoset.chain(2)
    f = MonotoneMap.make(S, S, lambda _: "c1")
    return _control(
        "empty family dropped from the comparison",
        li.is_strict(bk.classical, f) != _preserves_sups(f, directed_subsets),
        "const-top preserves all inhabited directed sups but moves bottom",
    )


def _strict_hom_witness(bk, f):
    return None if li.strict_iff_hom_check(bk, f) else fmt(f)


run_strict_iff_hom = _lanes(_strict_hom_witness, classical=_each_map(pointed=True),
                            summary="all maps between pointed posets ≤ {n}", cap=4)


def neg_strict_iff_hom(bk):
    # against a corrupted fold the equivalence breaks for the identity map
    cl = bk.classical
    X, bad = _corrupted_fold(cl)
    f = cl.identity(X)
    return _control(
        "corrupted fold on the codomain",
        li.is_strict(cl, f) != li.is_homomorphism(cl, f, cl.algebra_structure(X), bad),
        "identity is strict but fails the square against the corrupted fold",
    )


run_monadicity = _seq(
    run_pointed_iff_algebra,
    run_pointed_iff_inductive,
    _lanes(lambda bk, f: _strict_hom_witness(bk, f) or _strict_inductive_witness(bk, f),
           classical=_each_map(pointed=True), summary="map-level equivalences", cap=3),
)


# ---------------------------------------------------------------------------
# colimits

def _generated_diagrams(cl, max_carrier=3, count=24):
    """Deterministic connected algebra diagrams over pointed carriers."""
    rng = random.Random(20240811)
    carriers = posets_upto(max_carrier, pointed=True)
    shapes = [
        (("a",), ()),
        (("a", "b"), (("e0", "a", "b"),)),
        (("a", "b"), (("e0", "a", "b"), ("e1", "a", "b"))),
        (("a", "b", "c"), (("e0", "a", "b"), ("e1", "b", "c"))),
        (("a", "b", "c"), (("e0", "a", "b"), ("e1", "a", "c"))),
        (("a", "b", "c"), (("e0", "a", "c"), ("e1", "b", "c"))),
    ]
    out = []
    for _ in range(4000):
        if len(out) == count:
            break
        nodes, edges = shapes[rng.randrange(len(shapes))]
        objects = {n: carriers[rng.randrange(len(carriers))] for n in nodes}
        arrows = {}
        for name, s, t in edges:
            pool = li.strict_hom_set(cl, objects[s], objects[t])
            if not pool:
                break
            arrows[name] = pool[rng.randrange(len(pool))]
        else:
            out.append(co.Diagram(nodes, edges, objects, arrows))
    return out


def _each_diagram(cl, spec, b):
    """The family of ``_generated_diagrams``, each with the apexes up to ``apex``."""
    apexes = posets_upto(b.apex)
    for i, d in enumerate(_generated_diagrams(cl)):
        yield f"diagram#{i} ({len(d.nodes)} nodes/{len(d.edges)} edges)", d, apexes


run_connected_colimits = _lanes(lambda bk, d, apexes: _witness(co.creation_check(bk, d, apexes)),
                                classical=_each_diagram)


def neg_connected_colimits(bk):
    d = co.Diagram(("a", "b"), (), {"a": FinPoset.chain(1), "b": FinPoset.chain(1)}, {})
    ok, why = co.creation_check(bk.classical, d, posets_upto(2))
    return _control("disconnected diagram", not ok, str(why))


def run_algebras_cocomplete(spec, b: Bounds, bk):
    """Hand-written: a coproduct whose construction is refused is reported, and the law goes on."""
    if not (cl := bk.classical):
        return
    apexes = posets_upto(b.apex)
    S = FinPoset.chain(2)
    C3 = FinPoset.chain(3)
    for X, Y in [(S, S), (S, C3), (C3, C3), (S, FinPoset.chain(1))]:
        yield _attempt(
            f"coproduct {X.n}⊕{Y.n}",
            lambda: _witness(co.coproduct_algebras_universal_check(cl, X, Y, apexes)),
            (StructureError, UnavailableError),
        )
    # a connected piece, for the general-colimit claim
    yield _verdict("connected piece", _witness(co.creation_check(cl, _generated_diagrams(cl, count=4)[2], apexes)))


def neg_algebras_cocomplete(bk):
    # the plain coproduct (bottoms not glued) is not even pointed, so it
    # cannot be the coproduct in algebras
    S = FinPoset.chain(2)
    cd = bk.classical.coproduct(S, S)
    return _control(
        "plain coproduct posing as algebra coproduct",
        not bk.classical.is_pointed(cd.obj),
        "the apex has two minimal elements and no bottom",
    )


def _enriched_diagrams(cl, spec, b):
    """A pushout and a single node, each with the apexes up to ``apex``."""
    apexes = posets_upto(b.apex)
    S = FinPoset.chain(2)
    pt = FinPoset.chain(1)
    pushout = co.Diagram(
        ("a", "b"),
        (("e", "a", "b"),),
        {"a": pt, "b": S},
        {"e": MonotoneMap.make(pt, S, lambda _: "c0")},
    )
    return [("pushout instance", pushout, apexes), ("single node", co.Diagram(("a",), (), {"a": S}, {}), apexes)]


run_colimits_enriched = _lanes(
    lambda bk, d, apexes: _witness(co.colimits_enriched_check(bk, d, co.colimit(bk, d), apexes)),
    classical=_enriched_diagrams)


def neg_colimits_enriched(bk):
    # a non-surjective cone: comparisons can disagree outside the legs' image
    S = FinPoset.chain(2)
    d = co.Diagram(("a",), (), {"a": FinPoset.chain(1)}, {})
    fake = co.ColimitResult(S, {"a": MonotoneMap.make(FinPoset.chain(1), S, lambda _: "c0")}, None)
    ok, w = co.colimits_enriched_check(bk.classical, d, fake, [S])
    return _control("proper subobject posing as apex", not ok, fmt(w))


# ---------------------------------------------------------------------------
# tensor laws

def _presentations_witness(cl, A, B):
    tensors = te.smash_presentations(cl, A, B)
    # a spanning tree of comparisons suffices: the comparisons commute with
    # the universal maps, so by uniqueness of the factorisation a composite
    # of two of them is the third
    try:
        for T in tensors[1:]:
            te.smash_comparison(cl, tensors[0], T)
    except StructureError as e:
        return str(e)
    T = tensors[0].obj
    if poset_iso(T, te.direct_smash_classical(cl, A, B)) is None:
        return "disagrees with the direct quotient"
    return None if T.n == (A.n - 1) * (B.n - 1) + 1 else f"cardinality {T.n}"


def _small_pointed():
    """The pointed posets of at most 2 elements and the 3-chain."""
    return _gen_posets(2, pointed=True) + [("chain3", FinPoset.chain(3))]


def _universal_pairs(cl, spec, b):
    """The pairs of ``_small_pointed``, each with the pointed codomains to factor through."""
    codomains = posets_upto(min(b.competing, 4), pointed=True)
    return ((name, A, B, codomains) for name, A, B in _pairs(_small_pointed(), "universal {}⊗{}"))


run_smash_presentations = _seq(
    _lanes(_presentations_witness, classical=_each_pair("{}⊗{}", pointed=True),
           summary="four presentations agree for pointed pairs ≤ {n}", cap=5),
    _lanes(lambda bk, A, B, codomains: _witness(te.universal_bistrict_check(bk, te.smash(bk, A, B), codomains)),
           classical=_universal_pairs, summary="unique bistrict factorisation on the bounded range"),
)


def _half_smash(cl, A):
    """A x A with only the pairs whose left factor is bottom collapsed: a
    one-sided quotient, one element larger than the smash for the 2-chain."""
    seeds = [(("pr", "c0", x), ("pr", "c0", "c0")) for x in A.elements]
    return quotient_poset(cl.product(A, A).obj, seeds)[0]


def neg_smash_presentations(bk):
    # an unbalanced quotient (only left bottoms collapsed) is not the smash
    A = FinPoset.chain(2)
    Q = _half_smash(bk.classical, A)
    T = te.smash(bk.classical, A, A)
    return _control(
        "one-sided quotient posing as the smash", poset_iso(Q, T.obj) is None, f"{Q.n} elements vs {T.obj.n}"
    )


def _binary_maps(cl, spec, b):
    """Every map A x B -> C between pointed posets up to ``max_size``, with
    the bilinearity and bistrictness tests of its pair."""
    pointed = _gen_posets(b.max_size, pointed=True)
    for name, A, B in _pairs(pointed, "{},{}"):
        pd = cl.product(A, B)
        bilinear, bistrict = te.bilinearity(cl, A, B), te.bistrictness(cl, A, B)
        for nc, C in pointed:
            for f in cl.hom(pd.obj, C):
                yield f"{name}->{nc}", f, bilinear, bistrict


run_bistrict_iff_bilinear = _lanes(lambda bk, f, bilinear, bistrict: None if bistrict(f) == bilinear(f) else fmt(f),
                                   classical=_binary_maps, summary="exhaustive over pointed triples ≤ {n}", cap=3)


def neg_bistrict_iff_bilinear(bk):
    # fold the arguments against swapped structure maps: the meet map
    # stays bistrict but the corrupted square fails
    cl = bk.classical
    S = FinPoset.chain(3)
    S2 = FinPoset.chain(2)
    pd = cl.product(S, S2)
    meet = cl.mor_from_fn(pd.obj, S2, lambda st, x: "c1" if x[1] == "c2" and x[2] == "c1" else "c0")
    la, lb = cl.lift(S), cl.lift(S2)
    pd_l = cl.product(la.obj, lb.obj)
    kappa = li.commutator(cl, S, S2)
    alpha_c = cl.algebra_structure(S2)
    lhs = cl.compose(cl.compose(alpha_c, cl.lift_map(meet)), kappa)
    wrong_folds = cl.pair(
        pd,
        cl.compose(cl.algebra_structure(S), cl.compose(cl.lift_map(cl.identity(S)), pd_l.fst)),
        cl.compose(MonotoneMap.make(lb.obj, S2, lambda u: "c1"), pd_l.snd),
    )
    rhs = cl.compose(meet, wrong_folds)
    return _control(
        "corrupted fold in the bilinearity square",
        te.bistrictness(cl, S, S2)(meet) and lhs != rhs,
        "bistrict map fails the square with a constant-top fold",
    )


run_seal_iso = _seq(
    _lanes(lambda bk, S: _witness(te.seal_represents_bilinear_check(bk, S, S, posets_upto(3))),
           classical=lambda cl, spec, b: [("tensor represents bilinear maps", FinPoset.chain(2))]),
    _lanes(lambda bk, A, B: _witness(te.seal_iso_check(bk, A, B)), classical=_each_pair("{}⊠{}", pointed=True),
           summary="tensor ≅ smash for pointed pairs ≤ {n}", cap=3),
)


def neg_seal_iso(bk):
    A = FinPoset.chain(2)
    Q = te.seal_tensor(bk.classical, A, A)[0]
    halfsmash = _half_smash(bk.classical, A)
    return _control(
        "one-sided quotient posing as the tensor", poset_iso(Q, halfsmash) is None, f"{Q.n} vs {halfsmash.n} elements"
    )


def run_monoidal_adjunction(spec, b: Bounds, bk):
    """Hand-written: its presheaf case runs only without the classical lane; its coherence mixes checkers."""
    if cl := bk.classical:
        n = min(b.max_size, 3)
        yield from _exhaust(
            (
                (name, _witness(te.monoidal_adjunction_check(cl, A, B)))
                for name, A, B in _pairs(_gen_posets(n), "L{}⊗L{}")
            ),
            f"strong/lax symmetry for pairs ≤ {n}",
        )
        S = FinPoset.chain(2)
        coherence = [
            (name, None if te.triangle_check(cl, A, B) else "unitor triangle fails")
            for name, A, B in _pairs(_gen_posets(2, pointed=True), "triangle {},{}")
        ]
        coherence.append(("hexagon chain2", None if te.hexagon_check(cl, S, S, S) else "hexagon fails"))
        coherence.append(("pentagon chain2", None if te.pentagon_check(cl, S, S, S, S) else "pentagon fails"))
        yield from _exhaust(coherence, "coherence on 2-chains")
    if not bk.classical and (ps := _sierpinski(bk)):
        # only when the presheaf backend alone is selected: the smash of two
        # lifted objects needs a coequaliser the stagewise quotient cannot
        # deliver, so this instance reports unavailable rather than an
        # approximation, which would turn the default run unavailable
        one = ps.terminal()
        yield _attempt("1,1/2-chain-base", lambda: _witness(te.monoidal_adjunction_check(ps, one, one)))


def neg_monoidal_adjunction(bk):
    # replace the lifted swap with the identity: the symmetry square fails
    cl = bk.classical
    S = FinPoset.chain(2)
    la = cl.lift(S)
    T = te.smash(cl, la.obj, la.obj)
    kappa = li.commutator(cl, S, S)
    kbar = te.factor_bistrict(cl, T, kappa)
    beta_t = te.braiding(cl, la.obj, la.obj)
    wrong = cl.identity(cl.lift(cl.product(S, S).obj).obj)
    square = cl.compose(kbar, beta_t) == cl.compose(wrong, kbar)
    return _control(
        "identity posing as the lifted swap", not square, "symmetry square fails when the swap is dropped"
    )


run_tensor_hom = _seq(
    _lanes(lambda bk, S: _witness(te.tensor_hom_naturality_check(bk, S, S, S, S)),
           classical=lambda cl, spec, b: [("naturality on 2-chains", FinPoset.chain(2))]),
    _lanes(lambda bk, C, A, B: _witness(te.tensor_hom_adjunction_check(bk, C, A, B)),
           classical=lambda cl, spec, b: (
               (f"{nc}⊗{na}⊸{nb}", C, A, B)
               for (nc, C), (na, A), (nb, B) in itertools.product(_small_pointed(), repeat=3)
           ),
           summary="currying bijections verified"),
)


def neg_tensor_hom(bk):
    # currying with the first argument pinned to bottom loses information:
    # the roundtrip misses the universal map itself
    cl = bk.classical
    C, A = FinPoset.chain(2), FinPoset.chain(2)
    T = te.smash(cl, C, A)
    E = cl.exponential(A, T.obj)
    pd = cl.product(C, A)
    f = T.universal
    g_bad = cl.mor_from_fn(
        C, E.obj, lambda st, c: E.encode(st, {None: {a: cl.app(f, st, pd.pack(st, "c0", a)) for a in A.elements}})
    )
    back = cl.mor_from_fn(pd.obj, T.obj, lambda st, x: E.apply_elem(st, cl.app(g_bad, st, x[1]), st, x[2]))
    return _control(
        "currying with a pinned argument", back != f, "roundtrip collapses the first factor to its bottom"
    )


def run_homs_coincide(spec, b: Bounds, bk):
    """Hand-written: its classical family mixes two checkers, and a refused presheaf case is reported."""
    if cl := bk.classical:
        n = min(b.max_size, 3)
        cases = [
            (name, None if te.homs_coincide_check(cl, A, B) else "linear and strict members differ")
            for name, A, B in _pairs(_gen_posets(n, pointed=True), "{}⊸{}")
        ]
        S = FinPoset.chain(2)
        cases.append(("kock-criterion", None if te.kock_criterion_check(cl, S, S) else "extension map is not strict"))
        yield from _exhaust(cases, f"pointed pairs ≤ {n}")
    if ps := _sierpinski(bk):
        S = InternalPoset.constant(ps.base, FinPoset.chain(2))
        yield _attempt(
            "const-chain2/2-chain-base", lambda: None if te.homs_coincide_check(ps, S, S) else "members differ"
        )


def neg_homs_coincide(bk):
    # corrupt the extension: treating the fresh bottom as the top makes the
    # linear side differ from the strict one
    cl = bk.classical
    A = B = FinPoset.chain(2)
    E = cl.exponential(A, B)
    la = cl.lift(A)
    alpha_a = cl.algebra_structure(A)
    comps = {fe: {a: E.apply_elem(None, fe, None, a) for a in A.elements} for fe in E.obj.elements}
    strict_members = {fe for fe, comp in comps.items() if comp[A.bottom()] == B.bottom()}
    corrupt_members = {
        fe
        for fe, comp in comps.items()
        if all(
            comp[cl.app(alpha_a, None, u)] == ("c1" if la.is_bot(None, u) else comp[u]) for u in la.obj.elements
        )
    }
    return _control(
        "extension sending bottom to top",
        strict_members != corrupt_members,
        f"{len(strict_members)} strict vs {len(corrupt_members)} corrupted-linear",
    )


run_phoa = _lanes(lambda bk, Y: None if li.phoa_check(bk, Y) else "power by the walking arrow differs",
                  classical=_each_poset(), presheaf=lambda ps, spec, b: [("terminal/2-chain-base", ps.terminal())],
                  cap=4)


def neg_phoa(bk):
    cl = bk.classical
    Y = FinPoset.chain(2)
    sigma = cl.lift(cl.terminal())
    E = cl.exponential(sigma.obj, Y)
    full = cl.product(Y, Y)
    return _control(
        "full square posing as the arrow object",
        poset_iso(E.obj, full.obj) is None,
        f"{E.obj.n} function elements vs {full.obj.n} pairs",
    )


run_paths = _lanes(
    lambda bk, A, B: _witness(li.paths_check(bk, A, B)), summary="paths = pointwise order, A ≤ 2, B ≤ {n}", cap=3,
    classical=lambda cl, spec, b: (
        (f"{na}~>{nb}", A, B) for na, A in _gen_posets(2) for nb, B in _gen_posets(b.max_size)
    ),
)


def neg_paths(bk):
    ok, w = li.paths_check(_fake_scone_backend(junk=True), FinPoset.chain(1), FinPoset.chain(2))
    return _control("interval with a stray point", not ok, fmt(w))


def run_top_opfibration(spec, b: Bounds, bk):
    """Hand-written: its presheaf lane runs over the model's bases of at most ``base_stages`` stages."""
    if cl := bk.classical:
        yield _verdict("classical", None if li.top_opfibration_check(cl) else "comma is not a point")
    if bk.presheaf:
        for name, base in spec.bases.items():
            if base.poset.n <= b.base_stages:
                ok = li.top_opfibration_check(bk.presheaf(base))
                yield _verdict(f"base:{name}", None if ok else "comma is not a point")


def neg_top_opfibration(bk):
    # take the bottom truth value as the claimed top: its upper set is all
    # of sigma, not a point
    cl = bk.classical
    sigma = cl.lift(cl.terminal())
    members = {None: frozenset(s for s in sigma.obj.elements if sigma.obj.leq(sigma.bot_elem(None), s))}
    comma, _ = cl.subobject(sigma.obj, members)
    return _control(
        "bottom posing as the universal point",
        poset_iso(comma, cl.terminal()) is None,
        f"comma object has {comma.n} elements",
    )


def _positive_part_comparison_is_iso(bk, O) -> bool:
    """Whether lifting the map from the nonbottom part of the classifier
    O to the point gives an isomorphism."""
    P, _ = bk.subobject(O, {p: frozenset(s for s in O.at(p) if s.members) for p in bk.base.stages})
    return bk.is_iso(bk.lift_map(bk.bang(P)))


def run_nonboolean_lift(spec, b: Bounds, bk):
    """Hand-written: five different checks of one object, each its own line."""
    if not (ps := _sierpinski(bk)):
        return
    O = omega(ps.base)
    lone = ps.lift(ps.terminal())
    sizes_ok = len(O.at("s1")) == 3 and len(O.at("s0")) == 2 and len(global_elements_raw(O)) == 3
    yield _verdict("omega sizes 3/2, 3 points", None if sizes_ok else f"{len(O.at('s1'))}/{len(O.at('s0'))}")
    yield _verdict("lift(1) ≅ omega", None if ps.iso(lone.obj, O) is not None else "no natural iso found")
    two = ps.coproduct(ps.terminal(), ps.terminal())
    collapsed = ps.iso(lone.obj, two.obj) is not None
    yield _verdict("lift(1) ≇ 1+1", "iso found; lifting collapsed to a coproduct" if collapsed else None)
    iso = _positive_part_comparison_is_iso(ps, O)
    yield _verdict("lift(nonbottom part) ↛ lift(1) is not iso", "the comparison is an iso" if iso else None)
    ok, _ = li.free_on_positives_check(ps, O)
    yield _verdict("omega is free on its positive part", None if ok else "canonical extension is not iso")


def neg_nonboolean_lift(bk):
    # over the degenerate one-stage base the topos is boolean and the same
    # comparison IS an isomorphism: the phenomenon disappears
    ps = bk.presheaf(BasePoset(FinPoset(("s",), frozenset([("s", "s")]))))
    return _control(
        "degenerate one-stage base",
        _positive_part_comparison_is_iso(ps, omega(ps.base)),
        "comparison became invertible: booleanness kills the counterexample",
    )


def _misses_unit_pair(bk, k, la, lb) -> bool:
    """Whether k : LA x LB -> L(A x B) fails to send a pair of units to the unit."""
    pab = bk.product(la.unit.dom, lb.unit.dom)
    eta_pair = bk.pair(bk.product(la.obj, lb.obj), bk.compose(la.unit, pab.fst), bk.compose(lb.unit, pab.snd))
    return bk.compose(k, eta_pair) != bk.lift(pab.obj).unit


def _commutator_witness(bk, A, B):
    k1, k2 = li.commutator_both(bk, A, B)
    if k1 != k2:
        return "extension orders disagree"
    la, lb = bk.lift(A), bk.lift(B)
    if _misses_unit_pair(bk, k1, la, lb):
        return "commutator misses the unit pair"
    return None if te.bistrictness(bk, la.obj, lb.obj)(k1) else "commutator is not bistrict"


run_commutative_monad = _seq(
    _lanes(_commutator_witness, classical=_each_pair("{}×{}"),
           summary="extension orders agree for pairs ≤ {n}", cap=3),
    _lanes(lambda bk, A, B: None if te.kock_criterion_check(bk, A, B) else "extension map not strict",
           classical=lambda cl, spec, b: _pairs(_gen_posets(2, pointed=True), "kock {},{}"),
           summary="strict extension criterion on pointed pairs ≤ 2"),
    _lanes(_commutator_witness, presheaf=lambda ps, spec, b: [("1,1/2-chain-base", ps.terminal(), ps.terminal())]),
)


def neg_commutative_monad(bk):
    # twist the output of the commutator on one side only: the twisted map
    # no longer restricts to the unit pairing
    cl = bk.classical
    A = FinPoset.chain(2)
    twisted = cl.compose(cl.lift_map(li.swap_map(cl, A, A)), li.commutator(cl, A, A))
    la = cl.lift(A)
    return _control(
        "commutator twisted by a one-sided swap",
        _misses_unit_pair(cl, twisted, la, la),
        "twisted composite sends a unit pair to the swapped unit",
    )


# ---------------------------------------------------------------------------
# registry

REGISTRY: dict = {
    law.name: law
    for law in [
        Law(
            "kz-adjunction",
            "the structure map of every algebra is left adjoint to the unit, and is the unique structure map",
            Bounds(max_size=4),
            run_kz,
            neg_kz,
        ),
        Law(
            "scone-universal",
            "the lift of A is the universal lax cone over A: each lax square datum factors uniquely",
            Bounds(max_size=3, competing=4),
            run_scone,
            neg_scone,
        ),
        Law(
            "sierpinski-cocomma",
            "sigma is the cocomma object of the two points: global lax pairs classify maps out of it",
            Bounds(competing=4),
            run_cocomma,
            neg_cocomma,
        ),
        Law(
            "open-classifier",
            "Scott-open subobjects correspond to characteristic maps into the classifier, with the pullback property",
            Bounds(max_size=4),
            run_open_classifier,
            neg_open_classifier,
        ),
        Law(
            "partial-product",
            "spans with Scott-open domain correspond order-isomorphically to maps into the lift",
            Bounds(max_size=3),
            run_partial_product,
            neg_partial_product,
        ),
        Law(
            "joint-epi",
            "bottom and unit are jointly epimorphic out of every lift",
            Bounds(max_size=3, competing=4),
            run_joint_epi,
            neg_joint_epi,
        ),
        Law(
            "lax-epi",
            "restriction along bottom and unit is an order-embedding on hom posets",
            Bounds(max_size=3, competing=4),
            run_lax_epi,
            neg_lax_epi,
        ),
        Law(
            "conservative-L",
            "the unit naturality square is a pullback, so the lifting functor reflects isomorphisms",
            Bounds(max_size=3),
            run_conservative,
            neg_conservative,
        ),
        Law(
            "pointed-iff-algebra",
            "a dcpo carries an algebra structure exactly when it is pointed, and then a unique one",
            Bounds(max_size=4),
            run_pointed_iff_algebra,
            neg_pointed_iff_algebra,
        ),
        Law(
            "pointed-iff-inductive",
            "pointed = every semidirected subset has a supremum",
            Bounds(max_size=4),
            run_pointed_iff_inductive,
            neg_pointed_iff_inductive,
        ),
        Law(
            "strict-iff-inductive",
            "a map between pointed objects is strict exactly when it preserves semidirected suprema",
            Bounds(max_size=3),
            run_strict_iff_inductive,
            neg_strict_iff_inductive,
        ),
        Law(
            "strict-iff-hom",
            "a map between pointed objects is strict exactly when it is an algebra homomorphism",
            Bounds(max_size=4),
            run_strict_iff_hom,
            neg_strict_iff_hom,
        ),
        Law(
            "monadicity-triple",
            "algebras, pointed objects and inductive partial orders are the same subcategory",
            Bounds(max_size=4),
            run_monadicity,
            neg_strict_iff_hom,
        ),
        Law(
            "connected-colimits",
            "connected colimits of algebras are created by the forgetful functor",
            Bounds(max_size=3, apex=6),
            run_connected_colimits,
            neg_connected_colimits,
        ),
        Law(
            "algebras-cocomplete",
            "algebras have coproducts by a reflexive coequaliser, hence all finite colimits",
            Bounds(max_size=3, apex=6),
            run_algebras_cocomplete,
            neg_algebras_cocomplete,
        ),
        Law(
            "colimits-enriched",
            "colimit comparisons reflect the pointwise order along the legs",
            Bounds(max_size=3, apex=6),
            run_colimits_enriched,
            neg_colimits_enriched,
        ),
        Law(
            "smash-presentations",
            "the four coequaliser presentations of the smash product agree, match the direct quotient, and carry the universal bistrict map",
            Bounds(max_size=5, competing=4),
            run_smash_presentations,
            neg_smash_presentations,
        ),
        Law(
            "bistrict-iff-bilinear",
            "a binary map is bistrict exactly when it satisfies the commutator-against-folds square",
            Bounds(max_size=3),
            run_bistrict_iff_bilinear,
            neg_bistrict_iff_bilinear,
        ),
        Law(
            "seal-iso",
            "the algebra tensor and the smash product are isomorphic under the universal maps",
            Bounds(max_size=3),
            run_seal_iso,
            neg_seal_iso,
        ),
        Law(
            "monoidal-adjunction",
            "lifting is strong symmetric monoidal: the commutator descends to an iso, and both symmetry squares commute",
            Bounds(max_size=3),
            run_monoidal_adjunction,
            neg_monoidal_adjunction,
        ),
        Law(
            "tensor-hom",
            "smashing with A is left adjoint to the strict function space out of A",
            Bounds(max_size=3),
            run_tensor_hom,
            neg_tensor_hom,
        ),
        Law(
            "homs-coincide",
            "the strict and linear function spaces are the same subobject of the exponential",
            Bounds(max_size=3),
            run_homs_coincide,
            neg_homs_coincide,
        ),
        Law(
            "phoa",
            "maps out of sigma form the arrow object: the power by the walking arrow",
            Bounds(max_size=4),
            run_phoa,
            neg_phoa,
        ),
        Law(
            "paths",
            "there is at most one path between parallel maps, and one exists exactly when they compare",
            Bounds(max_size=3),
            run_paths,
            neg_paths,
        ),
        Law(
            "top-opfibration",
            "the top point into sigma is an opfibration: its walking-arrow power and comma are points",
            Bounds(),
            run_top_opfibration,
            neg_top_opfibration,
        ),
        Law(
            "nonboolean-lift",
            "over the 2-chain base the classifier is not free on its nonbottom part: the comparison onto the lifted point is not invertible",
            Bounds(),
            run_nonboolean_lift,
            neg_nonboolean_lift,
        ),
        Law(
            "commutative-monad",
            "both iterated extension orders give the same commutator, which is bistrict and restricts to the strength",
            Bounds(max_size=3),
            run_commutative_monad,
            neg_commutative_monad,
        ),
    ]
}


def _law(name: str) -> Law:
    if name not in REGISTRY:
        raise KeyError(f"unknown law {name!r}; known: {', '.join(REGISTRY)}")
    return REGISTRY[name]


def run_law(name: str, spec: ModelSpec | None = None, bounds: Bounds | None = None,
            backends=("classical", "presheaf")) -> CheckReport:
    """Run one named law over the model within bounds."""
    law = _law(name)
    spec = spec if spec is not None else default_model()
    b = bounds if bounds is not None else law.bounds
    negative = min(b.as_dict().values()) < 0
    if negative or max(b.max_size, b.apex, b.competing) > 6:
        reason = ("requested bounds are negative" if negative
                  else "requested bounds exceed the supported exhaustion range (6)")
        return make_report(name, [InstanceReport("bounds", UNAVAILABLE, None)], b.as_dict(), 0, reason)
    t0 = time.perf_counter()
    bk = Backends(ClassicalBackend() if "classical" in backends else None,
                  cache(PresheafBackend) if "presheaf" in backends else None)
    # the lines a runner yielded before it raised stay in the report
    instances = []
    try:
        for inst in law.runner(spec, b, bk):
            instances.append(inst)
    except UnavailableError as e:
        instances.append(InstanceReport("construction", UNAVAILABLE, e.reason))
    except StructureError as e:  # a construction rejected what the law built
        instances.append(InstanceReport("construction", FAIL, str(e)))
    elapsed = int((time.perf_counter() - t0) * 1000)
    reason = None
    if not instances:
        instances = [InstanceReport("no instances in scope", UNAVAILABLE, "nothing to check")]
        reason = "no instances in scope for the selected backends"
    return make_report(name, instances, b.as_dict(), elapsed, reason)


def run_negative(name: str) -> CheckReport:
    """Run the bundled negative control; the report must come back failing."""
    law = _law(name)
    t0 = time.perf_counter()
    instances = law.negative(Backends(ClassicalBackend(), cache(PresheafBackend)))
    elapsed = int((time.perf_counter() - t0) * 1000)
    return make_report(f"{name}:negative-control", instances, law.bounds.as_dict(), elapsed)

