"""The named law suite: registry, runners, and faults.

Each law is data: a name, a one-line statement of the claim it checks, the
default bounds it runs at, a runner producing per-instance results over
the model plus generated families, and a fault: the backends with exactly
one construction corrupted.  CLI help and docs are generated from this table.

Runners yield their instance reports.  A check contributes a witness: None
when it holds, otherwise a short text.  ``_verdict`` turns one witness into
a report line, and ``_exhaust`` turns a bounded family of them into its
failing cases, each as it is found, or a single PASS line for the whole
family.

A runner declares its lanes through ``_lanes``: per backend, a lazy family
of named cases built from the backend, the model and the bounds; one
checker ``(bk, *case) -> witness``; and an optional summary, which makes
each family one ``_exhaust`` line.  ``_lanes`` alone decides whether a lane
runs (its field of the ``Backends`` record is None when the run leaves it
out), which base the presheaf lane uses (the Sierpinski base), and how its
cases are reported.  ``_seq`` joins such runners in report order.  The few
runners that do not fit stay hand-written and say why in their docstrings.

A law's negative control is its own runner on its fault, at
``CONTROL_BOUNDS``: it must fail with a witness from the law's own checker,
while the same runner passes on honest backends at the same bounds.
``run_negative`` keeps the lines up to the first FAIL.  ``run_law`` and
``run_negative`` make a fresh record for each call, so every cache a law
fills lives no longer than the law.
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
from .backend import ClassicalBackend, CoeqData, LiftData, PresheafBackend, UnavailableError, sierpinski_base
from .model import ModelSpec, default_model
from .order import (
    FinPoset,
    MonotoneMap,
    StructureError,
    Subset,
    lub,
    posets_upto,
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
    fault: Callable  # () -> Backends with one construction corrupted; a lane it leaves alone is None


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
    """Each failing ``(name, witness)`` case as it is found, else one PASS line
    named ``summary``; UNAVAILABLE when the bounds leave no case, since
    checking nothing proves nothing."""
    checked = failed = 0
    for checked, (name, w) in enumerate(results, 1):
        if w is not None:
            failed = True
            yield InstanceReport(name, FAIL, w)
    if not checked:
        yield InstanceReport(summary, UNAVAILABLE, "no cases within the bounds")
    elif not failed:
        yield InstanceReport(summary, PASS)


def _attempt(name, check):
    """The verdict of ``check()``, or UNAVAILABLE with the reason a construction was refused."""
    try:
        return _verdict(name, check())
    except UnavailableError as e:
        return InstanceReport(name, UNAVAILABLE, str(e))


def _sierpinski(bk):
    """The presheaf lane's backend, over the Sierpinski base; None when the run leaves the lane out."""
    return bk.presheaf and bk.presheaf(sierpinski_base())


def _lanes(check, classical=None, presheaf=None, summary=None):
    """The runner that checks ``check(bk, *case)`` on every case of its lanes.

    ``classical`` and ``presheaf`` are families ``(bk, spec, bounds) ->
    (name, *case)``, kept lazy; a lane runs when the law gives its family
    and the run selects its backend, the presheaf one over the Sierpinski
    base.  Without a ``summary`` each case is a line of its own; with one,
    each lane is one ``_exhaust`` family, its summary formatted with the
    ``max_size`` it checked as ``n``."""

    def run(spec, b: Bounds, bk):
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


# ---------------------------------------------------------------------------
# scone-universal / sierpinski-cocomma / joint-epi / lax-epi

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


run_scone = _lanes(_universal("scone_universal_check"), classical=_competing)
run_joint_epi = _lanes(_universal("joint_epi_check"), classical=_competing)
run_lax_epi = _lanes(_universal("lax_epi_check"), classical=_competing)


run_cocomma = _lanes(
    _universal("scone_universal_check"),
    classical=lambda cl, spec, b: [("sigma=lift(1)", cl.terminal(), posets_upto(b.competing))],
    presheaf=lambda ps, spec, b: [("omega-cocomma/2-chain-base", ps.terminal(), [
        ps.terminal(), omega(ps.base), InternalPoset.constant(ps.base, FinPoset.chain(2))
    ])],
)


# ---------------------------------------------------------------------------
# open-classifier

run_open_classifier = _lanes(
    lambda bk, A: _witness(li.open_classifier_check(bk, A)), classical=_each_poset(),
    presheaf=lambda ps, spec, b: [("terminal", ps.terminal()), ("omega", omega(ps.base))]
    + [(f"model:{name}", ip) for name, ip in spec.iposets.items() if ip.size() <= b.max_size],
)


# ---------------------------------------------------------------------------
# partial-product

def _partial_product_witness(bk, A, B):
    return _witness(li.partial_product_check(bk, A, B))


run_partial_product = _seq(
    _lanes(_partial_product_witness, classical=_each_pair("{}⇀{}"), summary="all pairs ≤ {n} classical"),
    _lanes(_partial_product_witness,
           presheaf=lambda ps, spec, b: [("1⇀1/2-chain-base", ps.terminal(), ps.terminal())]),
)


# ---------------------------------------------------------------------------
# conservative-L

def _named_conservativity_witness(bk, f):
    ok, w = li.conservativity_check(bk, f)
    return None if ok else f"{fmt(f)}: {fmt(w)}"


run_conservative = _seq(
    _lanes(lambda bk, f: _witness(li.conservativity_check(bk, f)),
           classical=lambda cl, spec, b: ((f"model:{name}", f) for name, f in spec.maps.items())),
    _lanes(_named_conservativity_witness, classical=_each_map(), summary="all maps between posets ≤ {n}"),
)


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
    _pointed_algebra_witness, classical=_each_poset(),
    presheaf=lambda ps, spec, b: [("omega", omega(ps.base)), ("terminal", ps.terminal())],
)


def _inductive_object(X) -> bool:
    return all(lub(X, S) is not None for S in semidirected_subsets(X))


def _pointed_inductive_witness(bk, X):
    return None if bk.is_pointed(X) == _inductive_object(X) else "pointedness disagrees with semidirected completeness"


run_pointed_iff_inductive = _lanes(_pointed_inductive_witness, classical=_each_poset())


def _preserves_sups(f) -> bool:
    for S in semidirected_subsets(f.dom):
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
                                  summary="all maps between pointed posets ≤ {n}")


def _strict_hom_witness(bk, f):
    return None if li.strict_iff_hom_check(bk, f) else fmt(f)


run_strict_iff_hom = _lanes(_strict_hom_witness, classical=_each_map(pointed=True),
                            summary="all maps between pointed posets ≤ {n}")


run_monadicity = _seq(
    run_pointed_iff_algebra,
    run_pointed_iff_inductive,
    _lanes(lambda bk, f: _strict_hom_witness(bk, f) or _strict_inductive_witness(bk, f),
           classical=_each_map(pointed=True), summary="map-level equivalences ≤ {n}"),
)


# ---------------------------------------------------------------------------
# colimits

def _generated_diagrams(cl, max_carrier, count=24):
    """Deterministic connected algebra diagrams over the pointed carriers up to ``max_carrier``, if any."""
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
    for _ in range(4000 if carriers else 0):
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
    """The ``_generated_diagrams`` over carriers up to ``max_size``, each with the apexes up to ``apex``."""
    apexes = posets_upto(b.apex)
    for i, d in enumerate(_generated_diagrams(cl, b.max_size)):
        yield f"diagram#{i} ({len(d.nodes)} nodes/{len(d.edges)} edges)", d, apexes


run_connected_colimits = _lanes(lambda bk, d, apexes: _witness(co.creation_check(bk, d, apexes)),
                                classical=_each_diagram)


def _coproduct_witness(cl, X, Y, apexes):
    """The witness of the coproduct check, or the error of a construction
    that rejected what the check built: a fault, not a refusal."""
    try:
        return _witness(co.coproduct_algebras_universal_check(cl, X, Y, apexes))
    except StructureError as e:
        return str(e)


def run_algebras_cocomplete(spec, b: Bounds, bk):
    """Hand-written: a coproduct whose construction is refused is reported, and the law goes on."""
    if not (cl := bk.classical):
        return
    apexes = posets_upto(b.apex)
    S = FinPoset.chain(2)
    C3 = FinPoset.chain(3)
    for X, Y in [(S, S), (S, C3), (C3, C3), (S, FinPoset.chain(1))]:
        yield _attempt(f"coproduct {X.n}⊕{Y.n}", lambda: _coproduct_witness(cl, X, Y, apexes))
    # a connected piece, for the general-colimit claim
    pieces = _generated_diagrams(cl, b.max_size, count=4)
    yield (_verdict("connected piece", _witness(co.creation_check(cl, pieces[2], apexes))) if pieces[2:]
           else InstanceReport("connected piece", UNAVAILABLE, "no cases within the bounds"))


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


# ---------------------------------------------------------------------------
# tensor laws

def _presentations_witness(cl, A, B):
    # no later pair reads what this pair builds, so the law's memory stays
    # one pair's, not 625 pairs'
    with cl.scope():
        tensors = te.smash_presentations(cl, A, B)
        # a spanning tree of comparisons suffices: the comparisons commute
        # with the universal maps, so by uniqueness of the factorisation a
        # composite of two of them is the third
        try:
            for T in tensors[1:]:
                te.smash_comparison(cl, tensors[0], T)
        except StructureError as e:
            return str(e)
        if not te.matches_direct_smash(cl, tensors[0]):
            return "disagrees with the direct quotient"
        T = tensors[0].obj
        return None if T.n == (A.n - 1) * (B.n - 1) + 1 else f"cardinality {T.n}"


def _small_pointed():
    """The pointed posets of at most 2 elements and the 3-chain."""
    return _gen_posets(2, pointed=True) + [("chain3", FinPoset.chain(3))]


def _universal_pairs(cl, spec, b):
    """The pairs of ``_small_pointed``, each with the pointed codomains to factor through."""
    codomains = posets_upto(b.competing, pointed=True)
    return ((name, A, B, codomains) for name, A, B in _pairs(_small_pointed(), "universal {}⊗{}"))


run_smash_presentations = _seq(
    _lanes(_presentations_witness, classical=_each_pair("{}⊗{}", pointed=True),
           summary="four presentations agree for pointed pairs ≤ {n}"),
    _lanes(lambda bk, A, B, codomains: _witness(te.universal_bistrict_check(bk, te.smash(bk, A, B), codomains)),
           classical=_universal_pairs, summary="unique bistrict factorisation on the bounded range"),
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
                                   classical=_binary_maps, summary="exhaustive over pointed triples ≤ {n}")


run_seal_iso = _seq(
    _lanes(lambda bk, S: _witness(te.seal_represents_bilinear_check(bk, S, S, posets_upto(3))),
           classical=lambda cl, spec, b: [("tensor represents bilinear maps", FinPoset.chain(2))]),
    _lanes(lambda bk, A, B: _witness(te.seal_iso_check(bk, A, B)), classical=_each_pair("{}⊠{}", pointed=True),
           summary="tensor ≅ smash for pointed pairs ≤ {n}"),
)


def run_monoidal_adjunction(spec, b: Bounds, bk):
    """Hand-written: its presheaf case runs only without the classical lane; its coherence mixes checkers."""
    if cl := bk.classical:
        yield from _exhaust(
            (
                (name, _witness(te.monoidal_adjunction_check(cl, A, B)))
                for name, A, B in _pairs(_gen_posets(b.max_size), "L{}⊗L{}")
            ),
            f"strong/lax symmetry for pairs ≤ {b.max_size}",
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


def run_homs_coincide(spec, b: Bounds, bk):
    """Hand-written: its classical family mixes two checkers, and a refused presheaf case is reported."""
    if cl := bk.classical:
        cases = [
            (name, None if te.homs_coincide_check(cl, A, B) else "linear and strict members differ")
            for name, A, B in _pairs(_gen_posets(b.max_size, pointed=True), "{}⊸{}")
        ]
        S = FinPoset.chain(2)
        cases.append(("kock-criterion", None if te.kock_criterion_check(cl, S, S) else "extension map is not strict"))
        yield from _exhaust(cases, f"pointed pairs ≤ {b.max_size}")
    if ps := _sierpinski(bk):
        S = InternalPoset.constant(ps.base, FinPoset.chain(2))
        yield _attempt(
            "const-chain2/2-chain-base", lambda: None if te.homs_coincide_check(ps, S, S) else "members differ"
        )


run_phoa = _lanes(lambda bk, Y: None if li.phoa_check(bk, Y) else "power by the walking arrow differs",
                  classical=_each_poset(), presheaf=lambda ps, spec, b: [("terminal/2-chain-base", ps.terminal())])


run_paths = _lanes(
    lambda bk, A, B: _witness(li.paths_check(bk, A, B)), summary="paths = pointwise order, A ≤ 2, B ≤ {n}",
    classical=lambda cl, spec, b: (
        (f"{na}~>{nb}", A, B) for na, A in _gen_posets(2) for nb, B in _gen_posets(b.max_size)
    ),
)


def run_top_opfibration(spec, b: Bounds, bk):
    """Hand-written: its presheaf lane runs over the model's bases of at most ``base_stages`` stages."""
    if cl := bk.classical:
        yield _verdict("classical", None if li.top_opfibration_check(cl) else "comma is not a point")
    if bk.presheaf:
        for name, base in spec.bases.items():
            if base.poset.n <= b.base_stages:
                ok = li.top_opfibration_check(bk.presheaf(base))
                yield _verdict(f"base:{name}", None if ok else "comma is not a point")


def run_nonboolean_lift(spec, b: Bounds, bk):
    """Hand-written: five different checks of one object, each its own line."""
    if not (ps := _sierpinski(bk)):
        return
    O = omega(ps.base)
    lone = ps.lift(ps.terminal())
    sizes, points = "/".join(str(len(O.at(p))) for p in reversed(ps.base.stages)), len(global_elements_raw(O))
    yield _verdict("omega sizes 3/2, 3 points", None if (sizes, points) == ("3/2", 3) else f"{sizes}, {points} points")
    yield _verdict("lift(1) ≅ omega", None if ps.iso(lone.obj, O) is not None else "no natural iso found")
    two = ps.coproduct(ps.terminal(), ps.terminal())
    collapsed = ps.iso(lone.obj, two.obj) is not None
    yield _verdict("lift(1) ≇ 1+1", "iso found; lifting collapsed to a coproduct" if collapsed else None)
    # lift the map from the nonbottom part of O to the point
    P, _ = ps.subobject(O, {p: frozenset(s for s in O.at(p) if s.members) for p in ps.base.stages})
    iso = ps.is_iso(ps.lift_map(ps.bang(P)))
    yield _verdict("lift(nonbottom part) ↛ lift(1) is not iso", "the comparison is an iso" if iso else None)
    ok, _ = li.free_on_positives_check(ps, O)
    yield _verdict("omega is free on its positive part", None if ok else "canonical extension is not iso")


def _commutator_witness(bk, A, B):
    k1, k2 = li.commutator_both(bk, A, B)
    if k1 != k2:
        return "extension orders disagree"
    la, lb, pab = bk.lift(A), bk.lift(B), bk.product(A, B)
    eta_pair = bk.pair(bk.product(la.obj, lb.obj), bk.compose(la.unit, pab.fst), bk.compose(lb.unit, pab.snd))
    if bk.compose(k1, eta_pair) != bk.lift(pab.obj).unit:
        return "commutator misses the unit pair"
    return None if te.bistrictness(bk, la.obj, lb.obj)(k1) else "commutator is not bistrict"


run_commutative_monad = _seq(
    _lanes(_commutator_witness, classical=_each_pair("{}×{}"),
           summary="extension orders agree for pairs ≤ {n}"),
    _lanes(lambda bk, A, B: None if te.kock_criterion_check(bk, A, B) else "extension map not strict",
           classical=lambda cl, spec, b: _pairs(_gen_posets(2, pointed=True), "kock {},{}"),
           summary="strict extension criterion on pointed pairs ≤ 2"),
    _lanes(_commutator_witness, presheaf=lambda ps, spec, b: [("1,1/2-chain-base", ps.terminal(), ps.terminal())]),
)


# ---------------------------------------------------------------------------
# faults: each a backend with one construction corrupted, for a control to catch

def _maximal(A):
    """An element of A with nothing above it."""
    return next(x for i, x in enumerate(A.elements) if A._rows[i] == 1 << i)


class _DropLastMap(ClassicalBackend):
    """Every non-empty hom-set, pinned or not, loses its last map."""

    def _hom(self, A, B, pins=None):
        return list(super()._hom(A, B, pins))[:-1]


class _DropLastFunction(ClassicalBackend):
    """Every exponential loses its last function element."""

    def _exponential(self, A, B):
        E = super()._exponential(A, B)
        return replace(E, obj=E.obj.restrict(E.obj.elements[:-1]))


class _UnitAtBottom(ClassicalBackend):
    """The lift's unit is constant at the bottom."""

    def _lift(self, A):
        ld = super()._lift(A)
        return replace(ld, unit=MonotoneMap._trusted(A, ld.obj, (ld.bot_elem(None),) * A.n))


class _FoldAtTop(ClassicalBackend):
    """The fold of every algebra is constant at a maximal element."""

    def _algebra_structure(self, A):
        alpha = super()._algebra_structure(A)
        return None if alpha is None else MonotoneMap._trusted(alpha.dom, A, (_maximal(A),) * alpha.dom.n)


class _LiftMapAtBottom(ClassicalBackend):
    """The lift of every map is constant at the bottom."""

    def lift_map(self, f):
        la, lb = self.lift(f.dom), self.lift(f.cod)
        return MonotoneMap._trusted(la.obj, lb.obj, (lb.bot_elem(None),) * la.obj.n)


class _BottomNamesTop(ClassicalBackend):
    """The bottom point of every pointed object names a maximal element."""

    def bottom_point(self, A):
        b = super().bottom_point(A)
        return None if b is None else MonotoneMap._trusted(b.dom, A, (_maximal(A),))


class _StrayPoint(ClassicalBackend):
    """Every coequaliser gains a point, below and above nothing else, that no element reaches."""

    def coequalizer(self, f, g):
        cq = super().coequalizer(f, g)
        Q = FinPoset._trusted(cq.obj.elements + ("stray",), cq.obj._rows + (1 << cq.obj.n,))
        return CoeqData(Q, MonotoneMap._trusted(cq.proj.dom, Q, cq.proj.values))


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
                MonotoneMap._trusted(X, obj, tuple(map(eta, X.elements))),
                MonotoneMap._trusted(base.terminal(), obj, (bot,)),
                lambda st, u: () if u == bot else ((st, u),),
                lambda st, items: items[0][1] if items else bot,
            )

    return Fake()


class _AlwaysPointed(ClassicalBackend):
    """Every object counts as pointed."""

    def is_pointed(self, A):
        return True


def _boolean_presheaves(base):
    """The presheaf backend over the one-stage base, whatever base is asked
    for: there the topos is boolean and the lift of 1 is 1 + 1."""
    return PresheafBackend(BasePoset(FinPoset.chain(1, "s")))


def _classical(fault, *args):
    """The record of a law whose fault is the classical backend ``fault(*args)``."""
    return lambda: Backends(fault(*args), None)


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
            _classical(_UnitAtBottom),
        ),
        Law(
            "scone-universal",
            "the lift of A is the universal lax cone over A: each lax square datum factors uniquely",
            Bounds(max_size=3, competing=4),
            run_scone,
            _classical(_fake_scone_backend),
        ),
        Law(
            "sierpinski-cocomma",
            "sigma is the cocomma object of the two points: global lax pairs classify maps out of it",
            Bounds(competing=4),
            run_cocomma,
            _classical(_fake_scone_backend),
        ),
        Law(
            "open-classifier",
            "Scott-open subobjects correspond to characteristic maps into the classifier, with the pullback property",
            Bounds(max_size=4),
            run_open_classifier,
            _classical(_UnitAtBottom),
        ),
        Law(
            "partial-product",
            "spans with Scott-open domain correspond order-isomorphically to maps into the lift",
            Bounds(max_size=3),
            run_partial_product,
            _classical(_DropLastMap),
        ),
        Law(
            "joint-epi",
            "bottom and unit are jointly epimorphic out of every lift",
            Bounds(max_size=3, competing=4),
            run_joint_epi,
            _classical(_fake_scone_backend, True),
        ),
        Law(
            "lax-epi",
            "restriction along bottom and unit is an order-embedding on hom posets",
            Bounds(max_size=3, competing=4),
            run_lax_epi,
            _classical(_fake_scone_backend, True),
        ),
        Law(
            "conservative-L",
            "the unit naturality square is a pullback, so the lifting functor reflects isomorphisms",
            Bounds(max_size=3),
            run_conservative,
            _classical(_LiftMapAtBottom),
        ),
        Law(
            "pointed-iff-algebra",
            "a dcpo carries an algebra structure exactly when it is pointed, and then a unique one",
            Bounds(max_size=4),
            run_pointed_iff_algebra,
            _classical(_DropLastMap),
        ),
        Law(
            "pointed-iff-inductive",
            "pointed = every semidirected subset has a supremum",
            Bounds(max_size=4),
            run_pointed_iff_inductive,
            _classical(_AlwaysPointed),
        ),
        Law(
            "strict-iff-inductive",
            "a map between pointed objects is strict exactly when it preserves semidirected suprema",
            Bounds(max_size=3),
            run_strict_iff_inductive,
            _classical(_BottomNamesTop),
        ),
        Law(
            "strict-iff-hom",
            "a map between pointed objects is strict exactly when it is an algebra homomorphism",
            Bounds(max_size=4),
            run_strict_iff_hom,
            _classical(_FoldAtTop),
        ),
        Law(
            "monadicity-triple",
            "algebras, pointed objects and inductive partial orders are the same subcategory",
            Bounds(max_size=3),
            run_monadicity,
            _classical(_DropLastMap),
        ),
        Law(
            "connected-colimits",
            "connected colimits of algebras are created by the forgetful functor",
            Bounds(max_size=3, apex=6),
            run_connected_colimits,
            _classical(_LiftMapAtBottom),
        ),
        Law(
            "algebras-cocomplete",
            "algebras have coproducts by a reflexive coequaliser, hence all finite colimits",
            Bounds(max_size=3, apex=6),
            run_algebras_cocomplete,
            _classical(_LiftMapAtBottom),
        ),
        Law(
            "colimits-enriched",
            "colimit comparisons reflect the pointwise order along the legs",
            Bounds(max_size=3, apex=6),
            run_colimits_enriched,
            _classical(_StrayPoint),
        ),
        Law(
            "smash-presentations",
            "the four coequaliser presentations of the smash product agree, match the direct quotient, and carry the universal bistrict map",
            Bounds(max_size=5, competing=4),
            run_smash_presentations,
            _classical(_UnitAtBottom),
        ),
        Law(
            "bistrict-iff-bilinear",
            "a binary map is bistrict exactly when it satisfies the commutator-against-folds square",
            Bounds(max_size=3),
            run_bistrict_iff_bilinear,
            _classical(_FoldAtTop),
        ),
        Law(
            "seal-iso",
            "the algebra tensor and the smash product are isomorphic under the universal maps",
            Bounds(max_size=3),
            run_seal_iso,
            _classical(_FoldAtTop),
        ),
        Law(
            "monoidal-adjunction",
            "lifting is strong symmetric monoidal: the commutator descends to an iso, and both symmetry squares commute",
            Bounds(max_size=3),
            run_monoidal_adjunction,
            _classical(_LiftMapAtBottom),
        ),
        Law(
            "tensor-hom",
            "smashing with A is left adjoint to the strict function space out of A",
            Bounds(max_size=3),
            run_tensor_hom,
            _classical(_DropLastFunction),
        ),
        Law(
            "homs-coincide",
            "the strict and linear function spaces are the same subobject of the exponential",
            Bounds(max_size=3),
            run_homs_coincide,
            _classical(_FoldAtTop),
        ),
        Law(
            "phoa",
            "maps out of sigma form the arrow object: the power by the walking arrow",
            Bounds(max_size=4),
            run_phoa,
            _classical(_fake_scone_backend),
        ),
        Law(
            "paths",
            "there is at most one path between parallel maps, and one exists exactly when they compare",
            Bounds(max_size=3),
            run_paths,
            _classical(_fake_scone_backend, True),
        ),
        Law(
            "top-opfibration",
            "the top point into sigma is an opfibration: its walking-arrow power and comma are points",
            Bounds(),
            run_top_opfibration,
            _classical(_UnitAtBottom),
        ),
        Law(
            "nonboolean-lift",
            "over the 2-chain base the classifier is not free on its nonbottom part: the comparison onto the lifted point is not invertible",
            Bounds(),
            run_nonboolean_lift,
            lambda: Backends(None, _boolean_presheaves),
        ),
        Law(
            "commutative-monad",
            "both iterated extension orders give the same commutator, which is bistrict and restricts to the strength",
            Bounds(max_size=3),
            run_commutative_monad,
            _classical(_LiftMapAtBottom),
        ),
    ]
}


def _law(name: str) -> Law:
    if name not in REGISTRY:
        raise KeyError(f"unknown law {name!r}; known: {', '.join(REGISTRY)}")
    return REGISTRY[name]


def _report(name, lines, b: Bounds, until_fail=False) -> CheckReport:
    """The report of a runner's ``lines``, up to the first FAIL when
    ``until_fail``.  A refused construction ends it with an UNAVAILABLE
    ``construction`` line, and any other exception with a FAIL one naming
    the exception: a check that crashed has not passed."""
    t0 = time.perf_counter()
    # the lines a runner yielded before it raised stay in the report
    instances = []
    try:
        for inst in lines:
            instances.append(inst)
            if until_fail and inst.status == FAIL:
                break
    except UnavailableError as e:
        instances.append(InstanceReport("construction", UNAVAILABLE, e.reason))
    except StructureError as e:  # a construction rejected what the law built
        instances.append(InstanceReport("construction", FAIL, str(e)))
    except Exception as e:  # a backend broke an invariant the checker reads
        instances.append(InstanceReport("construction", FAIL, f"{type(e).__name__}: {e}"))
    finally:
        lines.close()
    elapsed = int((time.perf_counter() - t0) * 1000)
    reason = None
    if not instances:
        instances = [InstanceReport("no instances in scope", UNAVAILABLE, "nothing to check")]
        reason = "no instances in scope for the selected backends"
    return make_report(name, instances, b.as_dict(), elapsed, reason)


def run_law(name: str, spec: ModelSpec | None = None, bounds: Bounds | None = None,
            backends=("classical", "presheaf")) -> CheckReport:
    """Run one named law over the model within bounds."""
    law = _law(name)
    spec = spec if spec is not None else default_model()
    b = bounds if bounds is not None else law.bounds
    negative = any(v < 0 for v in b.as_dict().values())
    if negative or max(b.max_size, b.apex, b.competing) > 6:
        reason = ("requested bounds are negative" if negative
                  else "requested bounds exceed the supported exhaustion range (6)")
        return make_report(name, [InstanceReport("bounds", UNAVAILABLE, None)], b.as_dict(), 0, reason)
    bk = Backends(ClassicalBackend() if "classical" in backends else None,
                  cache(PresheafBackend) if "presheaf" in backends else None)
    return _report(name, law.runner(spec, b, bk), b)


# the bounds of every negative control: small enough that none builds
# all_posets(6), large enough that every law's runner meets its fault
CONTROL_BOUNDS = Bounds(max_size=2, competing=2, apex=2)
_control_model = cache(default_model)  # parsed once, for every control


def run_negative(name: str) -> CheckReport:
    """Run the law's own runner on its fault at ``CONTROL_BOUNDS``, up to the
    first failing line; the report must come back failing."""
    law = _law(name)
    lines = law.runner(_control_model(), CONTROL_BOUNDS, law.fault())
    return _report(f"{name}:negative-control", lines, CONTROL_BOUNDS, until_fail=True)
