"""Bounded search for an algebra that is not free on its positive part.

Enumerates algebra carriers over small base posets, computes the positive
elements, builds the lift of the positive part and the canonical strict
extension of its inclusion, and records every instance where that map
fails to be an isomorphism.  Any hit is re-verified independently
(positivity recomputed from the forcing definition, the iso failure
re-checked by exhaustive iso search) before being reported.  No outcome is
asserted: the report is data.

One decision per natural-isomorphism class.  The generator lists carriers
as labellings, so one object over a base appears once per stagewise
relabelling.  Being a dcpo, being free on the positive part (or the
reason the check refuses) and the re-verified failure are all invariant
under natural isomorphism, so each is decided for the first labelling of
its class, found by ``iso_key``, and reused for the rest.  Every labelling
still counts, still waits on the time budget and still gets its own
report line, so the report is the one a per-labelling search gives.  A
reused confirmation is reported as confirmed only when ``natural_iso``
finds an iso from the labelling to the class's first member; otherwise the
line reads "unconfirmed".
"""
from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from itertools import product as iproduct

from .backend import ClassicalBackend, PresheafBackend, UnavailableError
from .lifting import free_on_positives_check
from .order import FinPoset, all_posets, posets_upto, _labeled_rows, _order_search, _rows_to_poset
from .presheaf import BasePoset, InternalPoset, is_internal_dcpo, natural_iso
from .report import FAIL, PASS, UNAVAILABLE, CheckReport, InstanceReport, fmt, make_report


@dataclass(frozen=True)
class OQ1Bounds:
    max_base: int = 2  # stages in the base poset
    max_stage: int = 3  # elements per stage
    max_carrier: int = 5  # total elements across stages

    def as_dict(self) -> dict:
        return asdict(self)


def _labeled_posets_named(n: int, prefix: str) -> list[FinPoset]:
    return [
        _rows_to_poset(rows, prefix=prefix) for rows in _labeled_rows(n)
    ]


def _monotone_values(P: FinPoset, Q: FinPoset) -> list[tuple]:
    """The value tuples of the monotone maps P -> Q, in the order of
    ``iproduct(Q.elements, repeat=P.n)``."""
    out: list = []
    _order_search(P._rows, Q._rows, lambda vals: out.append(tuple([Q.elements[v] for v in vals])))
    return out


def _composes(base: BasePoset, res: dict) -> bool:
    """res(q, r) . res(p, q) = res(p, r) for every r < q < p."""
    return all(
        res[q, r][res[p, q][x]] == res[p, r][x]
        for p, q in base.strict_pairs()
        for r in base.down_list(q)
        if r != q
        for x in res[p, q]
    )


def internal_posets(base: BasePoset, bounds: OQ1Bounds, pointed: bool = False):
    """Every internal poset over the base within the size bounds, as labelled
    stage posets and restrictions (so one object may appear several times);
    with ``pointed``, only those ``is_internal_pointed`` accepts: each stage
    has a bottom and each restriction preserves it.

    A trusted producer: the stage posets are the validated labelled ones,
    the restrictions are monotone because ``_order_search`` produced them and
    compose because ``_composes`` checked them, so ``InternalPoset._trusted``
    builds the objects.  The order is that of building every combination
    through ``InternalPoset.make`` and keeping the valid (and pointed) ones.
    The value lists of each pair of labelled stage posets are computed once
    per call, since a pair recurs across the combinations of other stages."""
    stages = base.stages
    pairs = base.strict_pairs()
    labelled: dict = {}
    restriction_values: dict = {}  # (P, Q) -> the candidate value tuples of P -> Q
    for sizes in iproduct(*[range(1, bounds.max_stage + 1) for _ in stages]):
        if sum(sizes) > bounds.max_carrier:
            continue
        for k, p in zip(sizes, stages):
            if (k, p) not in labelled:
                Ps = _labeled_posets_named(k, prefix=f"{p}_")
                labelled[k, p] = [P for P in Ps if P.is_pointed()] if pointed else Ps
        for stage_posets in iproduct(*[labelled[k, p] for k, p in zip(sizes, stages)]):
            posets = dict(zip(stages, stage_posets))
            res_choices = []
            for p, q in pairs:
                P, Q = posets[p], posets[q]
                values = restriction_values.get((P, Q))
                if values is None:
                    values = _monotone_values(P, Q)
                    if pointed:
                        b, c = P.index(P.bottom()), Q.bottom()
                        values = [v for v in values if v[b] == c]
                    restriction_values[P, Q] = values
                res_choices.append(values)
            for combo in iproduct(*res_choices):
                restrictions = {
                    pair: dict(zip(posets[pair[0]].elements, values))
                    for pair, values in zip(pairs, combo)
                }
                if _composes(base, restrictions):
                    yield InternalPoset._trusted(base, stage_posets, combo)


def _stage_canon(P: FinPoset, canon: dict) -> tuple:
    """The up-mask rows of the labelling of P that ``all_posets`` keeps, and
    every relabelling of P onto them, each as ``(order, label)``:
    ``order[k]`` is the index of the element that gets label k, and
    ``label`` maps each element to its label.  The relabellings are the
    order-isos onto the one member of ``all_posets(P.n)`` that P is
    isomorphic to.  Cached in ``canon`` by P."""
    got = canon.get(P)
    if got is None:
        isos: list = []

        def emit(vals):
            isos.append(tuple(vals))
            return False  # collect every iso

        for Q in all_posets(P.n):
            _order_search(P._rows, Q._rows, emit, iso=True)
            if isos:
                break
        onto = tuple((tuple(vals.index(k) for k in range(P.n)), dict(zip(P.elements, vals))) for vals in isos)
        got = canon[P] = Q._rows, onto
    return got


def iso_key(A: InternalPoset, canon: dict | None = None) -> tuple:
    """A key that is the same for two internal posets over one base exactly
    when they are naturally isomorphic.

    It holds the canonical rows of each stage poset (``_stage_canon``) and
    the least tuple of restriction tables, in labels, over every stagewise
    relabelling that maps each stage onto its canonical rows.  Two such
    relabellings of one stage differ by an automorphism, so naturally
    isomorphic objects reach the same set of tables; equal keys give a
    stagewise iso onto one common object that commutes with the
    restrictions.  ``canon`` is a table of stage canonical forms to reuse,
    owned by the caller."""
    canon = {} if canon is None else canon
    base = A.base
    at = base.poset._index
    stages = [_stage_canon(P, canon) for P in A.stage_posets]
    pairs = [(at[p], at[q], values) for (p, q), values in zip(base.strict_pairs(), A.restrictions)]

    def tables(sigma) -> tuple:
        # the restriction p -> q sends label k to the label of the value at
        # the element labelled k
        return tuple(
            tuple([sigma[iq][1][values[i]] for i in sigma[ip][0]]) for ip, iq, values in pairs
        )

    least = min(map(tables, iproduct(*[relabellings for _, relabellings in stages])))
    return tuple(rows for rows, _ in stages), least


def candidate_algebras(base: BasePoset, bounds: OQ1Bounds):
    """All pointed internal dcpos over the base within the size bounds, each
    as ``(iso_key(A), A)``: the pointed objects of ``internal_posets``, in
    its order, that pass ``is_internal_dcpo``.  Being a dcpo is invariant
    under natural isomorphism, so the check runs once per class."""
    canon: dict = {}
    dcpo: dict = {}
    for A in internal_posets(base, bounds, pointed=True):
        key = iso_key(A, canon)
        if key not in dcpo:
            dcpo[key] = is_internal_dcpo(A)[0]
        if dcpo[key]:
            yield key, A


def _small_bases(bounds: OQ1Bounds) -> list[tuple]:
    out = []
    for n in range(1, bounds.max_base + 1):
        for i, P in enumerate(posets_upto(n)):
            if P.n != n:
                continue
            out.append((f"base{n}.{i}", BasePoset(_rows_to_poset(P._rows, prefix="s"))))
    return out


def positivity_by_forcing(X: InternalPoset) -> dict:
    """Positivity recomputed through the formula interpreter.

    For each candidate element and each subpresheaf D, the statement
    "if s bounds D, s is below every bound of D, and x <= s, then D is
    inhabited" is built as a first-order formula (with semidirectedness of
    D as a side condition) and handed to the forcing clauses; nothing is
    shared with the arithmetic of internal_sup.
    """
    from .presheaf import (
        And,
        Const,
        Exists,
        ForAll,
        Implies,
        Leq,
        TrueF,
        Var,
        kj_forces,
        semidirectedness_formula,
        subpresheaves_below,
    )

    base = X.base
    out = {}
    for p in base.stages:
        good = set()
        for x in X.at(p):
            ok = True
            for q in base.down_list(p):
                if not ok:
                    break
                xq = Const(X, p, x)
                for D in subpresheaves_below(X, q):
                    if not kj_forces(base, q, semidirectedness_formula(D)):
                        continue
                    is_bound = ForAll("d", D, Leq(Var("d"), Var("s")))
                    is_least = ForAll(
                        "t",
                        X,
                        Implies(ForAll("d", D, Leq(Var("d"), Var("t"))), Leq(Var("s"), Var("t"))),
                    )
                    dominated = Exists(
                        "s", X, And(And(is_bound, is_least), Leq(xq, Var("s")))
                    )
                    inhabited = Exists("d", D, TrueF())
                    if not kj_forces(base, q, Implies(dominated, inhabited)):
                        ok = False
                        break
            if ok:
                good.add(x)
        out[p] = frozenset(good)
    return out


def reverify_failure(bk, X) -> bool:
    """Independent confirmation of a counterexample candidate: positivity is
    recomputed from the forcing clauses, and the failure of the canonical
    map is re-established by exhaustive iso search."""
    members = positivity_by_forcing(X)
    if members != bk.positive_elements(X):
        return False
    P, _ = bk.subobject(X, members)
    ld = bk.lift(P)
    return bk.iso(ld.obj, X) is None


def _class_verdict(bk, A):
    """The search's verdict on A, which holds for A's whole class: None when
    A is free on its positive part, the reason when the check refuses, and
    otherwise whether ``reverify_failure`` confirms the failure."""
    try:
        ok, _h = free_on_positives_check(bk, A)
    except UnavailableError as e:
        return e.reason
    return None if ok else reverify_failure(bk, A)


def search_open_question_1(
    bounds: OQ1Bounds | None = None, time_budget_s: float | None = None
) -> CheckReport:
    """Run the bounded search; failures are candidate counterexamples.

    If a time budget is given and exceeded, the search stops early and the
    report carries a truncation marker instead of silently narrowing.
    """
    bounds = bounds or OQ1Bounds()
    if min(bounds.as_dict().values()) < 0:
        refused = [InstanceReport("bounds", UNAVAILABLE, None)]
        return make_report("search-oq1", refused, bounds.as_dict(), 0, "requested bounds are negative")
    t0 = time.perf_counter()

    def out_of_time() -> bool:
        return time_budget_s is not None and time.perf_counter() - t0 > time_budget_s

    instances = []
    cl = ClassicalBackend()
    classical_failures = 0
    for i, X in enumerate(posets_upto(min(bounds.max_carrier, 4), pointed=True)):
        ok, _h = free_on_positives_check(cl, X)
        if not ok:
            classical_failures += 1
            instances.append(
                InstanceReport(f"classical#{i}", FAIL, f"not free on positives: {fmt(X)}")
            )
    instances.append(
        InstanceReport(
            f"classical lane (pointed ≤ {min(bounds.max_carrier, 4)})",
            PASS if classical_failures == 0 else FAIL,
            f"{classical_failures} failures",
        )
    )
    truncated = False
    for base_name, base in _small_bases(bounds):
        if truncated:
            break
        bk = PresheafBackend(base)
        checked = 0
        hits = 0
        verdicts: dict = {}  # iso_key -> (first member, _class_verdict)
        for key, A in candidate_algebras(base, bounds):
            if out_of_time():
                truncated = True
                instances.append(
                    InstanceReport(
                        f"{base_name}: search truncated after {checked} algebras",
                        UNAVAILABLE,
                        f"time budget of {time_budget_s}s exceeded; report is partial",
                    )
                )
                break
            checked += 1
            if key not in verdicts:
                verdicts[key] = A, _class_verdict(bk, A)
            first, verdict = verdicts[key]
            if verdict is None:
                continue
            name = f"{base_name}:carrier#{checked}"
            if isinstance(verdict, str):
                instances.append(InstanceReport(name, UNAVAILABLE, verdict))
                continue
            hits += 1
            confirmed = verdict and (A is first or natural_iso(A, first) is not None)
            instances.append(
                InstanceReport(
                    name,
                    FAIL if confirmed else UNAVAILABLE,
                    ("confirmed candidate: " if confirmed else "unconfirmed: ") + fmt(A),
                )
            )
        instances.append(
            InstanceReport(
                f"{base_name} ({checked} algebras searched)",
                PASS,
                f"{hits} candidate counterexamples",
            )
        )
    elapsed = int((time.perf_counter() - t0) * 1000)
    return make_report("search-oq1", instances, bounds.as_dict(), elapsed)
