"""Per-pair tables for the per-map checks.

A law that checks every map A -> B reads each map's value table (its values
at the points of A, stage by stage) against tables built once for the pair
from the backend's constructions: the folds, the bottoms, the lift's element
codec (``family`` and ``from_family``; never the unit, which the map-level
checks do not read), the commutator, and the semidirected subsets with
their lubs.  No lift, composite or subobject is built per map.
``table_test`` checks a pair's tables on its first map against the
constructions and against the map-level check, which stays the reference
and the fallback; the references are looked up in ``lifting`` when they
run, so a stubbed one is seen.  A table lives as long as its test, and the
laws make one test per pair.
"""
from __future__ import annotations

from . import lifting as li
from .backend import UnavailableError
from .lifting import value_tables
from .order import StructureError, Subset, lub, semidirected_subsets


def table_test(reference, build):
    """The per-map test of one pair: ``reference(*case)`` on the first case,
    then the verdict of the pair's table, which ``build(*case)`` makes on
    that case with whether its predictions there equal the constructions.
    When they differ, or the verdicts do, or no table can be built, every
    case goes to ``reference``."""
    table, started = None, False

    def test(*case):
        nonlocal table, started
        if started:
            return (table or reference)(*case)
        want, started = reference(*case), True
        try:
            verdict, agrees = build(*case)
            if agrees and verdict(*case) == want:
                table = verdict
        except (LookupError, StructureError, UnavailableError):
            pass  # the constructions support no table: the pair keeps the reference
        return want

    return test


def _points(bk, X) -> list:
    """The (stage, element) points of X in the order of a value table."""
    return [(p, x) for p in bk.stages(X) for x in bk.at(X, p)]


def _lifted(bk, X, C):
    """X's points, and L f for f : X -> C as the codec reads it off f's
    value table: the values of L f at the points of LX."""
    lx, lc, points = bk.lift(X), bk.lift(C), _points(bk, X)
    at = {pt: i for i, pt in enumerate(points)}
    rows = [(p, [(q, at[q, x]) for q, x in lx.family(p, u)]) for p, u in _points(bk, lx.obj)]
    return points, lambda fv: [lc.from_family(p, [(q, fv[i]) for q, i in fam]) for p, fam in rows]


def _read_right(bk, f, lifted, fv) -> bool:
    """Whether ``bk.lift_map(f)`` is the L f that ``lifted`` reads off f's
    value table ``fv``."""
    return value_tables(bk, [bk.lift_map(f)])[0] == tuple(lifted(fv))


def strict_iff_hom_test(bk, A, B):
    """``strict_iff_hom_check`` on the maps A -> B: f is strict when it
    holds B's bottom at the position of A's, and a homomorphism when B's
    fold after the codec's L f is f after A's fold, read at the position of
    the fold of each element of LA."""

    def build(f):
        app, la = bk.app, bk.lift(A)
        points, lifted = _lifted(bk, A, B)
        at, fold_a, fold_b = {pt: i for i, pt in enumerate(points)}, bk.algebra_structure(A), bk.algebra_structure(B)
        ups = _points(bk, la.obj)
        folds = [at[p, app(fold_a, p, u)] for p, u in ups]
        ba, bb = bk.bottom_point(A), bk.bottom_point(B)
        bottoms = [(at[p, app(ba, p, "*")], app(bb, p, "*")) for p in bk.stages(A)]

        def verdict(f):
            fv = [app(f, p, x) for p, x in points]
            strict = all(fv[i] == b for i, b in bottoms)
            return strict == all(app(fold_b, p, v) == fv[i] for (p, _), v, i in zip(ups, lifted(fv), folds))

        return verdict, _read_right(bk, f, lifted, [app(f, p, x) for p, x in points])

    return table_test(lambda f: li.strict_iff_hom_check(bk, f), build)


def preserves_sups(f) -> bool:
    """Whether the classical map f carries the lub of each semidirected
    subset of its domain that has one to the lub of the image."""
    for S in semidirected_subsets(f.dom):
        v = lub(f.dom, S)
        if v is None:
            continue
        w = lub(f.cod, Subset(f.cod, frozenset(f(x) for x in S.members)))
        if w is None or f(v) != w:
            return False
    return True


def strict_inductive_test(cl, A, B):
    """``is_strict(f) == preserves_sups(f)`` on the classical maps A -> B,
    read off the indices of A's bottom and of the members and the lub of
    each semidirected subset of A with a lub; B's lubs are memoised by the
    mask of the indices they bound."""

    def build(f):
        sups, lubs, at = [], {}, B._index
        for S in semidirected_subsets(A):
            if (v := lub(A, S)) is not None:
                sups.append(([A._index[x] for x in S.members], A._index[v]))
        ba, bb = (cl.app(cl.bottom_point(X), None, "*") for X in (A, B))
        ba = A._index[ba]

        def lub_at(members, vi):
            mask = 0
            for i in members:
                mask |= 1 << vi[i]
            if mask not in lubs:
                w = lub(B, Subset(B, frozenset(y for j, y in enumerate(B.elements) if mask >> j & 1)))
                lubs[mask] = None if w is None else at[w]
            return lubs[mask]

        def verdict(f):
            vi = [at[y] for y in f.values]
            return (f.values[ba] == bb) == all(lub_at(members, vi) == vi[v] for members, v in sups)

        return verdict, True

    return table_test(lambda f: li.is_strict(cl, f) == preserves_sups(f), build)


def conservativity_test(bk, A, B):
    """``conservativity_check`` on the maps A -> B, with L f and both units
    read through the codec; only a map whose L f is a bijection at every
    stage builds L f, for the iso test."""

    def build(f):
        la, lb, app = bk.lift(A), bk.lift(B), bk.app
        points, lifted = _lifted(bk, A, B)
        ups = _points(bk, la.obj)

        def unit(ld, X, p, x):
            return ld.from_family(p, [(q, bk.res_el(X, p, q, x)) for q in bk.base_down(p)])

        units_a = [unit(la, A, p, a) for p, a in points]
        units_b = {pt: unit(lb, B, *pt) for pt in _points(bk, B)}
        place = {pt: k for k, pt in enumerate(ups)}
        home = [place[p, u] for (p, _), u in zip(points, units_a)]  # each unit's position in LA
        under = {}  # (stage, element of LB) -> the elements of B whose unit it is
        for (p, b), w in units_b.items():
            under.setdefault((p, w), []).append(b)
        spans, i = [], 0  # per stage: LA's positions, and LB's size there
        for p in bk.stages(A):
            n = len(bk.at(la.obj, p))
            spans.append((i, i + n, len(bk.at(lb.obj, p))))
            i += n

        def verdict(f):
            fv = [app(f, p, x) for p, x in points]
            lf = lifted(fv)
            if any(lf[k] != units_b[p, y] for (p, _), k, y in zip(points, home, fv)):
                return False, "naturality square does not commute"
            for k, ((p, u), v) in enumerate(zip(ups, lf)):
                for b in under.get((p, v), ()):
                    if (n := sum(h == k and y == b for h, y in zip(home, fv))) != 1:
                        return False, ("fiber", p, u, b, n)
            # inverse's first test, a bijection at every stage, on the codec's L f
            if all(j - i == nb == len(set(lf[i:j])) for i, j, nb in spans) and bk.is_iso(bk.lift_map(f)) \
                    and not bk.is_iso(f):
                return False, "functorial image is invertible but the map is not"
            return True, None

        agrees = (_read_right(bk, f, lifted, [app(f, p, x) for p, x in points])
                  and value_tables(bk, [la.unit])[0] == tuple(units_a)
                  and value_tables(bk, [lb.unit])[0] == tuple(units_b.values()))
        return verdict, agrees

    return table_test(lambda f: li.conservativity_check(bk, f), build)


def round_trip_test(bk, A, B):
    """``round_trips`` on the partial maps A ⇀ B, read off the codec: the
    domain read back from tot is where tot is a unit image, and the value
    there the unit's argument.  Where that differs from pm the reference
    decides, and names what a construction refuses."""

    def build(pm, tot):
        ld, app = bk.lift(B), bk.app

        def verdict(pm, tot):
            back = [(p, [(a, v) for a in bk.at(A, p) if (v := ld.as_eta(p, app(tot, p, a))) is not None])
                    for p in bk.stages(A)]
            same = (tuple([(p, frozenset([a for a, _ in vals])) for p, vals in back]) == pm.members
                    and all(v == app(pm.value, p, a) for p, vals in back for a, v in vals))
            return same or li.round_trips(bk, pm, tot)

        return verdict, True

    return table_test(lambda pm, tot: li.round_trips(bk, pm, tot), build)


def bilinear_test(bk, kappa, folds, reference):
    """``reference(bk, f, kappa, folds)`` (the bilinearity square by
    composites) on the maps f : A x B -> C, one table per codomain: for each
    element k of L(A x B) that the commutator reaches, the positions of the
    folds of its preimages among the points of A x B.  f is bilinear when
    C's fold at the codec's L f(k) is f's value there, for every k."""
    by_cod = {}

    def build(f):
        app, X = bk.app, f.dom
        points, lifted = _lifted(bk, X, f.cod)
        at, fold = {pt: i for i, pt in enumerate(points)}, bk.algebra_structure(f.cod)
        place, square = {pt: k for k, pt in enumerate(_points(bk, bk.lift(X).obj))}, {}
        for p, w in _points(bk, kappa.dom):
            square.setdefault((p, place[p, app(kappa, p, w)]), set()).add(at[p, app(folds, p, w)])

        def verdict(f):
            fv = [app(f, p, x) for p, x in points]
            lf = lifted(fv)
            return all(fv[i] == app(fold, p, lf[k]) for (p, k), targets in square.items() for i in targets)

        return verdict, _read_right(bk, f, lifted, [app(f, p, x) for p, x in points])

    def bilinear(f) -> bool:
        if f.cod not in by_cod:
            by_cod[f.cod] = table_test(lambda g: reference(bk, g, kappa, folds), build)
        return by_cod[f.cod](f)

    return bilinear
