"""The lifting monad, its algebras, and partial-map classification.

Everything here is generic over a backend: monad data (unit, bottom,
multiplication, strength) comes from the backend, whose lift supplies the
unit and bottom and whose shared base derives the rest from the lift's
element codec, while Kleisli extension, the commutator, cone-induced maps,
algebra laws, positivity and the partial-map bijection are assembled and
checked here.  ``open_classifier_check`` checks that Sigma = L1 classifies
the Scott-open subobjects, with the backend as an argument, so both
backends run the one check.  Universal properties are verified by
exhaustion, never assumed.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .backend import UnavailableError
from .order import StructureError


@dataclass
class Algebra:
    carrier: Any
    structure: Any  # LX -> X


@dataclass
class PartialMap:
    """A span A <- U -> B whose left leg is a Scott-open immersion."""

    src: Any
    tgt: Any
    members: tuple  # ((stage, frozenset), ...) canonical
    domain: Any  # the sub-object U
    incl: Any  # U -> A
    value: Any  # U -> B


def kleisli_extend(bk, f, B):
    """f-dagger = mult after the functorial image, for f : A -> LB."""
    return bk.compose(bk.mult(B), bk.lift_map(f))


def swap_map(bk, A, B):
    pd_ab = bk.product(A, B)
    pd_ba = bk.product(B, A)
    return bk.pair(pd_ba, pd_ab.snd, pd_ab.fst)


def costrength(bk, A, B):
    """LA x B -> L(A x B), derived from the strength by swapping twice."""
    la = bk.lift(A)
    swap1 = swap_map(bk, la.obj, B)
    st_ba = bk.strength(B, A)
    swap2 = swap_map(bk, B, A)
    return bk.compose(bk.lift_map(swap2), bk.compose(st_ba, swap1))


def commutator_both(bk, A, B):
    """Both iterated-extension composites LA x LB -> L(A x B), built once
    per (A, B) on each backend."""

    def build():
        la, lb = bk.lift(A), bk.lift(B)
        pab = bk.product(A, B)
        # extend the right argument first
        st1 = costrength(bk, A, lb.obj)  # LA x LB -> L(A x LB)
        inner1 = bk.strength(A, B)  # A x LB -> L(A x B)
        k1 = bk.compose(bk.mult(pab.obj), bk.compose(bk.lift_map(inner1), st1))
        # extend the left argument first
        st2 = bk.strength(la.obj, B)  # LA x LB -> L(LA x B)
        inner2 = costrength(bk, A, B)  # LA x B -> L(A x B)
        k2 = bk.compose(bk.mult(pab.obj), bk.compose(bk.lift_map(inner2), st2))
        return k1, k2

    return bk.memo(("commutator", A, B), build)


def commutator(bk, A, B):
    """The commutator kappa; both extension orders must agree."""
    k1, k2 = commutator_both(bk, A, B)
    if k1 != k2:
        raise StructureError("commutativity", "the two extension orders disagree")
    return k1


# ---------------------------------------------------------------------------
# Algebras.

def is_algebra(bk, X, alpha) -> bool:
    ld = bk.lift(X)
    if alpha.dom != ld.obj or alpha.cod != X:
        return False
    if bk.compose(alpha, ld.unit) != bk.identity(X):
        return False
    return bk.compose(alpha, bk.lift_map(alpha)) == bk.compose(alpha, bk.mult(X))


def algebra_structure(bk, X) -> Algebra | None:
    """The canonical fold (supremum of bottom plus unit preimages), or None."""
    alpha = bk.algebra_structure(X)
    if alpha is None:
        return None
    if not is_algebra(bk, X, alpha):
        raise StructureError("algebra-laws", "canonical structure fails the laws")
    return Algebra(X, alpha)


def all_algebra_structures(bk, X) -> list:
    """Exhaustive search over all candidate structure maps (uniqueness oracle)."""
    ld = bk.lift(X)
    return [alpha for alpha in bk.hom(ld.obj, X) if is_algebra(bk, X, alpha)]


def kz_check(bk, X: Algebra):
    """Structure map left adjoint to the unit: both triangle inequalities.

    Returns (ok, failures); failures carry minimal element-level witnesses.
    """
    ld = bk.lift(X.carrier)
    failures = []
    counit = bk.compose(X.structure, ld.unit)
    if counit != bk.identity(X.carrier):
        for p in bk.stages(X.carrier):
            for x in bk.at(X.carrier, p):
                if bk.app(counit, p, x) != x:
                    failures.append(("counit", p, x))
                    break
    unit_side = bk.compose(ld.unit, X.structure)
    ident = bk.identity(ld.obj)
    if not bk.hom_leq(ident, unit_side):
        for p in bk.stages(ld.obj):
            for u in bk.at(ld.obj, p):
                if not bk.leq_at(ld.obj, p, u, bk.app(unit_side, p, u)):
                    failures.append(("unit", p, u))
                    break
    return not failures, failures


def is_strict(bk, f) -> bool:
    ba = bk.bottom_point(f.dom)
    bb = bk.bottom_point(f.cod)
    if ba is None or bb is None:
        raise StructureError("pointedness", "strictness needs pointed source and target")
    return bk.compose(f, ba) == bb


def is_homomorphism(bk, f, alpha_a, alpha_b) -> bool:
    return bk.compose(alpha_b, bk.lift_map(f)) == bk.compose(f, alpha_a)


def strict_iff_hom_check(bk, f) -> bool:
    alpha_a = bk.algebra_structure(f.dom)
    alpha_b = bk.algebra_structure(f.cod)
    if alpha_a is None or alpha_b is None:
        raise StructureError("pointedness", "both objects must carry algebra structure")
    return is_strict(bk, f) == is_homomorphism(bk, f, alpha_a, alpha_b)


def strict_hom_set(bk, A, B) -> tuple:
    """The maps of ``bk.hom(A, B)``, in hom order, that are strict: read at
    the bottom, stage by stage, not composed with it.  ``is_strict`` stays
    the test reference and the subject of the strict-iff laws."""
    homs = bk.hom(A, B)
    if not homs:
        return homs
    ba, bb = bk.bottom_point(A), bk.bottom_point(B)
    if ba is None or bb is None:
        raise StructureError("pointedness", "strictness needs pointed source and target")
    bot = value_tables(bk, [bb])[0]
    return tuple(f for f, t in zip(homs, value_tables(bk, homs, ba)) if t == bot)


# ---------------------------------------------------------------------------
# The Sierpinski-cone universal property and its consequences.

def scone_data(bk, A, C) -> list:
    """All lax squares (c0 : 1 -> C, c1 : A -> C with c0 . ! <= c1), c0
    outer and c1 inner, each in hom order: read off the up-mask rows of the
    composites c0 . ! appended to the hom-set."""
    bang, points = bk.bang(A), bk.global_elements(C)
    if not points:
        return []  # and A -> C goes unenumerated, as in the pairwise loop
    homs = bk.hom(A, C)
    up = bk.hom_up_masks(A, C, list(homs) + [bk.compose(c0, bang) for c0 in points])
    return [(c0, c1) for c0, row in zip(points, up[len(homs):]) for j, c1 in enumerate(homs) if row >> j & 1]


def value_tables(bk, maps, leg=None) -> list:
    """The value table of each of the parallel ``maps`` (of each ``f . leg``,
    given ``leg``, without building the composite): its values at the
    elements of its domain, stage by stage in stage-API order.  Parallel
    maps are equal exactly when their tables are."""
    if not maps:
        return []
    app, X = bk.app, maps[0].dom if leg is None else leg.dom
    points = [(p, x if leg is None else app(leg, p, x)) for p in bk.stages(X) for x in bk.at(X, p)]
    return [tuple([app(f, p, y) for p, y in points]) for f in maps]


def restriction_groups(bk, homs, legs) -> dict:
    """Group ``homs`` by their restriction along ``legs``.

    Maps the value tables of ``h . leg``, one per leg, to the list of homs
    with that restriction, in hom order.  A universal property then reads
    its mediators for a datum off one lookup of the datum's value tables:
    the group size is the number of mediators, its first member the first.
    """
    groups: dict = {}
    for h, *key in zip(homs, *(value_tables(bk, homs, leg) for leg in legs)):
        groups.setdefault(tuple(key), []).append(h)
    return groups


def scone_universal_check(bk, A, C):
    """Exactly one mediating map out of LA for each lax square datum."""
    ld = bk.lift(A)
    groups = restriction_groups(bk, bk.hom(ld.obj, C), (ld.bottom, ld.unit))
    data = scone_data(bk, A, C)
    keys = zip(value_tables(bk, [c0 for c0, _ in data]), value_tables(bk, [c1 for _, c1 in data]))
    for (c0, c1), key in zip(data, keys):
        hs = groups.get(key, [])
        if len(hs) != 1:
            return False, ("datum", c0, c1, len(hs))
    if len(groups) != len(data):
        return False, ("non-lax-restriction", len(groups), len(data))
    return True, None


def joint_epi_check(bk, A, C):
    """Maps out of LA agree when they agree on bottom and on unit images."""
    ld = bk.lift(A)
    homs, seen = bk.hom(ld.obj, C), {}
    # h . bottom and h . unit by their tables, equal exactly when the composites are
    for h, key in zip(homs, zip(value_tables(bk, homs, ld.bottom), value_tables(bk, homs, ld.unit))):
        if key in seen and seen[key] != h:
            return False, ("pair", seen[key], h)
        seen[key] = h
    return True, None


def lax_epi_check(bk, A, C):
    """Restriction along [bottom | unit] is an order-embedding on homs."""
    ld = bk.lift(A)
    homs = bk.hom(ld.obj, C)
    bots = bk.hom_up_masks(bk.terminal(), C, homs, ld.bottom)
    units = bk.hom_up_masks(A, C, homs, ld.unit)
    # the first pair (f, g), f then g in hom order, where the two orders differ
    for k, (b, u, full) in enumerate(zip(bots, units, bk.hom_up_masks(ld.obj, C, homs))):
        if diff := (b & u) ^ full:
            return False, ("pair", homs[k], homs[(diff & -diff).bit_length() - 1])
    return True, None


def paths_check(bk, A, B):
    """There is at most one path between parallel maps, and one exists iff <=."""
    sigma = bk.lift(bk.terminal())
    pd = bk.product(sigma.obj, A)
    bot_leg = bk.pair(pd, bk.compose(sigma.bottom, bk.bang(A)), bk.identity(A))
    top_leg = bk.pair(pd, bk.compose(sigma.unit, bk.bang(A)), bk.identity(A))
    groups = restriction_groups(bk, bk.hom(pd.obj, B), (bot_leg, top_leg))
    homs = bk.hom(A, B)
    up = bk.hom_up_masks(A, B, homs)
    tables = value_tables(bk, homs)
    for i, f in enumerate(homs):
        for j, g in enumerate(homs):
            n = len(groups.get((tables[i], tables[j]), []))
            want = up[i] >> j & 1
            if n != want:
                return False, ("pair", f, g, n, want)
    return True, None


def arrow_object(bk, Y):
    """Pairs (y, y') with y <= y' inside Y x Y, ordered componentwise."""
    pd = bk.product(Y, Y)
    members = {
        p: frozenset(
            x
            for x in bk.at(pd.obj, p)
            if bk.leq_at(Y, p, pd.unpack(p, x)[0], pd.unpack(p, x)[1])
        )
        for p in bk.stages(Y)
    }
    sub, incl = bk.subobject(pd.obj, members)
    return sub, incl


def phoa_check(bk, Y):
    """The power of Y by the walking arrow is the exponential by Sigma."""
    sigma = bk.lift(bk.terminal())
    E = bk.exponential(sigma.obj, Y)
    arrow, _ = arrow_object(bk, Y)
    return bk.iso(E.obj, arrow) is not None


def _is_point(bk, X) -> bool:
    """Whether X is isomorphic to 1: one element at every stage makes the
    map to 1 a natural bijection, and the restrictions of X are forced."""
    return all(len(bk.at(X, p)) == 1 for p in bk.stages(X))


def top_opfibration_check(bk):
    """The walking-arrow power of 1 and the comma of top into Sigma are points."""
    one = bk.terminal()
    if not _is_point(bk, arrow_object(bk, one)[0]):
        return False
    sigma = bk.lift(one)
    top = sigma.unit  # 1 -> Sigma picks the top truth value
    members = {
        p: frozenset(
            s
            for s in bk.at(sigma.obj, p)
            if bk.leq_at(sigma.obj, p, bk.app(top, p, "*"), s)
        )
        for p in bk.stages(sigma.obj)
    }
    comma, _ = bk.subobject(sigma.obj, members)
    return _is_point(bk, comma)


# ---------------------------------------------------------------------------
# The open classifier.

def open_classifier_check(bk, A, opens=None):
    """Sigma = L1 classifies the Scott-open subobjects of A: their
    characteristic maps are exactly the maps A -> Sigma, one per open, and
    each open is the preimage of the top.  ``opens`` (stage -> members
    dicts) defaults to A's Scott-open subobjects."""
    sig = bk.lift(bk.terminal())
    if opens is None:
        opens = bk.scott_open_subobjects(A)

    def chi(U):
        return bk.mor_from_fn(
            A,
            sig.obj,
            lambda p, a: sig.from_family(
                p, [(q, "*") for q in bk.base_down(p) if bk.res_el(A, p, q, a) in U[q]]
            ),
        )

    chis = [chi(U) for U in opens]
    found, homs = set(chis), set(bk.hom(A, sig.obj))
    if found != homs or len(found) != len(opens):
        return False, f"{len(found)} characteristic maps vs {len(homs)} maps into sigma"
    for U, f in zip(opens, chis):
        for p in bk.stages(A):
            top = bk.app(sig.unit, p, "*")
            recovered = frozenset(a for a in bk.at(A, p) if bk.app(f, p, a) == top)
            if recovered != frozenset(U[p]):
                return False, f"pullback of top recovers {recovered} not {frozenset(U[p])}"
    return True, None


# ---------------------------------------------------------------------------
# Partial maps and the partial product.

def make_partial_map(bk, A, B, members: dict, value_fn) -> PartialMap:
    if not bk.is_scott_open(A, members):
        raise StructureError("scott-openness", "the domain is not a Scott-open subobject")
    sub, incl = bk.subobject(A, members)
    value = bk.mor_from_fn(sub, B, value_fn)
    canon = tuple((p, frozenset(members.get(p, ()))) for p in bk.stages(A))
    return PartialMap(A, B, canon, sub, incl, value)


def enumerate_partial_maps(bk, A, B) -> list[PartialMap]:
    out = []
    for members in bk.scott_open_subobjects(A):
        sub, incl = bk.subobject(A, members)
        canon = tuple((p, frozenset(members.get(p, ()))) for p in bk.stages(A))
        for value in bk.hom(sub, B):
            out.append(PartialMap(A, B, canon, sub, incl, value))
    return out


def partial_map_leq(bk, pm1: PartialMap, pm2: PartialMap) -> bool:
    m1, m2 = dict(pm1.members), dict(pm2.members)
    for p in bk.stages(pm1.src):
        if not m1[p] <= m2[p]:
            return False
    return all(
        bk.leq_at(pm1.tgt, p, bk.app(pm1.value, p, x), bk.app(pm2.value, p, x))
        for p in bk.stages(pm1.src)
        for x in m1[p]
    )


def partial_to_total(bk, pm: PartialMap):
    """The classifying map A -> L(tgt) of a partial map."""
    mem = dict(pm.members)
    ld = bk.lift(pm.tgt)

    def fn(p, a):
        items = []
        for q in bk.base_down(p):
            aq = bk.res_el(pm.src, p, q, a)
            if aq in mem[q]:
                items.append((q, bk.app(pm.value, q, aq)))
        return ld.from_family(p, items)

    return bk.mor_from_fn(pm.src, ld.obj, fn)


def total_to_partial(bk, f, A, B) -> PartialMap:
    """Recover the span from a map A -> LB: the domain is where f is a unit image."""
    ld = bk.lift(B)
    members = {
        p: frozenset(a for a in bk.at(A, p) if ld.as_eta(p, bk.app(f, p, a)) is not None)
        for p in bk.stages(A)
    }
    return make_partial_map(bk, A, B, members, lambda p, a: ld.as_eta(p, bk.app(f, p, a)))


def partial_product_check(bk, A, B):
    """The two translations are mutually inverse order-preserving bijections."""
    ld = bk.lift(B)
    pms = enumerate_partial_maps(bk, A, B)
    totals = [partial_to_total(bk, pm) for pm in pms]
    if len(set(totals)) != len(totals):
        return False, "classifying maps collide"
    if set(totals) != set(bk.hom(A, ld.obj)):
        return False, "classifying maps do not exhaust the hom-set"
    for pm, tot in zip(pms, totals):
        back = total_to_partial(bk, tot, A, B)
        if (back.members, back.value) != (pm.members, pm.value):
            return False, ("roundtrip", pm.members)
    up = bk.hom_up_masks(A, ld.obj, totals)
    for i, pm1 in enumerate(pms):
        for j, pm2 in enumerate(pms):
            if partial_map_leq(bk, pm1, pm2) != up[i] >> j & 1:
                return False, ("order", pm1.members, pm2.members)
    return True, None


# ---------------------------------------------------------------------------
# Positivity and freeness.

def positive_elements(bk, X):
    """The positive part of an algebra carrier, as a stage-indexed subset."""
    if not bk.is_pointed(X):
        raise StructureError("pointedness", "positivity is computed on algebra carriers")
    return bk.positive_elements(X)


def free_on_positives_check(bk, X):
    """Build L(X+) and test the canonical strict extension of the inclusion.

    Returns (is_iso, the canonical map).  Raises UnavailableError if the
    positive part fails the backend's dcpo check.
    """
    members = positive_elements(bk, X)
    P, incl = bk.subobject(X, members)
    ok, witness = bk.is_dcpo(P)
    if not ok:
        raise UnavailableError("positive part is not directed-complete", witness)
    ld = bk.lift(P)
    c0 = bk.bottom_point(X)
    h = bk.scone_induced(ld, c0, incl)
    return bk.is_iso(h), h


def conservativity_check(bk, f):
    """The unit naturality square at f is a pullback, and L reflects isos."""
    A, B = f.dom, f.cod
    la, lb = bk.lift(A), bk.lift(B)
    lf = bk.lift_map(f)
    if bk.compose(lf, la.unit) != bk.compose(lb.unit, f):
        return False, "naturality square does not commute"
    for p in bk.stages(A):
        for u in bk.at(la.obj, p):
            for b in bk.at(B, p):
                if bk.app(lf, p, u) != bk.app(lb.unit, p, b):
                    continue
                cands = [
                    a
                    for a in bk.at(A, p)
                    if bk.app(la.unit, p, a) == u and bk.app(f, p, a) == b
                ]
                if len(cands) != 1:
                    return False, ("fiber", p, u, b, len(cands))
    if bk.is_iso(lf) and not bk.is_iso(f):
        return False, "functorial image is invertible but the map is not"
    return True, None
