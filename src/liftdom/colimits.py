"""Finite colimits of dcpos and of lifting algebras.

Colimits are computed from finite coproducts and a coequaliser quotient;
universal properties are then verified by exhaustion against a bounded
catalog of competing apexes.  The algebra-level constructions check, on
each instance, that the lifting functor preserves the colimit, lift the
structure map through the comparison, and verify the lifted cocone is
colimiting among algebras.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from .backend import UnavailableError
from .lifting import (
    algebra_structure,
    all_algebra_structures,
    is_algebra,
    is_homomorphism,
    restriction_groups,
    strict_hom_set,
    value_tables,
)
from .order import StructureError, _solve


@dataclass(frozen=True)
class Diagram:
    """A finite directed multigraph with objects on nodes and maps on edges."""

    nodes: tuple
    edges: tuple  # (edge name, src node, dst node)
    objects: Any  # node -> object (dict)
    arrows: Any  # edge name -> morphism (dict)

    def __post_init__(self):
        for name, s, t in self.edges:
            if s not in self.nodes or t not in self.nodes:
                raise StructureError("membership", f"edge {name!r} leaves the node set")
            f = self.arrows[name]
            if f.dom != self.objects[s] or f.cod != self.objects[t]:
                raise StructureError("composability", f"arrow {name!r} has wrong endpoints")

    def is_connected(self) -> bool:
        if not self.nodes:
            return False
        parent = {n: n for n in self.nodes}

        def find(n):
            while parent[n] != n:
                parent[n] = parent[parent[n]]
                n = parent[n]
            return n

        for _, s, t in self.edges:
            parent[find(s)] = find(t)
        return len({find(n) for n in self.nodes}) == 1


@dataclass
class ColimitResult:
    apex: Any
    legs: Any  # node -> morphism
    factor: Callable  # {node -> morphism to C} -> apex -> C, for a nonempty diagram


def nary_coproduct(bk, objs: list):
    """Iterated binary coproduct; returns (object, injections, cotupler)."""
    if not objs:
        empty = bk.initial()
        return empty, [], lambda fs, cod: bk.from_initial(cod)
    acc = objs[0]
    injs = [bk.identity(objs[0])]
    steps = []
    for X in objs[1:]:
        cd = bk.coproduct(acc, X)
        injs = [bk.compose(cd.inl, i) for i in injs] + [cd.inr]
        steps.append(cd)
        acc = cd.obj

    def cotupler(fs, cod):
        if len(fs) == 1:
            return fs[0]
        acc_map = fs[0]
        for cd, f in zip(steps, fs[1:]):
            acc_map = bk.cotuple(cd, acc_map, f)
        return acc_map

    return acc, injs, cotupler


def colimit(bk, d: Diagram) -> ColimitResult:
    """Colimit from coproducts plus one coequaliser, with a factorisation.

    The coequaliser identifies inj_s(x) with inj_t(e x) for every edge
    e : s -> t; without edges it coequalises the two maps out of the initial
    object, which identifies nothing."""
    objs = [d.objects[n] for n in d.nodes]
    T, injs, cot = nary_coproduct(bk, objs)
    node_inj = dict(zip(d.nodes, injs))
    srcs = [d.objects[s] for _, s, _ in d.edges]
    _, _, ecot = nary_coproduct(bk, srcs)
    f = ecot(
        [bk.compose(node_inj[t], d.arrows[name]) for name, _, t in d.edges], T
    )
    g = ecot([node_inj[s] for _, s, _ in d.edges], T)
    coeq = bk.coequalizer(f, g)
    legs = {n: bk.compose(coeq.proj, node_inj[n]) for n in d.nodes}

    def factor(cocone_legs):
        fs = [cocone_legs[n] for n in d.nodes]
        return bk.descend(coeq, cot(fs, fs[0].cod))

    return ColimitResult(coeq.obj, legs, factor)


def enumerate_cocones(bk, d: Diagram, P, leg_pool) -> list:
    """All commuting cocones under d with apex P whose legs X -> P come from
    ``leg_pool(X, P)``, by ``_solve`` over the nodes in order; each cocone
    is the tuple of its legs' value tables, in node order.  The value tables
    of each pool member and of its composite with each edge into its node are
    read before the search.  Each edge between a node and an earlier one is a
    join: the node's candidates are indexed by the table the edge makes them
    match, so the search visits, in pool order, only the candidates that
    every such edge admits."""
    pos = {n: i for i, n in enumerate(d.nodes)}
    pools = [list(leg_pool(d.objects[n], P)) for n in d.nodes]
    own = [value_tables(bk, pool) for pool in pools]
    fits = [(1 << len(pool)) - 1 for pool in pools]
    # joins[i]: (j, admit) per edge between node i and an earlier node j;
    # admit[k] is the mask of node i's candidates that fit j's candidate k
    joins: list = [[] for _ in pools]
    for name, s, t in d.edges:
        i, j = pos[s], pos[t]
        along = value_tables(bk, pools[j], d.arrows[name])  # leg_t . e, per leg_t
        if i == j:
            fits[i] &= sum(1 << k for k, (a, o) in enumerate(zip(along, own[i])) if a == o)
        elif i < j:
            joins[j].append((i, _admits(along, own[i])))
        else:
            joins[i].append((j, _admits(own[i], along)))
    out: list = []
    _solve(fits, joins, lambda picked: out.append(tuple([tables[k] for tables, k in zip(own, picked)])))
    return out


def _admits(tables, keys) -> list:
    """For each of ``keys``, the mask of the positions in ``tables`` equal to it."""
    index: dict = {}
    for k, table in enumerate(tables):
        index[table] = index.get(table, 0) | 1 << k
    return [index.get(key, 0) for key in keys]


def _unique_mediators(bk, d: Diagram, res: ColimitResult, apexes, homs, label) -> tuple:
    """Exactly one mediator in ``homs(res.apex, P)`` to every cocone under d
    with apex P in ``apexes`` and legs in ``homs``: the mediators are grouped
    by the value tables of their composites with the legs once per apex,
    then each cocone is looked up by its legs' value tables, which the
    cocone search has already read."""
    res_legs = [res.legs[n] for n in d.nodes]
    for P in apexes:
        groups = restriction_groups(bk, homs(res.apex, P), res_legs)
        for key in enumerate_cocones(bk, d, P, homs):
            count = len(groups.get(key, ()))
            if count != 1:
                return False, (label, P, count)
    return True, None


def colimit_universal_check(bk, d: Diagram, res: ColimitResult, apexes) -> tuple:
    """Exactly one mediating map to every competing cocone in the catalog."""
    if not all(bk.compose(res.legs[t], d.arrows[name]) == res.legs[s] for name, s, t in d.edges):
        return False, "colimit legs do not commute"
    return _unique_mediators(bk, d, res, apexes, bk.hom, "cocone")


def colimits_enriched_check(bk, d: Diagram, res: ColimitResult, apexes) -> tuple:
    """If two mediating comparisons agree laxly after the legs, they agree laxly."""
    for P in apexes:
        homs = bk.hom(res.apex, P)
        after = [(1 << len(homs)) - 1] * len(homs)
        for n in d.nodes:
            legged = bk.hom_up_masks(d.objects[n], P, homs, res.legs[n])
            after = [a & m for a, m in zip(after, legged)]
        for k, (a, full) in enumerate(zip(after, bk.hom_up_masks(res.apex, P, homs))):
            if diff := a ^ full:
                return False, ("pair", P, homs[k], homs[(diff & -diff).bit_length() - 1])
    return True, None


def lift_diagram(bk, d: Diagram) -> Diagram:
    objects = {n: bk.lift(d.objects[n]).obj for n in d.nodes}
    arrows = {name: bk.lift_map(d.arrows[name]) for name, _, _ in d.edges}
    return Diagram(d.nodes, d.edges, objects, arrows)


def lift_algebra_to_colimit(bk, d: Diagram):
    """Lift the underlying colimit of a connected algebra diagram.

    Returns (result, beta, comparison): the underlying colimit, the induced
    structure map on its apex, and the iso witnessing that lifting
    preserves the colimit.
    """
    if not d.is_connected():
        raise StructureError("connectedness", "use the coproduct construction instead")
    alphas = {}
    for n in d.nodes:
        alg = algebra_structure(bk, d.objects[n])
        if alg is None:
            raise StructureError("pointedness", f"node {n!r} carries no algebra structure")
        alphas[n] = alg.structure
    res = colimit(bk, d)
    ld = lift_diagram(bk, d)
    res_l = colimit(bk, ld)
    comparison = res_l.factor({n: bk.lift_map(res.legs[n]) for n in d.nodes})
    inv = bk.inverse(comparison)
    if inv is None:
        raise UnavailableError("lifting does not preserve this colimit", None)
    beta_on_l = res_l.factor({n: bk.compose(res.legs[n], alphas[n]) for n in d.nodes})
    beta = bk.compose(beta_on_l, inv)
    if not is_algebra(bk, res.apex, beta):
        raise StructureError("algebra-laws", "the induced structure map fails the laws")
    for n in d.nodes:
        if not is_homomorphism(bk, res.legs[n], alphas[n], beta):
            raise StructureError("homomorphism", f"leg at {n!r} fails to be linear")
    return res, beta, comparison


def creation_check(bk, d: Diagram, apexes) -> tuple:
    """The forgetful functor creates this connected colimit.

    Checks: the lifted structure exists, is the unique algebra structure on
    the apex, and the algebra cocone is colimiting among algebras in the
    catalog (strict legs, strict mediating maps, by exhaustion).
    """
    if not d.is_connected():
        return False, "diagram is not connected"
    try:
        res, beta, _ = lift_algebra_to_colimit(bk, d)
    except (StructureError, UnavailableError) as e:
        return False, f"lifting failed: {e}"
    structures = all_algebra_structures(bk, res.apex)
    if structures != [beta]:
        return False, ("structure not unique", len(structures))
    pointed = [P for P in apexes if bk.is_pointed(P)]
    return _unique_mediators(bk, d, res, pointed, lambda X, C: strict_hom_set(bk, X, C), "algebra cocone")


def coproduct_algebras(bk, X, Y):
    """Coproduct of algebras by the standard reflexive coequaliser.

    Returns (Q, beta, inj_x, inj_y).
    """
    ax, ay = bk.algebra_structure(X), bk.algebra_structure(Y)
    if ax is None or ay is None:
        raise StructureError("pointedness", "coproduct of algebras needs pointed inputs")
    lx, ly = bk.lift(X), bk.lift(Y)
    cd = bk.coproduct(X, Y)
    lcd = bk.coproduct(lx.obj, ly.obj)
    l_of_sum = bk.lift(cd.obj)
    # leg (a): L of the cotupled structure maps
    fold = bk.cotuple(lcd, bk.compose(cd.inl, ax), bk.compose(cd.inr, ay))
    leg_a = bk.lift_map(fold)
    # leg (b): multiplication after L of the cotupled lifted inclusions
    incls = bk.cotuple(lcd, bk.lift_map(cd.inl), bk.lift_map(cd.inr))
    leg_b = bk.compose(bk.mult(cd.obj), bk.lift_map(incls))
    # common section: L of the unit placed on each summand
    section = bk.lift_map(
        bk.cotuple(cd, bk.compose(lcd.inl, lx.unit), bk.compose(lcd.inr, ly.unit))
    )
    if bk.compose(leg_a, section) != bk.identity(l_of_sum.obj):
        raise StructureError("reflexivity", "section fails the first leg")
    if bk.compose(leg_b, section) != bk.identity(l_of_sum.obj):
        raise StructureError("reflexivity", "section fails the second leg")
    coeq = bk.coequalizer(leg_a, leg_b)
    alg = algebra_structure(bk, coeq.obj)
    if alg is None:
        raise StructureError("pointedness", "coequaliser apex lost its bottom")
    inj_x = bk.compose(coeq.proj, bk.compose(l_of_sum.unit, cd.inl))
    inj_y = bk.compose(coeq.proj, bk.compose(l_of_sum.unit, cd.inr))
    for inj, a in ((inj_x, ax), (inj_y, ay)):
        if not is_homomorphism(bk, inj, a, alg.structure):
            raise StructureError("homomorphism", "coproduct injection is not linear")
    return coeq.obj, alg.structure, inj_x, inj_y


def coproduct_algebras_universal_check(bk, X, Y, apexes) -> tuple:
    """Pairs of strict maps out of X and Y correspond to strict maps out of
    the coproduct, uniquely, for every pointed apex in the catalog."""
    Q, beta, inj_x, inj_y = coproduct_algebras(bk, X, Y)
    for P in apexes:
        if not bk.is_pointed(P):
            continue
        groups = restriction_groups(bk, strict_hom_set(bk, Q, P), (inj_x, inj_y))
        fs, gs = value_tables(bk, strict_hom_set(bk, X, P)), value_tables(bk, strict_hom_set(bk, Y, P))
        for f in fs:
            for g in gs:
                count = len(groups.get((f, g), ()))
                if count != 1:
                    return False, ("pair", P, count)
    return True, (Q, inj_x, inj_y)
