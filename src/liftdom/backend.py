"""The two enumerable backends behind one categorical surface.

A backend packages a locally-posetal category with enough structure for
every check in this package: finite products and coproducts, hom-set
enumeration with its pointwise order, iso search, quotients, exponentials,
and the lifting construction with its unit, bottom, multiplication and
strength.  The classical backend is finite posets with monotone maps
(= finite dcpos); the presheaf backend is internal dcpos in presheaves
over a finite base poset, with internally Scott-continuous maps.

Generic element-level code addresses both through the same stage API:
the classical backend has the single stage ``None``.

A backend supplies only what depends on how it stores objects and maps:

* the stage API: ``stages``, ``base_down``, ``at``, ``stage_poset``,
  ``leq_at``, ``res_el`` and ``app``;
* ``_build(elements, restrict, order)``, which turns stagewise data into
  an object (``elements(p)`` lists the elements at stage p,
  ``restrict(p, q, x)`` restricts x to a stage q < p, and
  ``order(p, els)`` gives the order on the elements ``els`` at p as
  up-mask rows aligned with ``els``, see ``order.py``; unvalidated
  classically; in presheaves the rows go to ``FinPoset.from_rows`` and
  the restriction values to ``InternalPoset``, which both validate),
  ``mor_from_fn``, which turns a stagewise function into a validated map,
  and ``_derived_mor``, the same for a map valid by construction from
  valid inputs (unvalidated classically, see ``order.py``'s trust
  boundary; validating in presheaves, where ``NatTrans`` runs the one
  map check ``order._check_map`` on each component); ``identity``, ``compose``,
  ``terminal`` and ``initial``;
* the hom enumerator ``_hom``, ``hom_leq`` and ``iso``;
* the lift ``_lift``: only the object LA, its unit, its bottom and the
  codec of its elements (``LiftData.family`` and ``from_family``);
* the map ``scone_induced`` that a cone datum induces out of a lift, and
  ``bottom_point``;
* coequalisers, exponentials, Scott-open subobjects, pointedness,
  directed completeness and positivity.

The shared base ``_ConstructionCache`` derives the rest, once for both
backends: ``bang``, ``from_initial``, ``global_elements``, ``inverse``
with ``is_iso``, ``subobject`` with its inclusion, ``descend`` (the map
out of a quotient that a coequalising map induces), products with
``pair``, coproducts with ``cotuple``, the lifting monad's
``lift_map``, ``mult`` and ``strength`` over the lift's element codec,
the fold of a pointed dcpo A, the map
``scone_induced(lift(A), bottom, identity(A))``, and ``hom_up_masks``,
the pointwise order of a list of parallel maps, or of the maps after one
leg, as up-mask rows.  Every map it derives from valid maps goes through
``_derived_mor`` (``inverse`` and ``descend`` do not), behind the
composability checks ``compose`` keeps.  It also memoises the object
constructions, and ``hom`` memoises each hom-set that ``_hom`` enumerates;
both caches live as long as the backend, except what a ``scope`` block
adds, which the block's end drops.  Both backends' hom enumeration and iso
search run the one backtracking search ``order._order_search``.  Outside
this module only ``report.fmt`` knows how a lift element is stored; other
code reads an element's partial family with ``LiftData.family`` and builds
one with ``LiftData.from_family``.
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable

from . import presheaf as ps
from .order import (
    FinPoset,
    MonotoneMap,
    StructureError,
    _restrict_rows,
    _up_masks,
    compose,
    enumerate_monotone_maps,
    map_leq,
    poset_iso,
    quotient_poset,
)


# The classical terminal and initial objects; posets compare structurally,
# so one shared value serves every caller.
TERMINAL = FinPoset(("*",), frozenset([("*", "*")]))
INITIAL = FinPoset((), frozenset())


def _le_rows(els, le) -> tuple:
    """The up-mask rows of the relation ``le`` on ``els``."""
    return tuple(sum(1 << j for j, y in enumerate(els) if le(x, y)) for x in els)


def _composable(have: tuple, want: tuple):
    """The cheap check a derived map keeps: its legs' ends are the objects
    the construction expects."""
    if have != want:
        raise StructureError("composability", "codomain/domain mismatch")


class UnavailableError(Exception):
    """A construction the backend refuses to guess at; carries the reason."""

    def __init__(self, reason: str, witness=None):
        super().__init__(reason)
        self.reason = reason
        self.witness = witness


@dataclass
class ProductData:
    obj: Any
    fst: Any
    snd: Any
    pack: Callable  # (stage, a, b) -> element
    unpack: Callable  # (stage, x) -> (a, b)


@dataclass
class CoproductData:
    obj: Any
    inl: Any
    inr: Any
    mk_l: Callable
    mk_r: Callable
    unpack: Callable  # (stage, x) -> ("l", a) or ("r", b)


@dataclass
class LiftData:
    """The lift LA with its unit and bottom, and the codec of its elements.

    An element u of LA at stage p is a partial family of A-elements on a
    sieve below p.  ``family(p, u)`` lists its (stage, element) pairs in
    stage order, and ``from_family(p, items)`` builds the element from such
    a list, so the two invert each other.  The unit sends a to the total
    family of a's restrictions, and the bottom is the empty family.
    """

    obj: Any
    unit: Any  # A -> LA
    bottom: Any  # 1 -> LA
    family: Callable  # (stage, u) -> ((stage' <= stage, a), ...), u's partial family
    from_family: Callable  # (stage, ((stage', a), ...)) -> u

    def is_bot(self, st, u) -> bool:
        return not self.family(st, u)

    def bot_elem(self, st):
        return self.from_family(st, ())

    def as_eta(self, st, u):
        """The a with u = unit(a), or None: a sieve below st holds st itself
        exactly when it is all of st's down-set."""
        return dict(self.family(st, u)).get(st)


@dataclass
class CoeqData:
    obj: Any
    proj: Any  # B -> Q; Q's elements are representatives of B's elements


@dataclass
class ExpData:
    obj: Any
    apply_elem: Callable  # (stage, fn-element, stage' <= stage, a) -> b
    encode: Callable  # (stage, {stage' -> {a -> b}}) -> fn-element


class _ConstructionCache:
    """The shared base: memoised object constructions and hom-sets
    (structural equality makes hits cheap), and every construction that the
    stage API, ``_build`` and ``mor_from_fn`` determine, written once for
    both backends.  Both caches live as long as the backend, except what a
    ``scope`` block adds: ``smash-presentations`` scopes each of its 625
    pairs, which cuts its ``tracemalloc`` peak from 9.9 to 1.3-2.8 MiB and
    the ``suite`` benchmark's peak RSS from 32.1 to 27.0 MB."""

    def _init_caches(self):
        # object.__setattr__, because the presheaf backend is frozen
        object.__setattr__(self, "_memo", {})
        object.__setattr__(self, "_hom_cache", {})

    def memo(self, key, thunk):
        if key not in self._memo:
            self._memo[key] = thunk()
        return self._memo[key]

    @contextmanager
    def scope(self):
        """A block whose memo and hom-set entries are dropped when it ends,
        by an exception too; entries made before it stay, even those it
        reads.  Exact: both caches insert only missing keys and dicts keep
        insertion order, so what the block added is each dict's tail."""
        marks = [(d, len(d)) for d in (self._memo, self._hom_cache)]
        try:
            yield
        finally:
            for d, mark in marks:
                for _ in range(len(d) - mark):
                    d.popitem()

    def product(self, A, B) -> ProductData:
        return self.memo(("product", A, B), lambda: self._product(A, B))

    def coproduct(self, A, B) -> CoproductData:
        return self.memo(("coproduct", A, B), lambda: self._coproduct(A, B))

    def lift(self, A) -> LiftData:
        return self.memo(("lift", A), lambda: self._lift(A))

    def mult(self, A):
        return self.memo(("mult", A), lambda: self._mult(A))

    def strength(self, A, B):
        return self.memo(("strength", A, B), lambda: self._strength(A, B))

    def algebra_structure(self, A):
        return self.memo(("algebra", A), lambda: self._algebra_structure(A))

    def exponential(self, A, B) -> ExpData:
        return self.memo(("exp", A, B), lambda: self._exponential(A, B))

    def hom(self, A, B) -> tuple:
        """The maps A -> B in the backend's enumeration order, enumerated
        once per pair by ``_hom``."""
        key = (A, B)
        if key not in self._hom_cache:
            self._hom_cache[key] = tuple(self._hom(A, B))
        return self._hom_cache[key]

    # -- derived from the stage API ------------------------------------------
    def hom_up_masks(self, A, B, maps, leg=None) -> list[int]:
        """Bit j of up[k] is ``hom_leq(maps[k] . leg, maps[j] . leg)``, leg
        out of A (the identity when None), by ``_up_masks`` on one column per
        element of A at each stage, read through the leg: no composite is built."""
        app, columns = self.app, []
        for p in self.stages(A):
            P, points = self.stage_poset(B, p), self.at(A, p)
            points = points if leg is None else [app(leg, p, x) for x in points]
            columns += [([P._index[app(f, p, y)] for f in maps], P._rows) for y in points]
        return _up_masks(len(maps), columns)

    def bang(self, A):
        return self._derived_mor(A, self.terminal(), lambda p, x: "*")

    def from_initial(self, A):
        return self._derived_mor(self.initial(), A, lambda p, x: x)

    def global_elements(self, A) -> tuple:
        return self.hom(self.terminal(), A)

    def inverse(self, f):
        """The inverse of f, or None.  f must be a bijection at every stage,
        and the stagewise inverse a map: natural and monotone, so that f is
        a natural stagewise order-iso.  Such an iso carries every internal
        supremum to a supremum, so the inverse needs no continuity check."""
        back = {}
        for p in self.stages(f.dom):
            xs = self.at(f.dom, p)
            back[p] = {self.app(f, p, x): x for x in xs}
            if len(back[p]) != len(xs) or len(xs) != len(self.at(f.cod, p)):
                return None
        try:
            return self.mor_from_fn(f.cod, f.dom, lambda p, y: back[p][y])
        except StructureError:
            return None

    def is_iso(self, f) -> bool:
        return self.inverse(f) is not None

    def subobject(self, A, members: dict):
        """The subobject of A on ``members`` (stage -> elements) with the
        induced order, and its inclusion; elements keep A's order."""

        def order(p, els):
            P = self.stage_poset(A, p)
            return _restrict_rows(P._rows, [P._index[x] for x in els])

        def elements(p):
            keep = members.get(p, ())
            return tuple(x for x in self.at(A, p) if x in keep)

        sub = self._build(elements, lambda p, q, x: self.res_el(A, p, q, x), order)
        return sub, self._derived_mor(sub, A, lambda p, x: x)

    def descend(self, q, f):
        """The h with h ∘ q == f, for a quotient map q out of f's domain.
        q's codomain holds representatives of the elements of q's domain
        (as ``CoeqData`` states), so h is f evaluated at each of them.
        Raises StructureError when f does not descend."""
        h = self.mor_from_fn(q.cod, f.cod, lambda p, x: self.app(f, p, x))
        if self.compose(h, q) != f:
            raise StructureError("factorisation", "map does not descend to the quotient")
        return h

    def _product(self, A, B) -> ProductData:
        def order(p, els):
            # (a, b) sits at index i * nb + j, and (a', b') lies above it
            # when a' is in row i of A and b' in row j of B: spread row i
            # of A to one bit per block of nb, then multiply by row j of B
            rows_b = self.stage_poset(B, p)._rows
            nb = len(rows_b)
            spread = [sum(1 << k * nb for k in range(row.bit_length()) if row >> k & 1)
                      for row in self.stage_poset(A, p)._rows]
            return tuple(s * rb for s in spread for rb in rows_b)

        P = self._build(
            lambda p: tuple(("pr", a, b) for a in self.at(A, p) for b in self.at(B, p)),
            lambda p, q, x: ("pr", self.res_el(A, p, q, x[1]), self.res_el(B, p, q, x[2])),
            order,
        )
        return ProductData(
            P,
            self._derived_mor(P, A, lambda p, x: x[1]),
            self._derived_mor(P, B, lambda p, x: x[2]),
            lambda st, a, b: ("pr", a, b),
            lambda st, x: (x[1], x[2]),
        )

    def pair(self, pd: ProductData, f, g):
        _composable((f.dom, f.cod, g.cod), (g.dom, pd.fst.cod, pd.snd.cod))
        app = self.app
        return self._derived_mor(f.dom, pd.obj, lambda p, x: ("pr", app(f, p, x), app(g, p, x)))

    def _coproduct(self, A, B) -> CoproductData:
        def order(p, els):
            # A's elements, then B's shifted past them
            rows_a = self.stage_poset(A, p)._rows
            return rows_a + tuple(row << len(rows_a) for row in self.stage_poset(B, p)._rows)

        C = self._build(
            lambda p: tuple(("in", 0, a) for a in self.at(A, p))
            + tuple(("in", 1, b) for b in self.at(B, p)),
            lambda p, q, x: ("in", x[1], self.res_el(A if x[1] == 0 else B, p, q, x[2])),
            order,
        )
        return CoproductData(
            C,
            self._derived_mor(A, C, lambda p, a: ("in", 0, a)),
            self._derived_mor(B, C, lambda p, b: ("in", 1, b)),
            lambda st, a: ("in", 0, a),
            lambda st, b: ("in", 1, b),
            lambda st, x: ("l", x[2]) if x[1] == 0 else ("r", x[2]),
        )

    def cotuple(self, cd: CoproductData, f, g):
        _composable((f.dom, g.dom, f.cod), (cd.inl.dom, cd.inr.dom, g.cod))

        def fn(p, x):
            side, v = cd.unpack(p, x)
            return self.app(f if side == "l" else g, p, v)

        return self._derived_mor(cd.obj, f.cod, fn)

    # -- the lifting monad, over the lift's element codec ---------------------
    def lift_map(self, f):
        la, lb = self.lift(f.dom), self.lift(f.cod)
        app, family, from_family = self.app, la.family, lb.from_family
        return self._derived_mor(
            la.obj, lb.obj, lambda p, u: from_family(p, [(q, app(f, q, v)) for q, v in family(p, u)])
        )

    def _mult(self, A):
        """At each stage r of the outer family, keep the value that the inner
        family, an element of LA at r, holds at r itself."""
        la = self.lift(A)
        lla = self.lift(la.obj)
        return self._derived_mor(
            lla.obj,
            la.obj,
            lambda p, w: la.from_family(
                p, [(r, v) for r, inner in lla.family(p, w) for s, v in la.family(r, inner) if s == r]
            ),
        )

    def _strength(self, A, B):
        lb = self.lift(B)
        pd = self.product(A, lb.obj)
        pab = self.product(A, B)
        lab = self.lift(pab.obj)
        res_el = self.res_el

        def st(p, x):
            a, u = pd.unpack(p, x)
            return lab.from_family(p, [(q, pab.pack(q, res_el(A, p, q, a), v)) for q, v in lb.family(p, u)])

        return self._derived_mor(pd.obj, lab.obj, st)

    def _algebra_structure(self, A):
        """The fold LA -> A that the cone datum (bottom, identity) induces,
        or None unless A is a pointed dcpo."""
        if not self.is_pointed(A) or not self.is_dcpo(A)[0]:
            return None
        return self.scone_induced(self.lift(A), self.bottom_point(A), self.identity(A))


class ClassicalBackend(_ConstructionCache):
    """Finite posets and monotone maps; every finite poset is a dcpo."""

    name = "classical"

    def __init__(self):
        self._init_caches()

    # -- stage API ----------------------------------------------------------
    def stages(self, A) -> tuple:
        return (None,)

    def base_down(self, p) -> tuple:
        return (None,)

    def at(self, A, stage) -> tuple:
        return A.elements

    def stage_poset(self, A, stage) -> FinPoset:
        return A

    def leq_at(self, A, stage, x, y) -> bool:
        return A.leq(x, y)

    def res_el(self, A, p, q, x):
        return x

    def app(self, f, stage, x):
        # f(x) inlined: generic code applies maps once per element
        return f.values[f.dom._index[x]]

    # -- category -----------------------------------------------------------
    def identity(self, A):
        return MonotoneMap.identity(A)

    def compose(self, g, f):
        return compose(g, f)

    def mor_from_fn(self, A, B, fn):
        return MonotoneMap(A, B, tuple(fn(None, x) for x in A.elements))

    def _derived_mor(self, A, B, fn):
        return MonotoneMap._trusted(A, B, tuple([fn(None, x) for x in A.elements]))

    def terminal(self):
        return TERMINAL

    def initial(self):
        return INITIAL

    def _build(self, elements, restrict, order):
        # unvalidated: the shared base passes the product, coproduct or
        # induced order of valid posets
        els = elements(None)
        return FinPoset._trusted(els, order(None, els))

    def _hom(self, A, B):
        return enumerate_monotone_maps(A, B)

    def hom_leq(self, f, g) -> bool:
        return map_leq(f, g)

    def iso(self, A, B):
        return poset_iso(A, B)

    def is_dcpo(self, A):
        return True, None

    # -- pointedness and subobjects ------------------------------------------
    def is_pointed(self, A) -> bool:
        return A.is_pointed()

    def bottom_point(self, A):
        """The global element picking A's least element, or None."""
        b = A.bottom()
        return None if b is None else MonotoneMap._trusted(TERMINAL, A, (b,))

    def scott_open_subobjects(self, A) -> list[dict]:
        from .order import scott_opens

        return [{None: frozenset(S.members)} for S in scott_opens(A)]

    def is_scott_open(self, A, members: dict) -> bool:
        from .order import is_up_closed

        return is_up_closed(A, members[None])

    # -- lifting -------------------------------------------------------------
    def fresh_bottom_label(self, A):
        label = "⊥"
        while label in A._index:
            label += "'"
        return label

    def _lift(self, A) -> LiftData:
        bot = self.fresh_bottom_label(A)
        els = (bot,) + A.elements
        LA = FinPoset._trusted(els, ((1 << len(els)) - 1,) + tuple(row << 1 for row in A._rows))
        unit = MonotoneMap._trusted(A, LA, A.elements)
        bottom = MonotoneMap._trusted(TERMINAL, LA, (bot,))
        # one codec per bottom label: the thousands of lifts of a law share a few
        codec = self.memo(("codec", bot), lambda: (
            lambda st, u: () if u == bot else ((st, u),),
            lambda st, items: items[0][1] if items else bot,
        ))
        return LiftData(LA, unit, bottom, *codec)

    def scone_induced(self, ld: LiftData, c0, c1):
        """The unique map LA -> C with h(bot) = c0 and h(eta a) = c1 a."""
        A, C = c1.dom, c1.cod
        _composable((ld.unit.dom, c0.dom, c0.cod), (A, TERMINAL, C))
        bot = c0.values[0]
        # c0's one value against each of c1's, without composing c0 with the bang
        if not all(C.leq(bot, c) for c in c1.values):
            raise StructureError("laxness", "bottom leg must sit below the top leg")
        # monotone by laxness: c0 sits below every c1 a, as bottom below eta a
        vals = tuple([bot if ld.is_bot(None, u) else c1(u) for u in ld.obj.elements])
        return MonotoneMap._trusted(ld.obj, C, vals)

    def positive_elements(self, A) -> dict:
        """Elements x such that every semidirected set whose supremum lies
        above x is inhabited: every element but the bottom, or every element
        if A has none.  The empty family is the only semidirected set that
        is not inhabited, and its supremum is the bottom, so it lies above x
        only when x is the bottom."""
        b = A.bottom()
        return {None: frozenset(x for x in A.elements if b is None or x != b)}

    def coequalizer(self, f, g) -> CoeqData:
        if f.dom != g.dom or f.cod != g.cod:
            raise StructureError("composability", "maps are not parallel")
        B = f.cod
        Q, assign = quotient_poset(B, [(f(x), g(x)) for x in f.dom.elements])
        return CoeqData(Q, MonotoneMap._trusted(B, Q, tuple([assign[x] for x in B.elements])))

    def _exponential(self, A, B) -> ExpData:
        from .order import hom_poset

        E, mors = hom_poset(A, B)

        def apply_elem(stage, fe, stage2, a):
            return mors[fe](a)

        def encode(stage, comps: dict):
            mapping = comps[None]
            return ("fn",) + tuple(mapping[a] for a in A.elements)

        return ExpData(E, apply_elem, encode)


@dataclass(frozen=True)
class PresheafBackend(_ConstructionCache):
    """Internal dcpos over a finite base poset, with continuous maps."""

    base: ps.BasePoset
    name = "presheaf"

    def __post_init__(self):
        self._init_caches()
        # built once, as the classical constants are: the base never changes
        object.__setattr__(self, "_terminal", ps.InternalPoset.constant(self.base, TERMINAL))
        object.__setattr__(self, "_initial", ps.InternalPoset.constant(self.base, INITIAL))

    # -- stage API ----------------------------------------------------------
    def stages(self, A) -> tuple:
        return self.base.stages

    def base_down(self, p) -> tuple:
        return self.base.down_list(p)

    def at(self, A, stage) -> tuple:
        return A.at(stage)

    def stage_poset(self, A, stage) -> FinPoset:
        return A.stage_poset(stage)

    def leq_at(self, A, stage, x, y) -> bool:
        return A.leq_at(stage, x, y)

    def res_el(self, A, p, q, x):
        return A.res_el(p, q, x)

    def app(self, f, stage, x):
        return f.apply(stage, x)

    # -- category -----------------------------------------------------------
    def identity(self, A):
        return ps.NatTrans.identity(A)

    def compose(self, g, f):
        return ps.nt_compose(g, f)

    def mor_from_fn(self, A, B, fn):
        return ps.NatTrans.make(A, B, fn)

    # validating: trusted natural transformations showed no gain here
    _derived_mor = mor_from_fn

    def terminal(self):
        return self._terminal

    def initial(self):
        return self._initial

    def _build(self, elements, restrict, order):
        base = self.base
        sets = {p: elements(p) for p in base.stages}
        res = tuple(tuple(restrict(p, q, x) for x in sets[p]) for p, q in base.strict_pairs())
        return ps.InternalPoset(
            base, tuple(FinPoset.from_rows(els, order(p, els)) for p, els in sets.items()), res
        )

    def _hom(self, A, B):
        return ps.continuous_maps(A, B)

    def hom_leq(self, f, g) -> bool:
        return ps.nt_leq(f, g)

    def iso(self, A, B):
        """A natural stagewise order-iso pair, or None (first in search order)."""
        fwd = ps.natural_iso(A, B)
        return None if fwd is None else (fwd, self.inverse(fwd))

    def is_dcpo(self, A):
        return ps.is_internal_dcpo(A)

    # -- pointedness and subobjects ------------------------------------------
    def is_pointed(self, A) -> bool:
        return ps.is_internal_pointed(A)

    def bottom_point(self, A):
        fam = ps.internal_bottom(A)
        if fam is None:
            return None
        return ps.NatTrans.make(self.terminal(), A, lambda p, _: fam[p])

    def scott_open_subobjects(self, A) -> list[dict]:
        return [
            {p: U.at(p) for p in self.base.stages}
            for U in ps.scott_open_subpresheaves(A)
        ]

    def is_scott_open(self, A, members: dict) -> bool:
        try:
            U = ps.Subpresheaf.make(A, members)
        except StructureError:
            return False
        return ps.is_scott_open_subpresheaf(U)

    # -- lifting -------------------------------------------------------------
    def _lift(self, A) -> LiftData:
        base = self.base

        def elements(p):
            down, els = base.down_list(p), []
            for sieve in ps.sieves_on(base, p):
                S = tuple(q for q in down if q in sieve.members)
                els.extend(("lf", S, fam) for fam in ps.compatible_families(A, S))
            return tuple(els)

        def restrict(p, q, x):
            _, S, fam = x
            keep = [i for i, r in enumerate(S) if base.leq(r, q)]
            return ("lf", tuple(S[i] for i in keep), tuple(fam[i] for i in keep))

        def le(x, y):
            _, S, fam = x
            _, T, gam = y
            if not set(S) <= set(T):
                return False
            pos = {r: i for i, r in enumerate(T)}
            return all(A.leq_at(r, fam[i], gam[pos[r]]) for i, r in enumerate(S))

        LA = self._build(elements, restrict, lambda p, els: _le_rows(els, le))

        def eta(p, a):
            down = base.down_list(p)
            return ("lf", down, tuple(A.res_el(p, q, a) for q in down))

        return LiftData(
            LA,
            ps.NatTrans.make(A, LA, eta),
            ps.NatTrans.make(self.terminal(), LA, lambda p, _: ("lf", (), ())),
            lambda st, u: tuple(zip(u[1], u[2])),
            lambda st, items: ("lf", tuple(q for q, _ in items), tuple(v for _, v in items)),
        )

    def scone_induced(self, ld: LiftData, c0, c1):
        A = c1.dom
        C = c1.cod
        if not ps.nt_leq(self.compose(c0, self.bang(A)), c1):
            raise StructureError("laxness", "bottom leg must sit below the top leg")
        ok, w = ps.is_internal_dcpo(C)
        if not ok:
            raise UnavailableError("cone codomain is not an internal dcpo", w)

        def h(p, u):
            members = {
                q: {c0.apply(q, "*")} for q in self.base.stages if self.base.leq(q, p)
            }
            for q, v in ld.family(p, u):
                members[q] = members[q] | {c1.apply(q, v)}
            D = ps.Subpresheaf.make(C, members)
            s = ps.internal_sup(C, D, p)
            if s is None:
                raise UnavailableError("no internal supremum for induced cone map", (p, u))
            return s

        return ps.NatTrans.make(ld.obj, C, h)

    def positive_elements(self, A) -> dict:
        pos = ps.positive_members(A)
        return {p: pos.at(p) for p in self.base.stages}

    def coequalizer(self, f, g) -> CoeqData:
        if f.dom != g.dom or f.cod != g.cod:
            raise StructureError("composability", "maps are not parallel")
        B = f.cod
        base = self.base
        stage_data = {}
        for p in base.stages:
            seeds = [(f.apply(p, x), g.apply(p, x)) for x in f.dom.at(p)]
            stage_data[p] = quotient_poset(B.stage_poset(p), seeds)

        def restrict(p, q, rep):
            # every member of the class must restrict into one class
            images = {
                stage_data[q][1][B.res_el(p, q, x)]
                for x in B.at(p)
                if stage_data[p][1][x] == rep
            }
            if len(images) != 1:
                raise UnavailableError(
                    "stagewise quotient classes do not restrict coherently",
                    (p, q, rep),
                )
            return next(iter(images))

        Q = self._build(
            lambda p: stage_data[p][0].elements, restrict, lambda p, els: stage_data[p][0]._rows
        )
        ok, witness = ps.is_internal_dcpo(Q)
        if not ok:
            raise UnavailableError(
                "stagewise quotient is not an internal dcpo", witness
            )
        proj = ps.NatTrans.make(B, Q, lambda p, x: stage_data[p][1][x])
        if not ps.is_continuous(proj):
            raise UnavailableError("stagewise quotient projection is not continuous", None)
        return CoeqData(Q, proj)

    def _exponential(self, A, B) -> ExpData:
        base = self.base
        restricted = {}
        for p in base.stages:
            sub_base, Ap = ps.restrict_to(A, p)
            _, Bp = ps.restrict_to(B, p)
            maps = ps.continuous_maps(Ap, Bp)
            restricted[p] = (sub_base, Ap, Bp, maps)

        def encode_nt(p, nt):
            sub_base = restricted[p][0]
            return ("fn",) + tuple(
                (q,) + tuple(nt.apply(q, x) for x in A.at(q))
                for q in sub_base.stages
            )

        def decode(fe) -> dict:
            comp = {}
            for entry in fe[1:]:
                q, vals = entry[0], entry[1:]
                comp[q] = dict(zip(A.at(q), vals))
            return comp

        def le(x, y):
            cx, cy = decode(x), decode(y)
            return all(B.leq_at(q, cx[q][a], cy[q][a]) for q in cx for a in cx[q])

        E = self._build(
            lambda p: tuple(encode_nt(p, nt) for nt in restricted[p][3]),
            lambda p, q, fe: ("fn",) + tuple(e for e in fe[1:] if base.leq(e[0], q)),
            lambda p, els: _le_rows(els, le),
        )

        def apply_elem(stage, fe, stage2, a):
            return decode(fe)[stage2][a]

        def encode(stage, comps: dict):
            sub_base = restricted[stage][0]
            fe = ("fn",) + tuple(
                (q,) + tuple(comps[q][x] for x in A.at(q)) for q in sub_base.stages
            )
            if fe not in set(E.at(stage)):
                raise UnavailableError(
                    "encoded function element is not continuous", (stage, fe)
                )
            return fe

        return ExpData(E, apply_elem, encode)


def sierpinski_base() -> ps.BasePoset:
    return ps.BasePoset(FinPoset.from_generators(("s0", "s1"), [("s0", "s1")]))
