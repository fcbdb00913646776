"""Internal posets in presheaves over a finite base poset.

The base is a finite poset of "stages" with the trivial topology, so the
subobject classifier at a stage is the set of sieves (down-closed sets of
stages below it) and first-order formulas are interpreted by the standard
stagewise forcing clauses.  This is the constructive backend: the sieve
lattice is genuinely non-boolean as soon as the base has a nontrivial
order, which is all the constructive phenomena checked here need.

One stored form.  An internal poset is a functor from the base to finite
posets and stores only that: ``base``, ``stage_posets`` (one ``FinPoset``
per stage, holding the stage's elements and its order as up-mask rows) and
``restrictions`` (one value tuple per strict pair of stages, aligned with
``base.strict_pairs()`` and with the upper stage's elements).  Accessors
find an element's position through its stage poset's ``_index``.  A
presheaf of sets is the internal poset with the discrete order at each
stage.

One map check.  ``order._check_map`` checks that a map between finite
posets is total, lands in its codomain and is monotone.  A validating
``InternalPoset`` runs it on each restriction and then checks
functoriality; a validating ``NatTrans`` runs it on each component and
then checks naturality.  ``_trusted`` builds skip both for results that
are valid by construction.

Unlike classical finite posets, a finite internal poset need not have
suprema of its internally-directed subpresheaves, and a monotone natural
map need not preserve them; directed-completeness and Scott continuity
are therefore explicit checks rather than free facts.

Max-family lemma.  Under the forcing clauses, a subpresheaf D supported
below stage p is internally directed at p iff each D(q), q <= p, is
inhabited and directed.  A finite, inhabited, directed set has a greatest
element, so D has stagewise maxima m_q, and they form a lax family:
res(q, r, m_q) <= m_r whenever r <= q.  Conversely, every lax family is
the family of maxima of the subpresheaf it generates, which is directed.
Whether an element bounds D at a stage depends only on the maxima, so the
internal supremum of D, and whether a monotone map preserves it, depend
only on D's lax family.  ``is_internal_dcpo``, ``is_continuous``,
``positive_members`` and the directed-sup half of
``is_scott_open_subpresheaf`` therefore enumerate lax families (at most
the product of the stage sizes) rather than subpresheaves (2 to the total
size) tested by forcing.

Up-mask tables.  The kernel reads the stages' up-mask rows.
``sup_table`` holds, for each stage q, each r <= q and each element d at
r, the mask of the s at q with d <= res(q, r, s); the upper bounds at q
of a family are the AND of its members' masks, and the least is the u
whose up-row covers them.  A lax family's candidates at a stage are the
AND of the up-rows of the restricted earlier picks.  Each top-level call
builds its table once and keeps it nowhere.  Natural maps are one mask
search (``order._solve``) over every (stage, element), lower stages first:
each stage's order tables, and per strict pair q < p the preimages under
B's restriction as the table that ties x at p to res(p, q, x) at q.
Continuity is a constraint of that search: a branch is dropped as soon as
p's last element has its value and f_p of a family's supremum is not the
least upper bound of its image.

The references.  ``tests/support.py`` keeps the element-level kernel this
one replaced (``slow_lax_families``, ``slow_least_upper_bound`` and the
filtering ``slow_continuous_maps``) as the oracle the tests compare it
with.  ``subpresheaves_below``, ``directed_subpresheaves_below`` and
``kj_forces`` keep the literal definitions: they are the second
reference, and ``oq1.positivity_by_forcing`` re-verifies search results
through them on purpose, so that the re-verification shares nothing with
the kernel.  The per-stage search for natural maps and the recursion of
``compatible_families`` that the one mask search replaced are kept there
too (``reference_stagewise_search``, ``reference_compatible_families``).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .order import FinPoset, StructureError, _check_map, _compile, _down_rows, _solve


class SortError(TypeError):
    """An internal formula or environment is ill-sorted."""


@dataclass(frozen=True)
class BasePoset:
    """The site: a finite poset of stages."""

    poset: FinPoset

    def __post_init__(self):
        # Computed once and kept off the dataclass fields, so eq, hash and
        # repr still see only the poset.
        stages, leq = self.poset.elements, self.poset.leq
        down = {p: tuple(q for q in stages if leq(q, p)) for p in stages}
        object.__setattr__(self, "_down", down)
        object.__setattr__(
            self, "_strict_pairs", tuple((p, q) for p in stages for q in down[p] if q != p)
        )
        object.__setattr__(self, "_pair_index", {pair: k for k, pair in enumerate(self._strict_pairs)})
        object.__setattr__(
            self,
            "_desc",
            tuple(sorted(stages, key=lambda p: (-len(down[p]), self.poset.index(p)))),
        )

    @property
    def stages(self) -> tuple:
        return self.poset.elements

    def leq(self, q, p) -> bool:
        return self.poset.leq(q, p)

    def down_list(self, p) -> tuple:
        """Stages <= p, in canonical stage order."""
        return self._down[p]

    def strict_pairs(self) -> tuple:
        """All (p, q) with q < p, in canonical order."""
        return self._strict_pairs

    def stages_desc(self) -> tuple:
        """A linear extension listing higher stages first."""
        return self._desc


@dataclass(frozen=True)
class Sieve:
    """A down-closed set of stages below ``stage``: a truth value at that stage."""

    base: BasePoset
    stage: Any
    members: frozenset

    def __post_init__(self):
        object.__setattr__(self, "members", frozenset(self.members))
        down = set(self.base.down_list(self.stage))
        for q in self.members:
            if q not in down:
                raise StructureError("membership", f"stage {q!r} is not below {self.stage!r}")
            for r in self.base.down_list(q):
                if r not in self.members:
                    raise StructureError("down-closure", f"{r!r} <= {q!r} missing from sieve")

    def restrict(self, q) -> "Sieve":
        return Sieve(self.base, q, self.members & set(self.base.down_list(q)))

    def __repr__(self):
        inner = ",".join(str(s) for s in sorted(self.members, key=self.base.poset.index))
        return "{" + inner + "}"


def sieves_on(base: BasePoset, p) -> tuple[Sieve, ...]:
    """All sieves on p, in ascending bitmask order over down_list(p)."""
    down = base.down_list(p)
    out = []
    for mask in range(1 << len(down)):
        members = frozenset(down[i] for i in range(len(down)) if mask >> i & 1)
        try:
            out.append(Sieve(base, p, members))
        except StructureError:
            continue
    return tuple(out)


@dataclass(frozen=True)
class InternalPoset:
    """A functor from the base to finite posets, stored as its stage posets
    and restriction value tuples (see the module docstring)."""

    base: BasePoset
    stage_posets: tuple
    restrictions: tuple

    def __post_init__(self):
        object.__setattr__(self, "stage_posets", tuple(self.stage_posets))
        object.__setattr__(self, "restrictions", tuple(tuple(v) for v in self.restrictions))
        base = self.base
        if len(self.stage_posets) != len(base.stages):
            raise StructureError("totality", "one stage poset per stage is required")
        if len(self.restrictions) != len(base.strict_pairs()):
            raise StructureError("totality", "one restriction per strict pair of stages is required")
        for (p, q), values in zip(base.strict_pairs(), self.restrictions):
            _check_map(self.stage_poset(p), self.stage_poset(q), values, f"restriction {p!r}->{q!r}: ")
        pair = base._pair_index
        for (p, q), pq in zip(base.strict_pairs(), self.restrictions):
            Q = self.stage_poset(q)._index
            for r in base.down_list(q):
                if r == q:
                    continue
                qr, pr = self.restrictions[pair[q, r]], self.restrictions[pair[p, r]]
                for x, y, z in zip(self.at(p), pq, pr):
                    if qr[Q[y]] != z:
                        raise StructureError(
                            "functoriality",
                            f"restrictions {p!r}->{q!r}->{r!r} disagree with {p!r}->{r!r} at {x!r}",
                            ((x, y), (x, z)),
                        )

    def at(self, p) -> tuple:
        return self.stage_posets[self.base.poset._index[p]].elements

    def res_el(self, p, q, x):
        if p == q:
            return x
        base = self.base
        return self.restrictions[base._pair_index[p, q]][self.stage_posets[base.poset._index[p]]._index[x]]

    def stage_poset(self, p) -> FinPoset:
        return self.stage_posets[self.base.poset._index[p]]

    def leq_at(self, p, x, y) -> bool:
        P = self.stage_posets[self.base.poset._index[p]]
        return bool(P._rows[P._index[x]] >> P._index[y] & 1)

    def size(self) -> int:
        return sum(P.n for P in self.stage_posets)

    @classmethod
    def make(cls, base: BasePoset, stage_sets: dict, restrictions: dict, orders: dict) -> "InternalPoset":
        """Validate and build from stage sets, restrictions as dicts keyed by
        strict pairs, and each stage's order pairs."""
        res = tuple(tuple(restrictions[p, q][x] for x in stage_sets[p]) for p, q in base.strict_pairs())
        return cls(base, tuple(FinPoset(stage_sets[p], orders[p]) for p in base.stages), res)

    @classmethod
    def _trusted(cls, base: BasePoset, stage_posets: tuple, restrictions: tuple) -> "InternalPoset":
        """Build without validation.  ``stage_posets`` are validated posets
        aligned with ``base.stages``; ``restrictions`` are value tuples
        aligned with ``base.strict_pairs()`` that are total, land in the lower
        stage, are monotone and compose (``oq1.internal_posets`` takes them
        from ``_order_search`` and checks them with ``_composes``;
        ``restrict_to`` takes them from a valid internal poset)."""
        A = object.__new__(cls)
        object.__setattr__(A, "base", base)
        object.__setattr__(A, "stage_posets", tuple(stage_posets))
        object.__setattr__(A, "restrictions", tuple(restrictions))
        return A

    @classmethod
    def constant(cls, base: BasePoset, P: FinPoset) -> "InternalPoset":
        """The constant internal poset: P at every stage, identity restrictions."""
        return cls(base, (P,) * len(base.stages), (P.elements,) * len(base.strict_pairs()))


@dataclass(frozen=True)
class Subpresheaf:
    """Per-stage subsets of an internal poset, closed under restriction."""

    parent: InternalPoset
    members: tuple  # aligned with base.stages; frozensets

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(frozenset(m) for m in self.members))
        base = self.parent.base
        if len(self.members) != len(base.stages):
            raise StructureError("totality", "one member set per stage is required")
        for p in base.stages:
            stage = set(self.parent.at(p))
            for x in self.at(p):
                if x not in stage:
                    raise StructureError("membership", f"{x!r} not at stage {p!r}")
                for q in base.down_list(p):
                    if q != p and self.parent.res_el(p, q, x) not in self.at(q):
                        raise StructureError(
                            "restriction-closure",
                            f"{x!r} at {p!r} restricts outside the subpresheaf at {q!r}",
                        )

    def at(self, p) -> frozenset:
        return self.members[self.parent.base.poset.index(p)]

    @classmethod
    def make(cls, parent: InternalPoset, members: dict) -> "Subpresheaf":
        return cls(parent, tuple(frozenset(members.get(p, ())) for p in parent.base.stages))


@dataclass(frozen=True)
class NatTrans:
    """A monotone natural transformation between internal posets."""

    dom: InternalPoset
    cod: InternalPoset
    components: tuple  # aligned with base.stages; value tuples aligned with dom.at(p)

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(tuple(c) for c in self.components))
        dom, cod = self.dom, self.cod
        base = dom.base
        if cod.base != base:
            raise StructureError("composability", "domain and codomain bases differ")
        if len(self.components) != len(base.stages):
            raise StructureError("totality", "one component per stage is required")
        for p, P, Q, comp in zip(base.stages, dom.stage_posets, cod.stage_posets, self.components):
            _check_map(P, Q, comp, f"component at {p!r}: ")
        idx = base.poset._index
        for (p, q), dom_res, cod_res in zip(base.strict_pairs(), dom.restrictions, cod.restrictions):
            fp, fq = self.components[idx[p]], self.components[idx[q]]
            at_p, at_q = cod.stage_posets[idx[p]]._index, dom.stage_posets[idx[q]]._index
            for x, v, y in zip(dom.at(p), fp, dom_res):
                if cod_res[at_p[v]] != fq[at_q[y]]:
                    raise StructureError(
                        "naturality",
                        f"square at {x!r} for {p!r}->{q!r} does not commute",
                    )

    def apply(self, p, x):
        i = self.dom.base.poset._index[p]
        return self.components[i][self.dom.stage_posets[i]._index[x]]

    @classmethod
    def _trusted(cls, dom: InternalPoset, cod: InternalPoset, components: tuple) -> "NatTrans":
        """Build without validation; ``components`` must already be a tuple of
        tuples that is total, stagewise monotone and natural (composites and
        identities of validated transformations are, and so is every map
        the stagewise search emits)."""
        f = object.__new__(cls)
        object.__setattr__(f, "dom", dom)
        object.__setattr__(f, "cod", cod)
        object.__setattr__(f, "components", components)
        return f

    @classmethod
    def make(cls, dom: InternalPoset, cod: InternalPoset, fn) -> "NatTrans":
        comps = tuple(
            tuple(fn(p, x) for x in dom.at(p)) for p in dom.base.stages
        )
        return cls(dom, cod, comps)

    @classmethod
    def identity(cls, A: InternalPoset) -> "NatTrans":
        return cls._trusted(A, A, tuple(P.elements for P in A.stage_posets))

    def __repr__(self):
        return f"NatTrans({self.components!r})"


def nt_compose(g: NatTrans, f: NatTrans) -> NatTrans:
    """g after f."""
    if f.cod is not g.dom and f.cod != g.dom:
        raise StructureError("composability", "codomain/domain mismatch")
    comps = tuple(
        tuple(gc[mid._index[v]] for v in fc)
        for fc, gc, mid in zip(f.components, g.components, g.dom.stage_posets)
    )
    return NatTrans._trusted(f.dom, g.cod, comps)


def omega(base: BasePoset) -> InternalPoset:
    """The subobject classifier: sieves at each stage, ordered by inclusion."""
    sets = {p: sieves_on(base, p) for p in base.stages}
    res = {
        (p, q): {s: s.restrict(q) for s in sets[p]} for p, q in base.strict_pairs()
    }
    orders = {
        p: {(s, t) for s in sets[p] for t in sets[p] if s.members <= t.members}
        for p in base.stages
    }
    return InternalPoset.make(base, sets, res, orders)


def _restriction(X: InternalPoset, p, q) -> tuple:
    """X's restriction from p to q < p as stage indices, and its preimage
    masks: ``pre[w]`` holds the elements at p that restrict to element w at q."""
    Q = X.stage_poset(q)
    res = [Q._index[y] for y in X.restrictions[X.base._pair_index[p, q]]]
    pre = [0] * Q.n
    for v, w in enumerate(res):
        pre[w] |= 1 << v
    return res, pre


def compatible_families(A: InternalPoset, stage_list) -> list:
    """Every restriction-compatible family on ``stage_list`` (distinct stages
    forming a down-closed set): a tuple aligned with the list, one element
    of A per stage, such that each member restricts to the member at every
    listed lower stage.

    One ``_solve`` variable per listed stage, tied to each earlier stage
    above it by the restriction and to each earlier stage below it by the
    preimages, with the elements of ``A.at(q)`` tried in order, so families
    come out in lexicographic order."""
    leq = A.base.leq
    cons = [
        [
            (j, [1 << w for w in _restriction(A, r, q)[0]] if leq(q, r) else _restriction(A, q, r)[1])
            for j, r in enumerate(stage_list[:i])
            if leq(q, r) or leq(r, q)
        ]
        for i, q in enumerate(stage_list)
    ]
    els = [A.at(q) for q in stage_list]
    out: list = []
    _solve([(1 << len(e)) - 1 for e in els], cons, lambda vals: out.append(tuple(map(tuple.__getitem__, els, vals))))
    return out


def global_elements_raw(A: InternalPoset) -> list[dict]:
    """Restriction-compatible families (one element per stage), canonical order."""
    stages = A.base.stages_desc()
    return [dict(zip(stages, fam)) for fam in compatible_families(A, stages)]


# ---------------------------------------------------------------------------
# Kripke-Joyal forcing over the base poset with trivial covers.

@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    sort: InternalPoset
    stage: Any
    value: Any


@dataclass(frozen=True)
class TrueF:
    pass


@dataclass(frozen=True)
class FalseF:
    pass


@dataclass(frozen=True)
class Eq:
    lhs: Any
    rhs: Any


@dataclass(frozen=True)
class Leq:
    lhs: Any
    rhs: Any


@dataclass(frozen=True)
class In:
    term: Any
    sub: Subpresheaf


@dataclass(frozen=True)
class And:
    lhs: Any
    rhs: Any


@dataclass(frozen=True)
class Or:
    lhs: Any
    rhs: Any


@dataclass(frozen=True)
class Implies:
    lhs: Any
    rhs: Any


@dataclass(frozen=True)
class Not:
    body: Any


@dataclass(frozen=True)
class ForAll:
    var: str
    sort: Any  # InternalPoset or Subpresheaf
    body: Any


@dataclass(frozen=True)
class Exists:
    var: str
    sort: Any
    body: Any


def _sort_of(sort) -> InternalPoset:
    if isinstance(sort, Subpresheaf):
        return sort.parent
    if isinstance(sort, InternalPoset):
        return sort
    raise SortError(f"not a quantification sort: {sort!r}")


def _domain_at(sort, p):
    if isinstance(sort, Subpresheaf):
        return tuple(x for x in sort.parent.at(p) if x in sort.at(p))
    return sort.at(p)


def _interp(term, stage, env):
    if isinstance(term, Var):
        if term.name not in env:
            raise SortError(f"unbound variable {term.name!r}")
        return env[term.name]
    if isinstance(term, Const):
        A = term.sort
        if not A.base.leq(stage, term.stage):
            raise SortError(f"constant at {term.stage!r} used at incomparable {stage!r}")
        return A, A.res_el(term.stage, stage, term.value)
    raise SortError(f"not a term: {term!r}")


def _restrict_env(env, p, q):
    return {v: (A, A.res_el(p, q, x)) for v, (A, x) in env.items()}


def kj_forces(base: BasePoset, stage, formula, env: dict | None = None) -> bool:
    """Standard forcing over the base poset: universal clauses quantify over
    lower stages with the environment restricted; existentials and
    disjunctions are witnessed at the current stage."""
    env = env or {}
    if isinstance(formula, TrueF):
        return True
    if isinstance(formula, FalseF):
        return False
    if isinstance(formula, (Eq, Leq)):
        A, x = _interp(formula.lhs, stage, env)
        B, y = _interp(formula.rhs, stage, env)
        if A != B:
            raise SortError("comparison between different sorts")
        return x == y if isinstance(formula, Eq) else A.leq_at(stage, x, y)
    if isinstance(formula, In):
        A, x = _interp(formula.term, stage, env)
        if A != formula.sub.parent:
            raise SortError("membership test against a different parent")
        return x in formula.sub.at(stage)
    if isinstance(formula, And):
        return kj_forces(base, stage, formula.lhs, env) and kj_forces(base, stage, formula.rhs, env)
    if isinstance(formula, Or):
        return kj_forces(base, stage, formula.lhs, env) or kj_forces(base, stage, formula.rhs, env)
    if isinstance(formula, Implies):
        for q in base.down_list(stage):
            envq = _restrict_env(env, stage, q)
            if kj_forces(base, q, formula.lhs, envq) and not kj_forces(base, q, formula.rhs, envq):
                return False
        return True
    if isinstance(formula, Not):
        return all(
            not kj_forces(base, q, formula.body, _restrict_env(env, stage, q))
            for q in base.down_list(stage)
        )
    if isinstance(formula, ForAll):
        A = _sort_of(formula.sort)
        for q in base.down_list(stage):
            envq = _restrict_env(env, stage, q)
            for a in _domain_at(formula.sort, q):
                if not kj_forces(base, q, formula.body, {**envq, formula.var: (A, a)}):
                    return False
        return True
    if isinstance(formula, Exists):
        A = _sort_of(formula.sort)
        return any(
            kj_forces(base, stage, formula.body, {**env, formula.var: (A, a)})
            for a in _domain_at(formula.sort, stage)
        )
    raise SortError(f"not a formula: {formula!r}")


def directedness_formula(D: Subpresheaf):
    x, y, z = Var("x"), Var("y"), Var("z")
    bounded = Exists("z", D, And(Leq(x, z), Leq(y, z)))
    return And(
        Exists("x", D, TrueF()),
        ForAll("x", D, ForAll("y", D, bounded)),
    )


def semidirectedness_formula(D: Subpresheaf):
    x, y = Var("x"), Var("y")
    bounded = Exists("z", D, And(Leq(x, Var("z")), Leq(y, Var("z"))))
    return ForAll("x", D, ForAll("y", D, bounded))


def internal_directed(D: Subpresheaf, stage) -> bool:
    """Forced inhabitation plus pairwise bounds within D at every lower stage."""
    return kj_forces(D.parent.base, stage, directedness_formula(D))


# ---------------------------------------------------------------------------
# Internal suprema and directed-completeness.

def _subpresheaves_on(A: InternalPoset, stage_list) -> list[Subpresheaf]:
    base = A.base
    out: list[Subpresheaf] = []
    chosen: dict = {}

    def rec(i: int):
        if i == len(stage_list):
            out.append(Subpresheaf.make(A, dict(chosen)))
            return
        q = stage_list[i]
        required = set()
        for r, picked in chosen.items():
            if base.leq(q, r):
                required |= {A.res_el(r, q, x) for x in picked}
        optional = [x for x in A.at(q) if x not in required]
        for mask in range(1 << len(optional)):
            extra = {optional[k] for k in range(len(optional)) if mask >> k & 1}
            chosen[q] = frozenset(required | extra)
            rec(i + 1)
        del chosen[q]

    rec(0)
    return out


def subpresheaves_below(A: InternalPoset, p) -> list[Subpresheaf]:
    """All subpresheaves supported on stages <= p (empty above p)."""
    stage_list = [q for q in A.base.stages_desc() if A.base.leq(q, p)]
    return _subpresheaves_on(A, stage_list)


def directed_subpresheaves_below(A: InternalPoset, p) -> list[Subpresheaf]:
    return [D for D in subpresheaves_below(A, p) if internal_directed(D, p)]


def _below_desc(base: BasePoset, p) -> list:
    """The positions of the stages <= p, higher stages first."""
    at = base.poset._index
    return [at[q] for q in base.stages_desc() if base.leq(q, p)]


def sup_table(A: InternalPoset) -> tuple:
    """A's up-mask table for suprema, indexed by stage position (the order of
    ``base.stages``): ``(rows, res, pre)`` with

    * ``rows[q]``: the up-mask rows of stage q;
    * ``res[q]``: a dict from each stage r < q to the restriction q -> r
      as element indices;
    * ``pre[q]``: a pair ``(r, masks)`` for each stage r <= q, stage q
      first, where ``masks[d]`` is the set of s at q with d <= res(q, r, s)
      (for r = q, the up-rows themselves).

    Built once per top-level call and never kept on the object."""
    base = A.base
    at = base.poset._index
    rows = [P._rows for P in A.stage_posets]
    res, pre = [], []
    for q, P in zip(base.stages, A.stage_posets):
        lower, masks_at = {}, [(at[q], P._rows)]
        for r in base.down_list(q):
            if r == q:
                continue
            R = A.stage_posets[at[r]]
            values = tuple(R._index[y] for y in A.restrictions[base._pair_index[q, r]])
            masks = [0] * R.n
            for s, y in enumerate(values):
                for d in range(R.n):
                    if R._rows[d] >> y & 1:
                        masks[d] |= 1 << s
            lower[at[r]] = values
            masks_at.append((at[r], tuple(masks)))
        res.append(lower)
        pre.append(tuple(masks_at))
    return rows, res, pre


def _lax_families(tab: tuple, order: list):
    """Every lax family on the stage positions ``order`` (a down-closed set
    of stages, higher stages first): one element m_q per listed stage with
    res(q, r, m_q) <= m_r whenever r <= q.  Stage q's candidates are the
    AND of the up-rows of the restrictions of the earlier picks above q, so
    families come out in stage order, elements in stage order.

    Each family is one list indexed by stage position, holding ``(m_q,)``
    (an element index) at each listed stage and ``()`` elsewhere.  The list
    is reused: a caller that keeps a family copies it."""
    rows, res, _ = tab
    above = [[(r, res[r][q]) for r in order[:i] if q in res[r]] for i, q in enumerate(order)]
    n = len(order)
    fam: list = [()] * len(rows)
    cand: list = [None] * (n + 1)  # the candidates left at each position
    i = 0
    while i >= 0:
        if cand[i] is None:
            if i == n:
                yield fam
                i -= 1
                continue
            q = order[i]
            mask = (1 << len(rows[q])) - 1
            for r, values in above[i]:
                mask &= rows[q][values[fam[r][0]]]
            cand[i] = mask
        mask = cand[i]
        if not mask:
            cand[i] = None
            i -= 1
            continue
        low = mask & -mask
        cand[i] = mask ^ low
        fam[order[i]] = (low.bit_length() - 1,)
        i += 1


def _stage_min(tab: tuple, below: list, q: int):
    """The least s at stage q with d <= res(q, r, s) for every element index
    d in ``below[r]``, r <= q, or None: the AND of the ``pre`` masks is the
    set of upper bounds, and the least one is the u whose up-row holds it."""
    rows, _, pre = tab
    ubs = (1 << len(rows[q])) - 1
    for r, masks in pre[q]:
        for d in below[r]:
            ubs &= masks[d]
    row, m = rows[q], ubs
    while m:
        low = m & -m
        u = low.bit_length() - 1
        if not ubs & ~row[u]:
            return u
        m ^= low
    return None


def _lub(tab: tuple, below: list, p: int):
    """The internal least upper bound at stage position p of the element
    indices ``below[r]`` at the stages r <= p, or None.

    s qualifies iff its restriction to every q <= p is the least stage-q
    upper bound; this unfolds the forced statement that s is an upper bound
    and below every upper bound at every lower stage."""
    s = _stage_min(tab, below, p)
    if s is None:
        return None
    for q, values in tab[1][p].items():
        if _stage_min(tab, below, q) != values[s]:
            return None
    return s


def _generated(A: InternalPoset, fam: list) -> Subpresheaf:
    """The subpresheaf a lax family generates: every restriction of a member."""
    base = A.base
    members: dict = {r: set() for r in base.stages}
    for q, P, picked in zip(base.stages, A.stage_posets, fam):
        for x in picked:
            for r in base.down_list(q):
                members[r].add(A.res_el(q, r, P.elements[x]))
    return Subpresheaf.make(A, members)


def internal_sup(A: InternalPoset, D: Subpresheaf, p, table: tuple | None = None):
    """The internal least upper bound of D at stage p, or None.  A caller
    that asks about many subpresheaves of A passes A's ``sup_table``."""
    tab = sup_table(A) if table is None else table
    below = [tuple(P._index[x] for x in D.at(q)) for q, P in zip(A.base.stages, A.stage_posets)]
    s = _lub(tab, below, A.base.poset._index[p])
    return None if s is None else A.stage_poset(p).elements[s]


def is_internal_dcpo(A: InternalPoset):
    """(True, None), or (False, (stage, offending directed subpresheaf)).

    The offender is the subpresheaf generated by the first lax family
    without a supremum."""
    tab = sup_table(A)
    for ip, p in enumerate(A.base.stages):
        for fam in _lax_families(tab, _below_desc(A.base, p)):
            if _lub(tab, fam, ip) is None:
                return False, (p, _generated(A, fam))
    return True, None


def internal_bottom(A: InternalPoset):
    """The global least element as a stage-indexed family, or None."""
    fam = {}
    for p in A.base.stages:
        P = A.stage_poset(p)
        b = P.bottom()
        if b is None:
            return None
        fam[p] = b
    for p in A.base.stages:
        for q in A.base.down_list(p):
            if A.res_el(p, q, fam[p]) != fam[q]:
                return None
    return fam


def is_internal_pointed(A: InternalPoset) -> bool:
    return all(P.n > 0 for P in A.stage_posets) and internal_bottom(A) is not None


def positive_members(A: InternalPoset) -> Subpresheaf:
    """Elements x such that any semidirected subpresheaf whose supremum lies
    above x is forced to be inhabited, evaluated stage by stage.

    A semidirected D below q that is empty at q has stagewise maxima on a
    sieve S of stages strictly below q: a lax family on S.  If it has a
    supremum s, the stagewise least upper bounds res(q, r, s), r < q, form
    a lax family on all stages strictly below q with the same supremum.  So
    x at p is positive iff no restriction x|q lies below the supremum of a
    lax family on the stages strictly below q."""
    base = A.base
    tab = sup_table(A)
    rows, res, _ = tab
    blocked = []  # per stage: the mask of elements below such a supremum
    for iq, q in enumerate(base.stages):
        down, mask = _down_rows(rows[iq]), 0
        strictly_below = [r for r in _below_desc(base, q) if r != iq]
        for fam in _lax_families(tab, strictly_below):
            s = _lub(tab, fam, iq)
            if s is not None:
                mask |= down[s]
        blocked.append(mask)
    members = {
        p: {
            x
            for i, x in enumerate(P.elements)
            if not blocked[ip] >> i & 1
            and not any(blocked[iq] >> values[i] & 1 for iq, values in res[ip].items())
        }
        for ip, (p, P) in enumerate(zip(base.stages, A.stage_posets))
    }
    return Subpresheaf.make(A, members)


def restrict_to(A: InternalPoset, p) -> tuple[BasePoset, InternalPoset]:
    """A truncated to the base ``down-set of p``."""
    base = A.base
    sub_base = BasePoset(base.poset.restrict(base.down_list(p)))
    return sub_base, InternalPoset._trusted(
        sub_base,
        tuple(A.stage_poset(q) for q in sub_base.stages),
        tuple(A.restrictions[base._pair_index[q, r]] for q, r in sub_base.strict_pairs()),
    )


# ---------------------------------------------------------------------------
# Enumeration of natural transformations, with and without continuity.

def _continuity_checks(A: InternalPoset, B: InternalPoset) -> list:
    """What Scott continuity asks of a monotone natural map f: A -> B, one
    check per stage position p: ``(p, pre, rows, families)`` with B's
    ``pre[p]`` and ``rows[p]``, and ``families`` listing ``(m, s)`` for each
    lax family on the stages <= p whose supremum s at p exists in A and is
    not its own member m_p; ``m`` holds the family's element indices in
    ``pre[p]``'s stage order.

    f preserves every directed supremum iff, for each listed pair, f_p(s)
    is the least stage-p upper bound of f(m) in B.  That is the supremum
    condition at p alone: the family's restriction to q <= p is a lax
    family whose supremum is res(p, q, s), so its own check at q, with
    naturality, gives the condition at each lower stage.  A family whose
    supremum is its own member passes for every monotone natural f."""
    tab = sup_table(A)
    rows_b, _, pre_b = sup_table(B)
    checks = []
    for ip, p in enumerate(A.base.stages):
        families = []
        for fam in _lax_families(tab, _below_desc(A.base, p)):
            s = _lub(tab, fam, ip)
            if s is not None and fam[ip][0] != s:
                families.append((tuple(fam[r][0] for r, _ in pre_b[ip]), s))
        if families:
            checks.append((ip, pre_b[ip], rows_b[ip], families))
    return checks


def _preserves(check: tuple, comps: list) -> bool:
    """Whether components given as value indices per stage position pass
    one check of ``_continuity_checks``; only the stages <= p are read."""
    p, pre, rows, families = check
    full, fp = (1 << len(rows)) - 1, comps[p]
    for m, s in families:
        ubs = full
        for (r, masks), x in zip(pre, m):
            ubs &= masks[comps[r][x]]
        t = fp[s]
        if not ubs >> t & 1 or ubs & ~rows[t]:
            return False
    return True


def _stagewise_search(A: InternalPoset, B: InternalPoset, emit, iso=False, continuous=False, pins=None) -> bool:
    """Every natural stagewise map A -> B that is monotone (with ``iso``, an
    order-iso; with ``continuous``, Scott continuous) at each stage,
    lexicographic over stages in ``stages_desc()`` order, elements in stage
    order and values in codomain order.  ``pins`` (stage -> {element of A:
    element of B}) keeps only the maps with those values, in the same order.

    One ``_solve`` over every (stage, element) of A, lower stages first (the
    ascending linear extension ``reversed(stages_desc())``).  Each stage
    compiles its order tables (``order._compile``), and for each strict
    pair q < p the variable of x at p must take a value whose restriction in
    B is the value of res(p, q, x): one more table, B's preimages.  A
    continuity check at p runs once p's last element has its value, and a
    branch that fails it is dropped.  The maps found are sorted back into
    the order above; ``emit(components)`` gets each aligned with
    ``base.stages``, and a true return stops the search."""
    base = A.base
    span, cand, cons = {}, [], []  # span[q]: the positions of stage q's elements
    for q in reversed(base.stages_desc()):
        P, Q = A.stage_poset(q), B.stage_poset(q)
        span[q] = slice(len(cand), len(cand) + P.n)
        at_q = (pins or {}).get(q, {})
        stage = _compile(P._rows, Q._rows, {P._index[x]: Q._index[v] for x, v in at_q.items()}, iso, len(cand))
        if stage is None:
            return False
        cand += stage[0]
        cons += stage[1]
    for p, q in base.strict_pairs():
        pre = _restriction(B, p, q)[1]
        for x, y in enumerate(_restriction(A, p, q)[0]):
            cons[span[p].start + x].append((span[q].start + y, pre))
    spans = [span[q] for q in base.stages]
    # one check per stage p; p has an element, so its last one ends it alone
    ready = {
        spans[check[0]].stop: lambda vals, check=check: _preserves(check, [vals[s] for s in spans])
        for check in (_continuity_checks(A, B) if continuous else ())
    }
    found: list = []
    _solve(cand, cons, lambda vals: found.append(tuple(vals)), ready)
    found.sort(key=lambda vals: [vals[span[q]] for q in base.stages_desc()])
    return any(
        emit(tuple(tuple(map(Q.elements.__getitem__, vals[s])) for Q, s in zip(B.stage_posets, spans))) for vals in found
    )


def enumerate_nat_trans(A: InternalPoset, B: InternalPoset, continuous: bool = False, pins=None) -> list[NatTrans]:
    """All order-preserving natural transformations A -> B (with
    ``continuous``, the Scott-continuous ones; with ``pins``, those with the
    pinned values of ``_stagewise_search``), in canonical order.

    A trusted producer: the stagewise search checks monotonicity at every
    stage and every naturality square as it goes."""
    out: list[NatTrans] = []
    _stagewise_search(A, B, lambda comps: out.append(NatTrans._trusted(A, B, comps)), continuous=continuous,
                      pins=pins)
    return out


def natural_iso(A: InternalPoset, B: InternalPoset):
    """The first natural stagewise order-iso A -> B in the search order, or None."""
    found: list = []
    _stagewise_search(A, B, found.append, iso=True)
    return NatTrans._trusted(A, B, found[0]) if found else None


def is_continuous(f: NatTrans) -> bool:
    """Whether f preserves internal directed suprema (not automatic here).

    f maps the maxima of a directed D to the maxima of its image, so it is
    enough to run over lax families (``_continuity_checks``)."""
    comps = [tuple(Q._index[v] for v in c) for Q, c in zip(f.cod.stage_posets, f.components)]
    return all(_preserves(check, comps) for check in _continuity_checks(f.dom, f.cod))


def continuous_maps(A: InternalPoset, B: InternalPoset, pins=None) -> list[NatTrans]:
    """The continuous maps among ``enumerate_nat_trans(A, B)`` (with
    ``pins``, those with the pinned values), in its order; the stagewise
    search prunes by continuity instead of filtering."""
    return enumerate_nat_trans(A, B, continuous=True, pins=pins)


# ---------------------------------------------------------------------------
# Scott-open subobjects (``lifting.open_classifier_check`` classifies them).

def is_scott_open_subpresheaf(U: Subpresheaf) -> bool:
    """Stagewise up-closed, restriction-closed (by construction), and
    inaccessible by internal directed suprema."""
    A = U.parent
    inside = [sum(1 << P._index[x] for x in U.at(p)) for p, P in zip(A.base.stages, A.stage_posets)]
    for P, mask in zip(A.stage_posets, inside):
        if any(mask >> x & 1 and P._rows[x] & ~mask for x in range(P.n)):
            return False
    # U(p) is up-closed, so a directed D meets it at p iff its maximum m[p] does
    tab = sup_table(A)
    for ip, p in enumerate(A.base.stages):
        for fam in _lax_families(tab, _below_desc(A.base, p)):
            if inside[ip] >> fam[ip][0] & 1:
                continue
            s = _lub(tab, fam, ip)
            if s is not None and inside[ip] >> s & 1:
                return False
    return True


def scott_open_subpresheaves(A: InternalPoset) -> list[Subpresheaf]:
    return [U for U in subpresheaves_below_all(A) if is_scott_open_subpresheaf(U)]


def subpresheaves_below_all(A: InternalPoset) -> list[Subpresheaf]:
    """All subpresheaves of A, with support anywhere."""
    return _subpresheaves_on(A, list(A.base.stages_desc()))
