"""Finite posets, monotone maps, and their basic order theory.

Elements are opaque hashable identifiers; the declared element sequence
fixes the canonical iteration order used by every enumeration,
representative choice, and "first found" answer in the package.  All
values are immutable after construction and all operations are pure.

One stored form.  A poset stores its order once, as the up-mask rows
``_rows`` (row i: the bitmask of the indices above element i).  Equality
and hash read ``(elements, _rows)``; ``FinPoset.pairs`` derives the pair
set when a caller asks for it, which outside this module happens only
where data enters (the validating constructors) or leaves (rendering).

Trust boundary.  Objects and maps are validated where their data come
from outside this module: the public ``FinPoset(elements, pairs)``,
``FinPoset.from_rows``, ``MonotoneMap(dom, cod, values)`` and
``MonotoneMap.make`` constructors (and so the backends' ``mor_from_fn``,
``descend`` and the model parser) check the laws and raise
``StructureError`` naming the violated one.  The two poset constructors
share one check of the order laws, and ``_check_map`` is the one check of
a map's totality, membership and monotonicity, which the presheaf layer
runs on each restriction and component too.  The
producers below build through the unvalidated ``FinPoset._trusted`` and
``MonotoneMap._trusted`` instead, because each result is valid by
construction:

* ``compose`` of two valid maps is total, lands in ``g.cod`` and is
  monotone, since monotone maps compose; it still checks composability;
* ``MonotoneMap.identity`` is the identity on a valid poset;
* ``enumerate_monotone_maps`` and ``poset_iso`` take their maps from
  ``_order_search``, which draws values from the codomain and checks every
  order pair in both directions as it backtracks; the inverse that
  ``poset_iso`` returns is the inverse of an order-iso;
* ``FinPoset.restrict``: the order a valid poset induces on a subset;
* ``quotient_poset``: its class rows are closed, and it merges preorder
  cycles until none is left.  One union-find keeps each class's least
  index as its root; a class's row is the OR, over the set bits j of the
  class's up-mask, of the table entry ``bit[j]`` = 1 << (class of j);
* ``_rows_to_poset``: ``_extensions`` adds one point to a poset at a time,
  below an up-closed and above a down-closed set.

The classical backend (``backend.py``) extends the boundary to the maps and
objects it derives from valid ones: products, coproducts and subobjects
(whose rows the shared base computes from the factors' rows), lifts with
their unit and bottom, bottom points, coequaliser projections, the map
``scone_induced`` builds once the laxness check has passed, the maps of
the shared base's ``_derived_mor``, and the exponential, whose rows are the
pointwise order of distinct monotone maps, a partial order.  Re-validating
those results would repeat work in the inner loop of every
universal-property check.

A map is a slotted record (``dataclass(slots=True)``): no ``__dict__``, and
``MonotoneMap._trusted`` fills its three slots through their member
descriptors, so the many maps the producers build stay small and cheap.

Hom enumeration and iso search in both backends run ``_order_search``, the
presheaf backend once per stage, so its candidate order fixes every "first
found" witness and iso in the reports.

Row kernels.  The Hasse covers ``FinPoset._cover_indices``, the pointwise
order of parallel maps and the map check ``_check_map`` walk the up-mask
rows ``_rows`` (row i: the indices above element i), not pairwise ``leq``
calls, and give the pairwise loops' results and messages in the same order.
``_cover_indices`` and ``_restrict_rows`` (behind ``FinPoset.restrict`` and
both backends' ``subobject``) walk only set bits, so their work grows with
the bits they touch, not with the square of the element count.
``_restrict_rows`` masks each kept row to the kept indices and renumbers its
bits through one table.  ``_cover_indices`` skips a strict successor j of i
that lies strictly above a
successor z it has already walked; the skip is exact in any listing of the
elements, as row j then lies in row z minus z, already in the union.

``_up_masks`` is the one code that turns map values into their pointwise
order.  Through the shared backend base's ``hom_up_masks`` it serves
``hom_leq``, the classical exponential, ``lax_epi_check``,
``colimits_enriched_check``, ``paths_check``, ``partial_product_check`` and
``scone_data``; called directly, the presheaf lift and exponential orders
and ``lifting.partial_map_order``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator


class StructureError(ValueError):
    """A constructor invariant failed; ``law`` names the violated law."""

    def __init__(self, law: str, message: str):
        super().__init__(f"{law}: {message}")
        self.law = law


def _transitive_gap(rows: tuple[int, ...]) -> tuple[int, int] | None:
    # rows[i] = bitmask of j with e_i <= e_j.  x<=y forces up(y) <= up(x).
    for i, row in enumerate(rows):
        m = row
        while m:
            j = (m & -m).bit_length() - 1
            m &= m - 1
            if rows[j] & ~row:
                return i, j
    return None


def _row_pairs(elements, rows):
    # the order pairs that up-mask rows hold, row by row
    for x, row in zip(elements, rows):
        while row:
            low = row & -row
            yield x, elements[low.bit_length() - 1]
            row ^= low


def _close_rows(rows: list[int]) -> list[int]:
    # reflexive-transitive closure by iterated squaring
    n = len(rows)
    changed = True
    while changed:
        changed = False
        for i in range(n):
            acc = rows[i]
            m = rows[i]
            while m:
                j = (m & -m).bit_length() - 1
                m &= m - 1
                acc |= rows[j]
            if acc != rows[i]:
                rows[i] = acc
                changed = True
    return rows


def _restrict_rows(rows, keep) -> tuple:
    # the up-mask rows of the order induced on the indices ``keep``; an index
    # left out of ``keep`` has no new position, so the mask must drop it
    mask, new = 0, [None] * len(rows)
    for t, j in enumerate(keep):
        mask |= 1 << j
        new[j] = 1 << t
    out = []
    for i in keep:
        m, r = rows[i] & mask, 0
        while m:
            low = m & -m
            r |= new[low.bit_length() - 1]
            m ^= low
        out.append(r)
    return tuple(out)


def _check_order(elements: tuple, rows: tuple):
    # reflexivity, transitivity and antisymmetry of up-mask rows
    for i, e in enumerate(elements):
        if not rows[i] >> i & 1:
            raise StructureError("reflexivity", f"{e!r} <= {e!r} missing")
    gap = _transitive_gap(rows)
    if gap is not None:
        i, j = gap
        k = (rows[j] & ~rows[i]).bit_length() - 1
        raise StructureError(
            "transitivity",
            f"{elements[i]!r} <= {elements[j]!r} <= {elements[k]!r}"
            f" but {elements[i]!r} <= {elements[k]!r} missing",
        )
    for i, row in enumerate(rows):
        m = row >> i + 1 << i + 1  # the j > i above element i
        while m:
            low = m & -m
            j = low.bit_length() - 1
            if rows[j] >> i & 1:
                raise StructureError(
                    "antisymmetry", f"{elements[i]!r} and {elements[j]!r} are mutually related"
                )
            m ^= low


class FinPoset:
    """Finite partial order, stored as up-mask rows: bit j of ``_rows[i]``
    says ``elements[i] <= elements[j]``.  The rows are the only stored form
    of the order; ``pairs`` derives the order pairs from them.  Equality
    and hash are those of ``(elements, _rows)``, which the element order
    and the relation determine.  Immutable."""

    def __init__(self, elements, pairs):
        elements = tuple(elements)
        if not isinstance(pairs, frozenset):
            pairs = frozenset((x, y) for x, y in pairs)
        if len(set(elements)) != len(elements):
            raise StructureError("distinctness", "duplicate element identifiers")
        idx = {e: i for i, e in enumerate(elements)}
        rows = [0] * len(elements)
        for x, y in pairs:
            if x not in idx or y not in idx:
                raise StructureError("membership", f"pair ({x!r},{y!r}) outside the carrier")
            rows[idx[x]] |= 1 << idx[y]
        rows = tuple(rows)
        _check_order(elements, rows)
        self._set(elements, rows)

    @classmethod
    def from_rows(cls, elements, rows) -> "FinPoset":
        """Build from up-mask rows aligned with ``elements``, with the checks
        of ``FinPoset(elements, pairs)``."""
        elements, rows = tuple(elements), tuple(rows)
        if len(set(elements)) != len(elements):
            raise StructureError("distinctness", "duplicate element identifiers")
        if len(rows) != len(elements) or any(row >> len(elements) for row in rows):
            raise StructureError("membership", "the rows reach outside the carrier")
        _check_order(elements, rows)
        return cls._trusted(elements, rows)

    def _set(self, elements: tuple, rows: tuple):
        # in one order for every poset, so that their attribute dicts share
        # one key table
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "_index", {e: i for i, e in enumerate(elements)})
        object.__setattr__(self, "_rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: FinPoset is immutable")

    @classmethod
    def _trusted(cls, elements: tuple, rows: tuple) -> "FinPoset":
        """Build without validation: ``rows`` must be the up-mask rows of a
        partial order on ``elements`` (see the module docstring)."""
        P = object.__new__(cls)
        P._set(elements, rows)
        return P

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or (self.elements == other.elements and self._rows == other._rows)

    def __hash__(self):
        return hash((self.elements, self._rows))

    @property
    def pairs(self) -> frozenset:
        """The order pairs (x, y) with x <= y, derived from the rows."""
        return frozenset(_row_pairs(self.elements, self._rows))

    @property
    def n(self) -> int:
        return len(self.elements)

    def index(self, x) -> int:
        return self._index[x]

    def leq(self, x, y) -> bool:
        return bool(self._rows[self._index[x]] >> self._index[y] & 1)

    def __repr__(self):
        return f"{type(self).__name__}({list(self.elements)!r})"

    @classmethod
    def from_generators(cls, elements, gens) -> "FinPoset":
        """Build from generating pairs: reflexive-transitive closure is taken."""
        elements = tuple(elements)
        idx = {e: i for i, e in enumerate(elements)}
        rows = [1 << i for i in range(len(elements))]
        for x, y in gens:
            if x not in idx or y not in idx:
                raise StructureError("membership", f"pair ({x!r},{y!r}) outside the carrier")
            rows[idx[x]] |= 1 << idx[y]
        return cls.from_rows(elements, _close_rows(rows))

    @classmethod
    def chain(cls, n: int, prefix: str = "c") -> "FinPoset":
        els = tuple(f"{prefix}{i}" for i in range(n))
        return cls.from_generators(els, [(els[i], els[i + 1]) for i in range(n - 1)])

    def up_set(self, x) -> tuple:
        return tuple(e for e in self.elements if self.leq(x, e))

    def bottom(self):
        """The least element, or None."""
        full = (1 << self.n) - 1
        for i, e in enumerate(self.elements):
            if self._rows[i] == full:
                return e
        return None

    def is_pointed(self) -> bool:
        return self.n > 0 and self.bottom() is not None

    def _cover_indices(self) -> list[tuple[int, int]]:
        # the Hasse edges as index pairs (i, j): e_i < e_j with nothing
        # strictly between, ascending in i and then in j
        rows = self._rows
        out = []
        for i, row in enumerate(rows):
            strict = row & ~(1 << i)
            # the j reached through some z with i < z < j; a j already in it
            # is passed over, as its strict up-row is in it too
            beyond, m = 0, strict
            while m:
                low = m & -m
                beyond |= rows[low.bit_length() - 1] & ~low
                m = (m ^ low) & ~beyond
            m = strict & ~beyond
            while m:
                low = m & -m
                out.append((i, low.bit_length() - 1))
                m ^= low
        return out

    def restrict(self, members) -> "FinPoset":
        """Induced sub-poset on ``members``, keeping the ambient element order."""
        members = set(members)
        keep = [i for i, e in enumerate(self.elements) if e in members]
        return FinPoset._trusted(tuple(self.elements[i] for i in keep), _restrict_rows(self._rows, keep))


@dataclass(frozen=True)
class Subset:
    """A subset of a poset's carrier."""

    parent: FinPoset
    members: frozenset

    def __post_init__(self):
        object.__setattr__(self, "members", frozenset(self.members))
        for x in self.members:
            if x not in self.parent._index:
                raise StructureError("membership", f"{x!r} not in the parent poset")

    def __iter__(self):
        return (e for e in self.parent.elements if e in self.members)

    def __len__(self):
        return len(self.members)


def _check_map(dom: FinPoset, cod: FinPoset, values: tuple, where: str = ""):
    """The one validation of a map between finite posets: ``values``, aligned
    with ``dom.elements``, must be total, lie in ``cod`` and be monotone.
    Raises ``StructureError`` naming the first violated law; ``where``
    prefixes the message (``MonotoneMap`` passes none, an internal poset its
    restriction, a natural transformation its stage)."""
    if len(values) != dom.n:
        raise StructureError("totality", f"{where}assignment must cover every element")
    index = cod._index
    for v in values:
        if v not in index:
            raise StructureError("membership", f"{where}value {v!r} not in the codomain")
    vi = [index[v] for v in values]
    cod_rows = cod._rows
    for i, row in enumerate(dom._rows):
        up = cod_rows[vi[i]]
        while row:
            low = row & -row
            j = low.bit_length() - 1
            if not up >> vi[j] & 1:
                raise StructureError(
                    "monotonicity",
                    f"{where}{dom.elements[i]!r} <= {dom.elements[j]!r}"
                    f" but {values[i]!r} <= {values[j]!r} fails",
                )
            row ^= low


@dataclass(frozen=True, slots=True)
class MonotoneMap:
    """An order-preserving map; ``values`` is aligned with ``dom.elements``.
    A slotted record: no ``__dict__``, its three fields in slots."""

    dom: FinPoset
    cod: FinPoset
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        _check_map(self.dom, self.cod, self.values)

    @classmethod
    def _trusted(cls, dom: FinPoset, cod: FinPoset, values: tuple) -> "MonotoneMap":
        """Build without validation; ``values`` must already be a tuple that
        is total, lands in ``cod`` and is monotone (see the module docstring)."""
        f = object.__new__(cls)
        # straight into the slots, past the frozen __setattr__
        _set_dom(f, dom)
        _set_cod(f, cod)
        _set_values(f, values)
        return f

    @classmethod
    def make(cls, dom: FinPoset, cod: FinPoset, assignment) -> "MonotoneMap":
        if callable(assignment):
            vals = tuple(assignment(x) for x in dom.elements)
        else:
            vals = tuple(assignment[x] for x in dom.elements)
        return cls(dom, cod, vals)

    @classmethod
    def identity(cls, P: FinPoset) -> "MonotoneMap":
        return cls._trusted(P, P, P.elements)

    def __call__(self, x):
        return self.values[self.dom._index[x]]

    def __repr__(self):
        body = ", ".join(f"{x!r}->{v!r}" for x, v in zip(self.dom.elements, self.values))
        return f"MonotoneMap({body})"


# the slots' member descriptors, bound once for MonotoneMap._trusted
_set_dom, _set_cod, _set_values = MonotoneMap.dom.__set__, MonotoneMap.cod.__set__, MonotoneMap.values.__set__


def compose(g: MonotoneMap, f: MonotoneMap) -> MonotoneMap:
    """g after f."""
    if f.cod is not g.dom and f.cod != g.dom:
        raise StructureError("composability", "codomain/domain mismatch")
    index, gv = g.dom._index, g.values
    return MonotoneMap._trusted(f.dom, g.cod, tuple([gv[index[v]] for v in f.values]))


def is_semidirected(P: FinPoset, S: Subset) -> bool:
    """Every pair in S has an upper bound within S (vacuous for empty S)."""
    if S.parent != P:
        raise StructureError("membership", "subset belongs to a different poset")
    mem = list(S)
    for x in mem:
        for y in mem:
            if not any(P.leq(x, z) and P.leq(y, z) for z in mem):
                return False
    return True


def lub(P: FinPoset, S: Subset):
    """Least upper bound of S in P, or None if it does not exist."""
    if S.parent != P:
        raise StructureError("membership", "subset belongs to a different poset")
    ubs = [u for u in P.elements if all(P.leq(x, u) for x in S.members)]
    for u in ubs:
        if all(P.leq(u, v) for v in ubs):
            return u
    return None


def subsets(P: FinPoset) -> Iterator[Subset]:
    """All subsets, in ascending bitmask order over the canonical element order."""
    for mask in range(1 << P.n):
        yield Subset(P, frozenset(P.elements[i] for i in range(P.n) if mask >> i & 1))


def is_up_closed(P: FinPoset, members) -> bool:
    members = set(members)
    return all(y in members for x in members for y in P.up_set(x))


def scott_opens(P: FinPoset) -> list[Subset]:
    """All up-closed subsets, in canonical (bitmask) order.

    On a finite poset every directed set contains its supremum, so
    inaccessibility by directed suprema is automatic and Scott-open
    coincides with up-closed.
    """
    return [S for S in subsets(P) if is_up_closed(P, S.members)]


def semidirected_subsets(P: FinPoset) -> list[Subset]:
    return [S for S in subsets(P) if is_semidirected(P, S)]


def _down_rows(rows) -> list[int]:
    # the transpose of up-mask rows: bitmask of j with e_j <= e_i
    down = [0] * len(rows)
    for i, row in enumerate(rows):
        while row:
            low = row & -row
            down[low.bit_length() - 1] |= 1 << i
            row ^= low
    return down


def _degrees(rows, down) -> list[tuple[int, int]]:
    # (number of elements below, number above) per element; isos preserve it
    return [(d.bit_count(), u.bit_count()) for d, u in zip(down, rows)]


def _order_search(dom_rows, cod_rows, emit, pins=None, iso=False) -> bool:
    """The one backtracking search for maps between posets given by their
    up-mask rows: every monotone map i -> v (element indices), or with
    ``iso`` every order-iso, lexicographic in the values, which are tried in
    codomain order.  ``pins`` maps some domain indices to their only value.

    In iso mode candidates must have the same degrees, and the map must
    reflect the order; an order-reflecting map is injective.  ``emit(vals)``
    gets each map as a list that the search goes on to mutate; a true
    return stops the search, which then returns True.  A callback, not a
    generator, keeps ``yield from`` chains out of the recursion."""
    n, m = len(dom_rows), len(cod_rows)
    full = (1 << m) - 1
    cod_down = _down_rows(cod_rows)
    if iso:
        dom_deg, cod_deg = _degrees(dom_rows, _down_rows(dom_rows)), _degrees(cod_rows, cod_down)
        if sorted(dom_deg) != sorted(cod_deg):
            return False
        cand = [sum(1 << v for v, e in enumerate(cod_deg) if e == d) for d in dom_deg]
        above = [up & ~(1 << v) for v, up in enumerate(cod_rows)]
        below = [down & ~(1 << v) for v, down in enumerate(cod_down)]
        apart = [full & ~(up | down) for up, down in zip(cod_rows, cod_down)]
    else:
        cand, above, below, apart = [full] * n, cod_rows, cod_down, None
    for i, v in (pins or {}).items():
        cand[i] &= 1 << v
    # cons[i]: (j, table) for each earlier j that constrains i: the value at
    # i must lie in table[vals[j]]
    cons = [
        [
            (j, above if dom_rows[j] >> i & 1 else below if dom_rows[i] >> j & 1 else apart)
            for j in range(i)
            if iso or dom_rows[j] >> i & 1 or dom_rows[i] >> j & 1
        ]
        for i in range(n)
    ]
    vals = [0] * n

    def rec(i: int) -> bool:
        if i == n:
            return emit(vals)
        mask = cand[i]
        for j, table in cons[i]:
            mask &= table[vals[j]]
        while mask:
            low = mask & -mask
            vals[i] = low.bit_length() - 1
            if rec(i + 1):
                return True
            mask ^= low
        return False

    return rec(0)


def enumerate_monotone_maps(A: FinPoset, B: FinPoset, pins=None) -> list[MonotoneMap]:
    """Every monotone map A -> B exactly once, lexicographic in the
    assignment; with ``pins`` (element of A -> element of B), only the maps
    that send each pinned element to its value, in the same order."""
    maps: list[MonotoneMap] = []
    els = B.elements

    def emit(vals):
        maps.append(MonotoneMap._trusted(A, B, tuple([els[v] for v in vals])))

    if pins:
        pins = {A._index[x]: B._index[v] for x, v in pins.items()}
    _order_search(A._rows, B._rows, emit, pins)
    return maps


def _up_masks(n: int, columns) -> list[int]:
    """up[k]: the bitmask of the g with maps[k] <= g, for n parallel maps.
    A column ``(col, rows)`` is one point of the domain: col[k] indexes
    maps[k]'s value there in the codomain's up-mask rows ``rows``."""
    up = [(1 << n) - 1] * n
    for col, rows in columns:
        at = [0] * len(rows)
        for k, v in enumerate(col):
            at[v] |= 1 << k
        above = [0] * len(rows)  # above[v]: the maps whose value here is >= v
        for v, row in enumerate(rows):
            while row:
                low = row & -row
                above[v] |= at[low.bit_length() - 1]
                row ^= low
        up = [u & above[v] for u, v in zip(up, col)]
    return up


def poset_iso(A: FinPoset, B: FinPoset):
    """The lexicographically first order-iso A -> B and its inverse, or None."""
    found: list = []

    def emit(vals):
        found.append(tuple(vals))
        return True

    if not _order_search(A._rows, B._rows, emit, iso=True):
        return None
    vals = found[0]
    fwd = MonotoneMap._trusted(A, B, tuple([B.elements[v] for v in vals]))
    back = MonotoneMap._trusted(B, A, tuple([A.elements[vals.index(v)] for v in range(B.n)]))
    return fwd, back


def quotient_poset(B: FinPoset, seeds) -> tuple[FinPoset, dict]:
    """The poset quotient of B by the congruence generated by ``seeds``.

    Alternates (a) closing the generated equivalence, (b) inducing the
    class preorder from B's order, (c) collapsing preorder cycles, until
    stable.  Returns (Q, assignment); Q's elements are the class
    representatives (least member in canonical order), so the universal
    factorisation of any coequalising map is evaluation at representatives.
    """
    parent = list(range(B.n))

    def union(i, j):
        # path halving on both sides; the lesser root becomes the root, so
        # every parent index is at most its child's
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        while parent[j] != j:
            parent[j] = parent[parent[j]]
            j = parent[j]
        if i < j:
            parent[j] = i
        else:
            parent[i] = j

    index = B._index
    for x, y in seeds:
        union(index[x], index[y])
    merged = True
    while merged:
        # one pass: a member's parent comes before it, in the same class
        roots, of = [], []
        for i, p in enumerate(parent):
            if p == i:
                of.append(len(roots))
                roots.append(i)
            else:
                of.append(of[p])
        up = [0] * len(roots)
        for k, row in zip(of, B._rows):
            up[k] |= row
        # a class's row: the classes of the members of its up-mask
        bit = [1 << k for k in of]
        rows = []
        for u in up:
            r = 0
            while u:
                low = u & -u
                r |= bit[low.bit_length() - 1]
                u ^= low
            rows.append(r)
        rows = _close_rows(rows)
        merged = False
        for k, row in enumerate(rows):
            m = row >> k + 1 << k + 1  # the classes l > k above class k
            while m:
                low = m & -m
                m ^= low
                if rows[low.bit_length() - 1] >> k & 1:
                    union(roots[k], roots[low.bit_length() - 1])
                    merged = True
    reps = tuple(B.elements[r] for r in roots)
    return FinPoset._trusted(reps, tuple(rows)), {x: reps[of[i]] for i, x in enumerate(B.elements)}


# ---------------------------------------------------------------------------
# Exhaustive generation of small posets, one per isomorphism class.
#
# A labelling of a poset lists its elements as labels 0..n-1; its key is
# ((down_0, up_0), (down_1, up_1), ...), where down_k and up_k are the masks
# of the labels j < k with j <= k and with k <= j.  ``_labeled_rows(n)``
# lists the labelled posets in increasing key order, and ``all_posets(n)``
# keeps the labelling with the least key of each class, in key order.

def _extensions(rows: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    # all ways of adding one element, as the last label, to a poset given by
    # up-mask rows: above a down-closed D and below an up-closed U with every
    # d <= every u, in increasing (D, U); each labelled poset arises once.
    n, top = len(rows), 1 << len(rows)
    down = _down_rows(rows)
    downsets = [m for m in range(top) if all(down[i] & ~m == 0 for i in range(n) if m >> i & 1)]
    upsets = [top - 1 ^ m for m in reversed(downsets)]
    for dmask in downsets:
        allowed, m = top - 1 & ~dmask, dmask  # the points above every d in D
        while m:
            low = m & -m
            allowed &= rows[low.bit_length() - 1]
            m ^= low
        base = tuple(row | top if dmask >> i & 1 else row for i, row in enumerate(rows))
        for umask in upsets:
            if umask & ~allowed == 0:
                yield base + (top | umask,)


def _labeled_rows(n: int) -> tuple[tuple[int, ...], ...]:
    if n == 0:
        return ((),)
    out = []
    for rows in _labeled_rows(n - 1):
        out.extend(_extensions(rows))
    return tuple(out)


def _is_least(rows: tuple[int, ...]) -> bool:
    """Whether the labelling of ``rows`` has the least key of its class.

    Branch and bound over relabellings, label by label: a free element whose
    entry against the labels placed so far is below the target's entry shows
    a smaller key; an equal one is branched on, a larger one pruned.  Of free
    incomparable twins (equal strict up- and down-sets) only the first is
    tried, as swapping two of them is an automorphism that fixes the labels
    placed so far."""
    n = len(rows)
    down = _down_rows(rows)
    # an entry (down_k, up_k) as one integer down_k << n | up_k
    target = [(down[k] & (1 << k) - 1) << n | rows[k] & (1 << k) - 1 for k in range(n)]
    strict = [(row & ~(1 << i), below & ~(1 << i)) for i, (row, below) in enumerate(zip(rows, down))]
    twins = [sum(1 << y for y in range(n) if strict[y] == strict[x]) for x in range(n)]

    def rec(k: int, free: int, entry: list) -> bool:
        if k == n:
            return True
        tried, m = 0, free
        while m:
            low = m & -m
            m ^= low
            x = low.bit_length() - 1
            if tried >> x & 1:
                continue
            tried |= twins[x]
            if entry[x] < target[k]:
                return False
            if entry[x] == target[k]:
                nxt = entry[:]
                for y in range(n):
                    if rows[x] >> y & 1:
                        nxt[y] |= 1 << k + n
                    elif down[x] >> y & 1:
                        nxt[y] |= 1 << k
                if not rec(k + 1, free ^ low, nxt):
                    return False
        return True

    return rec(0, (1 << n) - 1, [0] * n)


def _rows_to_poset(rows: tuple[int, ...], prefix: str = "x") -> FinPoset:
    return FinPoset._trusted(tuple(f"{prefix}{i}" for i in range(len(rows))), rows)


@lru_cache(maxsize=None)
def all_posets(n: int) -> tuple[FinPoset, ...]:
    """All posets with exactly n elements, one per isomorphism class: the
    labelling with the least key, in key order; none for negative n.

    Canonical augmentation: deleting the last label of a least-key labelling
    leaves the least-key labelling of the rest, so each class arises once as
    an extension of a class with n - 1 elements that ``_is_least`` accepts,
    and in key order, as both the classes and their extensions come in it."""
    if n <= 0:
        return (_rows_to_poset(()),) if n == 0 else ()
    return tuple(
        _rows_to_poset(rows) for P in all_posets(n - 1) for rows in _extensions(P._rows) if _is_least(rows)
    )


def posets_upto(n: int, pointed: bool = False) -> tuple[FinPoset, ...]:
    """All posets with at most n elements up to iso; optionally only pointed ones."""
    out = []
    for k in range(n + 1):
        for P in all_posets(k):
            if not pointed or P.is_pointed():
                out.append(P)
    return tuple(out)
