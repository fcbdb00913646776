import random
from itertools import combinations, permutations
from itertools import product as iproduct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftdom.backend import ClassicalBackend, CoeqData, LiftData, PresheafBackend
from liftdom.lifting import arrow_object, scone_data
from liftdom.oq1 import OQ1Bounds, _small_bases, internal_posets
from liftdom.order import (
    FinPoset,
    MonotoneMap,
    StructureError,
    Subset,
    _close_rows,
    _labeled_rows,
    _restrict_rows,
    _row_pairs,
    _rows_to_poset,
    all_posets,
    compose,
    enumerate_monotone_maps,
    hom_poset,
    is_semidirected,
    lub,
    map_leq,
    poset_iso,
    posets_upto,
    quotient_poset,
    scott_opens,
    subsets,
)

from support import antichain, covers, directed_subsets, is_directed, is_order_embedding

CHAIN2 = FinPoset.chain(2)
CHAIN3 = FinPoset.chain(3)
ANTI2 = antichain(2)
DIAMOND = FinPoset.from_generators(
    "wxyz", [("w", "x"), ("w", "y"), ("x", "z"), ("y", "z")]
)
EMPTY = FinPoset((), frozenset())
CL = ClassicalBackend()


def brute_monotone_maps(A, B):
    # oracle: all |B|^|A| assignments, filtered by the definition
    out = []
    for vals in iproduct(B.elements, repeat=A.n):
        if all(
            B.leq(vals[i], vals[j])
            for i in range(A.n)
            for j in range(A.n)
            if A.leq(A.elements[i], A.elements[j])
        ):
            out.append(vals)
    return out


def test_constructor_rejects_bad_relations():
    with pytest.raises(StructureError) as e:
        FinPoset(("a", "b"), frozenset([("a", "b")]))
    assert e.value.law == "reflexivity"
    with pytest.raises(StructureError) as e:
        FinPoset(
            ("a", "b", "c"),
            frozenset([("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("b", "c")]),
        )
    assert e.value.law == "transitivity"
    with pytest.raises(StructureError) as e:
        FinPoset(
            ("a", "b"),
            frozenset([("a", "a"), ("b", "b"), ("a", "b"), ("b", "a")]),
        )
    assert e.value.law == "antisymmetry"
    with pytest.raises(StructureError):
        FinPoset(("a", "a"), frozenset([("a", "a")]))


def test_pairs_normalised():
    # any iterable of pairs is read as a set of tuples
    pairs = frozenset([("a", "a"), ("b", "b"), ("a", "b")])
    P = FinPoset(("a", "b"), pairs)
    Q = FinPoset(("a", "b"), [["a", "a"], ["b", "b"], ["a", "b"]])
    assert Q.pairs == pairs and Q == P
    sub = FinPoset.chain(3).restrict(["c0", "c2"])
    assert sub.pairs == {("c0", "c0"), ("c2", "c2"), ("c0", "c2")}


def test_equal_posets_from_every_constructor_compare_and_hash_equal():
    # identity is (elements, rows), whichever constructor built the poset
    els = ("c0", "c1", "c2")
    pairs = frozenset([("c0", "c0"), ("c1", "c1"), ("c2", "c2"), ("c0", "c1"), ("c1", "c2"), ("c0", "c2")])
    ways = [
        FinPoset(els, pairs),
        FinPoset._trusted(els, (0b111, 0b110, 0b100)),
        FinPoset.from_generators(els, [("c0", "c1"), ("c1", "c2")]),
        FinPoset.chain(4).restrict(els),
        CHAIN3,
    ]
    for P in ways:
        assert P == ways[0] and hash(P) == hash(ways[0]) and P.pairs == pairs
    reordered = FinPoset(("c1", "c0", "c2"), pairs)
    assert reordered != ways[0] and reordered.pairs == pairs
    # pairs gives back the validated input, for every relabelling
    for P in posets_upto(3):
        for perm in permutations(P.elements):
            Q = FinPoset(perm, P.pairs)
            assert Q.pairs == P.pairs and (Q == P) == (perm == P.elements)


def test_no_poset_stores_a_pair_set():
    # the up-mask rows are the one stored form of the order
    cl = ClassicalBackend()
    A, B = FinPoset.from_generators("abc", [("a", "b"), ("a", "c")]), CHAIN3
    produced = [
        FinPoset(A.elements, A.pairs),
        cl.lift(A).obj,
        cl.product(A, B).obj,
        cl.coproduct(A, B).obj,
        cl.subobject(A, {None: {"a", "c"}})[0],
        A.restrict("ab"),
        quotient_poset(A, [("b", "c")])[0],
        hom_poset(A, B)[0],
        _rows_to_poset(_labeled_rows(3)[5]),
    ]
    for P in produced:
        assert set(vars(P)) == {"elements", "_index", "_rows"}
    with pytest.raises(AttributeError):
        A.elements = ()


def test_semidirected_and_directed():
    assert is_semidirected(ANTI2, Subset(ANTI2, {"a0", "a1"})) is False
    assert is_semidirected(ANTI2, Subset(ANTI2, set())) is True
    assert is_semidirected(CHAIN3, Subset(CHAIN3, {"c1", "c2"})) is True
    assert is_directed(CHAIN3, Subset(CHAIN3, set())) is False
    assert is_directed(CHAIN3, Subset(CHAIN3, {"c1"})) is True
    assert is_directed(ANTI2, Subset(ANTI2, {"a0", "a1"})) is False


def test_lub():
    assert lub(CHAIN3, Subset(CHAIN3, {"c0", "c1"})) == "c1"
    assert lub(ANTI2, Subset(ANTI2, {"a0", "a1"})) is None
    # diamond: upper bounds of {x,y} are {z}; minimum is z
    assert lub(DIAMOND, Subset(DIAMOND, {"x", "y"})) == "z"
    assert lub(CHAIN3, Subset(CHAIN3, set())) == "c0"


def test_directed_lub_is_member():
    for P in posets_upto(4):
        for S in directed_subsets(P):
            v = lub(P, S)
            assert v is not None and v in S.members


def test_scott_opens():
    pt = FinPoset(("p",), frozenset([("p", "p")]))
    assert [set(s.members) for s in scott_opens(pt)] == [set(), {"p"}]
    opens = [frozenset(s.members) for s in scott_opens(CHAIN2)]
    assert set(opens) == {frozenset(), frozenset({"c1"}), frozenset({"c0", "c1"})}
    assert len(scott_opens(ANTI2)) == 4


def test_enumerate_monotone_maps_against_bruteforce():
    assert len(enumerate_monotone_maps(CHAIN2, CHAIN2)) == 3
    assert len(enumerate_monotone_maps(EMPTY, CHAIN3)) == 1
    pt = FinPoset(("p",), frozenset([("p", "p")]))
    assert len(enumerate_monotone_maps(DIAMOND, pt)) == 1
    for A in posets_upto(3):
        for B in posets_upto(3):
            got = [f.values for f in enumerate_monotone_maps(A, B)]
            assert got == sorted(got, key=lambda v: tuple(B.index(x) for x in v))
            assert len(set(got)) == len(got)
            assert set(got) == set(brute_monotone_maps(A, B))


def test_is_order_embedding():
    assert is_order_embedding(MonotoneMap.identity(DIAMOND))
    const = MonotoneMap.make(ANTI2, CHAIN2, lambda _: "c0")
    assert not is_order_embedding(const)


def test_poset_iso():
    f, g = poset_iso(DIAMOND, DIAMOND)
    assert compose(g, f) == MonotoneMap.identity(DIAMOND)
    assert poset_iso(CHAIN2, ANTI2) is None
    relabeled = FinPoset.from_generators(
        "abcd", [("b", "a"), ("b", "d"), ("a", "c"), ("d", "c")]
    )
    pair = poset_iso(DIAMOND, relabeled)
    assert pair is not None
    f, g = pair
    assert compose(g, f) == MonotoneMap.identity(DIAMOND)
    assert compose(f, g) == MonotoneMap.identity(relabeled)


def test_poset_iso_is_the_first_iso_of_every_relabelling():
    # oracle: the bijections onto the relabelled copy in lexicographic order
    # of codomain positions; poset_iso must return the first order-iso, and
    # its inverse, as the validating constructor would build them
    checked = 0
    for P in posets_upto(4):
        for perm in permutations(P.elements):
            Q = FinPoset(perm, P.pairs)
            first = next(
                vals
                for vals in permutations(Q.elements)
                if all(
                    P.leq(x, y) == Q.leq(vals[i], vals[j])
                    for i, x in enumerate(P.elements)
                    for j, y in enumerate(P.elements)
                )
            )
            f, g = poset_iso(P, Q)
            assert f == MonotoneMap(P, Q, first)
            assert g == MonotoneMap(Q, P, tuple(P.elements[first.index(y)] for y in Q.elements))
            checked += 1
    assert checked == 1 + 1 + 2 * 2 + 5 * 6 + 16 * 24


def test_arrow_poset():
    # the arrow object that the phoa and top-opfibration laws build
    pt = FinPoset(("p",), frozenset([("p", "p")]))
    assert arrow_object(CL, pt)[0].n == 1
    assert arrow_object(CL, CHAIN2)[0].n == 3
    assert arrow_object(CL, ANTI2)[0].n == 2


def test_arrow_poset_is_hom_from_chain2():
    # comma-square instance: monotone maps 2-chain -> Y, ordered pointwise
    for Y in posets_upto(4):
        H, _ = hom_poset(CHAIN2, Y)
        assert poset_iso(H, arrow_object(CL, Y)[0]) is not None


def test_poset_counts():
    # brute-force oracle over all reflexive relations for n <= 3
    def brute_count(n):
        els = tuple(range(n))
        cnt = 0
        offdiag = [(i, j) for i in els for j in els if i != j]
        for mask in range(1 << len(offdiag)):
            pairs = {(i, i) for i in els} | {
                offdiag[k] for k in range(len(offdiag)) if mask >> k & 1
            }
            try:
                FinPoset(els, frozenset(pairs))
                cnt += 1
            except StructureError:
                continue
        return cnt

    from liftdom.order import _labeled_rows

    assert len(_labeled_rows(2)) == brute_count(2) == 3
    assert len(_labeled_rows(3)) == brute_count(3) == 19
    assert [len(all_posets(k)) for k in range(5)] == [1, 1, 2, 5, 16]
    assert len(posets_upto(4, pointed=True)) == 9


def test_map_validation():
    with pytest.raises(StructureError) as e:
        MonotoneMap(CHAIN2, ANTI2, ("a0", "a1"))
    assert e.value.law == "monotonicity"
    with pytest.raises(StructureError):
        MonotoneMap(CHAIN2, CHAIN2, ("c0",))


@st.composite
def small_posets(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    els = tuple(f"e{i}" for i in range(n))
    gens = draw(
        st.lists(
            st.tuples(st.sampled_from(els or ("e0",)), st.sampled_from(els or ("e0",))),
            max_size=6,
        )
    ) if n else []
    rows = {e: {e} for e in els}
    for x, y in gens:
        rows[x].add(y)
    # close transitively, then drop one side of any cycle
    changed = True
    while changed:
        changed = False
        for x in els:
            for y in list(rows[x]):
                extra = rows[y] - rows[x]
                if extra:
                    rows[x] |= extra
                    changed = True
    pairs = {(x, y) for x in els for y in rows[x] if x == y or x not in rows[y]}
    return FinPoset(els, frozenset(pairs))


@given(small_posets(), st.integers(min_value=0, max_value=2**5 - 1))
@settings(max_examples=120, deadline=None)
def test_lub_is_least_upper_bound(P, mask):
    S = Subset(P, frozenset(P.elements[i] for i in range(P.n) if mask >> i & 1))
    v = lub(P, S)
    ubs = [u for u in P.elements if all(P.leq(x, u) for x in S.members)]
    if v is None:
        assert not any(all(P.leq(u, w) for w in ubs) for u in ubs)
    else:
        assert v in ubs and all(P.leq(v, u) for u in ubs)


@given(small_posets(), small_posets())
@settings(max_examples=40, deadline=None)
def test_hom_order_antisymmetric(A, B):
    maps = enumerate_monotone_maps(A, B)
    for f in maps[:6]:
        for g in maps[:6]:
            if map_leq(f, g) and map_leq(g, f):
                assert f == g


def validated_maps(A, B):
    # oracle: every |B|^|A| assignment through the validating constructor
    out = []
    for vals in iproduct(B.elements, repeat=A.n):
        try:
            out.append(MonotoneMap(A, B, vals))
        except StructureError:
            continue
    return out


def test_trusted_producers_match_validating_constructor():
    # compose, identity and hom enumeration skip validation; on every poset
    # with at most 3 elements their results must be what the validating
    # constructor builds (and accepts) from the same values
    small = posets_upto(3)
    homs = {(A, B): enumerate_monotone_maps(A, B) for A in small for B in small}
    for (A, B), maps in homs.items():
        assert maps == validated_maps(A, B)
    for P in small:
        assert MonotoneMap.identity(P) == MonotoneMap(P, P, P.elements)
    for A in small:
        for B in small:
            for C in small:
                for f in homs[(A, B)]:
                    for g in homs[(B, C)]:
                        gf = compose(g, f)
                        assert gf == MonotoneMap(A, C, gf.values)
                        assert gf.values == tuple(g(f(x)) for x in A.elements)


# The slow references that the trusted producers replaced: the classical
# backend with every object and map built through the validating
# constructors, and the pairs-based loop of quotient_poset.


def reference_quotient_poset(B, seeds):
    parent = {x: x for x in B.elements}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx == ry:
            return
        if B.index(rx) > B.index(ry):
            rx, ry = ry, rx
        parent[ry] = rx

    for x, y in seeds:
        union(x, y)
    while True:
        reps = [x for x in B.elements if find(x) == x]
        idx = {r: i for i, r in enumerate(reps)}
        rows = [1 << i for i in range(len(reps))]
        for x, y in B.pairs:
            rows[idx[find(x)]] |= 1 << idx[find(y)]
        rows = _close_rows(rows)
        merged = False
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                if rows[i] >> j & 1 and rows[j] >> i & 1:
                    union(reps[i], reps[j])
                    merged = True
        if not merged:
            pairs = frozenset(
                (reps[i], reps[j]) for i in range(len(reps)) for j in range(len(reps)) if rows[i] >> j & 1
            )
            return FinPoset(tuple(reps), pairs), {x: find(x) for x in B.elements}


class ValidatingBackend(ClassicalBackend):
    """The classical backend with every producer that skips validation
    replaced by the validating route it replaced."""

    def _derived_mor(self, A, B, fn):
        return self.mor_from_fn(A, B, fn)

    def _build(self, elements, restrict, order):
        els = elements(None)
        return FinPoset(els, _row_pairs(els, order(None, els)))

    def _lift(self, A):
        bot = self.fresh_bottom_label(A)
        els = (bot,) + A.elements
        LA = FinPoset(els, frozenset(A.pairs) | {(bot, e) for e in els})
        return LiftData(
            LA,
            MonotoneMap.make(A, LA, lambda a: a),
            MonotoneMap.make(self.terminal(), LA, lambda _: bot),
            lambda st, u: () if u == bot else ((st, u),),
            lambda st, items: items[0][1] if items else bot,
        )

    def bottom_point(self, A):
        b = A.bottom()
        return None if b is None else MonotoneMap.make(self.terminal(), A, lambda _: b)

    def scone_induced(self, ld, c0, c1):
        if not map_leq(compose(c0, self.bang(c1.dom)), c1):
            raise StructureError("laxness", "bottom leg must sit below the top leg")
        return MonotoneMap.make(ld.obj, c1.cod, lambda u: c0("*") if ld.is_bot(None, u) else c1(u))

    def coequalizer(self, f, g):
        Q, assign = reference_quotient_poset(f.cod, [(f(x), g(x)) for x in f.dom.elements])
        return CoeqData(Q, MonotoneMap.make(f.cod, Q, lambda x: assign[x]))


def same_poset(P, Q):
    # equal, and with the same hidden index and rows
    return (type(P), P.elements, P.pairs, P._index, P._rows) == (type(Q), Q.elements, Q.pairs, Q._index, Q._rows)


def same_map(f, g):
    return type(f) is type(g) and f.values == g.values and same_poset(f.dom, g.dom) and same_poset(f.cod, g.cod)


def test_trusted_objects_match_validating_backend():
    # products, coproducts, lifts with unit and bottom, subobjects with their
    # inclusions, bottoms, bangs, mult, strength and fold: every poset with
    # at most 3 elements, every pointed poset with at most 4, and every pair
    # of them with at most 7 elements between them
    fast, slow = ClassicalBackend(), ValidatingBackend()
    small = posets_upto(3)
    objects = small + tuple(P for P in posets_upto(4, pointed=True) if P.n == 4)
    assert len(objects) == 9 + 5
    for A in objects:
        la, ref = fast.lift(A), slow.lift(A)
        assert same_poset(la.obj, ref.obj)
        assert same_map(la.unit, ref.unit) and same_map(la.bottom, ref.bottom)
        assert same_map(fast.mult(A), slow.mult(A))
        assert same_map(fast.bang(A), slow.bang(A)) and same_map(fast.from_initial(A), slow.from_initial(A))
        point = fast.bottom_point(A)
        assert point is None and slow.bottom_point(A) is None or same_map(point, slow.bottom_point(A))
        fold = fast.algebra_structure(A)
        assert fold is None and not A.is_pointed() or same_map(fold, slow.algebra_structure(A))
        for S in subsets(A):
            (sub, incl), (rsub, rincl) = fast.subobject(A, {None: S.members}), slow.subobject(A, {None: S.members})
            assert same_poset(sub, rsub) and same_poset(sub, A.restrict(S.members))
            assert same_map(incl, rincl)
    for A in objects:
        for B in objects:
            if A.n + B.n > 7:
                continue
            pd, rpd = fast.product(A, B), slow.product(A, B)
            assert same_poset(pd.obj, rpd.obj)
            assert same_map(pd.fst, rpd.fst) and same_map(pd.snd, rpd.snd)
            cd, rcd = fast.coproduct(A, B), slow.coproduct(A, B)
            assert same_poset(cd.obj, rcd.obj)
            assert same_map(cd.inl, rcd.inl) and same_map(cd.inr, rcd.inr)
            assert same_map(fast.strength(A, B), slow.strength(A, B))


def test_scone_induced_matches_validating_backend():
    # the laxness test reads the bottom leg's one value instead of composing
    # it with the bang: the same map, or the same refusal, on every datum
    fast, slow = ClassicalBackend(), ValidatingBackend()

    def induced(bk, ld, c0, c1):
        try:
            return bk.scone_induced(ld, c0, c1)
        except StructureError as e:
            return str(e)

    refused = 0
    for A in posets_upto(2):
        ld = fast.lift(A)
        for C in posets_upto(3):
            for c0 in fast.global_elements(C):
                for c1 in fast.hom(A, C):
                    got, want = induced(fast, ld, c0, c1), induced(slow, ld, c0, c1)
                    refused += isinstance(want, str)
                    assert got == want if isinstance(want, str) else same_map(got, want)
    assert refused


def pairs_product(PA, PB):
    # the product order, pair by pair
    els = tuple(("pr", a, b) for a in PA.elements for b in PB.elements)
    return FinPoset(els, {(x, y) for x in els for y in els if PA.leq(x[1], y[1]) and PB.leq(x[2], y[2])})


def pairs_coproduct(PA, PB):
    els = tuple(("in", 0, a) for a in PA.elements) + tuple(("in", 1, b) for b in PB.elements)
    return FinPoset(
        els, {(x, y) for x in els for y in els if x[1] == y[1] and (PA if x[1] == 0 else PB).leq(x[2], y[2])}
    )


def pairs_subobject(P, members):
    els = tuple(x for x in P.elements if x in members)
    return FinPoset(els, {(x, y) for x, y in P.pairs if x in members and y in members})


def test_product_coproduct_subobject_rows_match_pairs_reference():
    # the shared base computes these orders from the factors' rows; both
    # backends must give, stage by stage, the order the pairs loops gave
    cl = ClassicalBackend()
    small = posets_upto(3)
    for A in small:
        for B in small:
            assert same_poset(cl.product(A, B).obj, pairs_product(A, B))
            assert same_poset(cl.coproduct(A, B).obj, pairs_coproduct(A, B))
        for S in subsets(A):
            assert same_poset(cl.subobject(A, {None: S.members})[0], pairs_subobject(A, S.members))
    bounds = OQ1Bounds(2, 2, 3)
    checked = 0
    for _, base in _small_bases(bounds):
        bk = PresheafBackend(base)
        objs = list(internal_posets(base, bounds))[::3]
        for A in objs:
            for B in objs:
                prod, cop = bk.product(A, B).obj, bk.coproduct(A, B).obj
                for p in base.stages:
                    PA, PB = A.stage_poset(p), B.stage_poset(p)
                    assert same_poset(prod.stage_poset(p), pairs_product(PA, PB))
                    assert same_poset(cop.stage_poset(p), pairs_coproduct(PA, PB))
                checked += 1
            for U in bk.scott_open_subobjects(A):
                sub = bk.subobject(A, U)[0]
                for p in base.stages:
                    assert same_poset(sub.stage_poset(p), pairs_subobject(A.stage_poset(p), U[p]))
    assert checked > 20


def test_trusted_maps_match_validating_backend():
    # pair and cotuple of every pair of maps out of (into) a poset with at
    # most 2 elements, lift_map of every map, the map scone_induced builds
    # from every lax square, and the projection of every coequaliser of
    # parallel maps, between posets with at most 3 elements
    fast, slow = ClassicalBackend(), ValidatingBackend()
    small = posets_upto(3)
    tiny = posets_upto(2)
    coequalisers = 0
    for A in small:
        for B in small:
            pd, rpd, cd, rcd = fast.product(A, B), slow.product(A, B), fast.coproduct(A, B), slow.coproduct(A, B)
            for C in tiny:
                for f in fast.hom(C, A):
                    for g in fast.hom(C, B):
                        assert same_map(fast.pair(pd, f, g), slow.pair(rpd, f, g))
                for f in fast.hom(A, C):
                    for g in fast.hom(B, C):
                        assert same_map(fast.cotuple(cd, f, g), slow.cotuple(rcd, f, g))
            homs = fast.hom(A, B)
            for f in homs:
                assert same_map(fast.lift_map(f), slow.lift_map(f))
                for g in homs:
                    q, rq = fast.coequalizer(f, g), slow.coequalizer(f, g)
                    assert same_poset(q.obj, rq.obj) and same_map(q.proj, rq.proj)
                    coequalisers += 1
            ld, rld = fast.lift(A), slow.lift(A)
            for c0, c1 in scone_data(fast, A, B):
                assert same_map(fast.scone_induced(ld, c0, c1), slow.scone_induced(rld, c0, c1))
    assert coequalisers == sum(len(fast.hom(A, B)) ** 2 for A in small for B in small)


def test_quotient_poset_matches_pairs_reference():
    # every set of at most two seeds on every listing of every poset with at
    # most 4 elements: a class can link two chains only from 4 elements on
    # (a < b ~ c < d), which no quotient of a smaller poset shows
    for B in relabellings(4):
        seeds = list(combinations(B.elements, 2))
        for k in range(3):
            for chosen in combinations(seeds, k):
                Q, assign = quotient_poset(B, chosen)
                R, ref_assign = reference_quotient_poset(B, chosen)
                assert same_poset(Q, R) and assign == ref_assign


def reference_row_pairs(els, rows):
    return frozenset((els[i], els[j]) for i in range(len(rows)) for j in range(len(rows)) if rows[i] >> j & 1)


def test_generated_posets_match_validating_constructor():
    # every labelled poset with at most 4 elements as the generator builds
    # it from its rows (hom posets: test_hom_poset_matches_pairwise_reference)
    for n in range(5):
        for rows in _labeled_rows(n):
            P = _rows_to_poset(rows)
            assert same_poset(P, FinPoset(P.elements, reference_row_pairs(P.elements, rows)))


def test_validating_entry_points_still_validate():
    # a non-monotone candidate: the identity on labels from the 2-chain to
    # the 2-antichain on the same labels
    chain, anti = FinPoset.chain(2), antichain(2, prefix="c")
    with pytest.raises(StructureError) as e:
        MonotoneMap(chain, anti, chain.elements)
    assert e.value.law == "monotonicity"
    with pytest.raises(StructureError) as e:
        CL.mor_from_fn(chain, anti, lambda p, x: x)
    assert e.value.law == "monotonicity"
    # the inverse of the monotone bijection anti -> chain is that candidate
    assert CL.inverse(MonotoneMap(anti, chain, anti.elements)) is None
    # a map out of a quotient that would be the candidate
    q = MonotoneMap(anti, chain, anti.elements)
    with pytest.raises(StructureError) as e:
        CL.descend(q, MonotoneMap.identity(anti))
    assert e.value.law == "monotonicity"


def test_compose_still_checks_composability():
    f = MonotoneMap.identity(CHAIN2)
    g = MonotoneMap.identity(ANTI2)
    with pytest.raises(StructureError) as e:
        compose(g, f)
    assert e.value.law == "composability"


# References for the row kernels of order.py: the loops they replaced.


def reference_covers(P):
    out = []
    for i, x in enumerate(P.elements):
        for j, y in enumerate(P.elements):
            if i == j or not P._rows[i] >> j & 1:
                continue
            between = P._rows[i] & ~(1 << i) & ~(1 << j)
            if not any(
                between >> k & 1 and P._rows[k] >> j & 1 and k != j
                for k in range(P.n)
            ):
                out.append((x, y))
    return out


def reference_restrict_rows(rows, keep):
    return tuple(sum(1 << t for t, j in enumerate(keep) if rows[i] >> j & 1) for i in keep)


def reference_hom_poset(A, B):
    maps = enumerate_monotone_maps(A, B)
    els = tuple(("fn",) + f.values for f in maps)
    by_el = dict(zip(els, maps))
    pairs = frozenset(
        (e1, e2) for e1, f1 in by_el.items() for e2, f2 in by_el.items() if map_leq(f1, f2)
    )
    return FinPoset(els, pairs), by_el


def reference_violation(dom, cod, values):
    # the message MonotoneMap(dom, cod, values) raised, or None
    if len(values) != dom.n:
        return "totality: assignment must cover every element"
    for v in values:
        if v not in cod._index:
            return f"membership: value {v!r} not in the codomain"
    for i, x in enumerate(dom.elements):
        for j, y in enumerate(dom.elements):
            if dom._rows[i] >> j & 1 and not cod.leq(values[i], values[j]):
                return f"monotonicity: {x!r} <= {y!r} but {values[i]!r} <= {values[j]!r} fails"
    return None


def reference_antisymmetry(elements, rows):
    # the message FinPoset raised for a reflexive, transitive relation, or None
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            if rows[i] >> j & 1 and rows[j] >> i & 1:
                return f"antisymmetry: {elements[i]!r} and {elements[j]!r} are mutually related"
    return None


def relabellings(n):
    # every poset with at most n elements in every listing of its elements,
    # most of which are not linear extensions
    return [FinPoset(perm, P.pairs) for P in posets_upto(n) for perm in permutations(P.elements)]


def small_hom_posets():
    # the hom poset of every ordered pair of posets with at most 3 elements:
    # up to 27 elements, most of them comparable
    small = posets_upto(3)
    return [(A, B, hom_poset(A, B)[0]) for A in small for B in small]


def strict_indices(A, B, H):
    # the indices of the strict maps among H's elements ("fn", *values)
    ia, bb = A.index(A.bottom()), B.bottom()
    return [k for k, e in enumerate(H.elements) if e[1 + ia] == bb]


def test_restrict_rows_match_reference():
    # every index subset of every poset with at most 5 elements, and of every
    # listing of those with at most 4
    for P in list(posets_upto(5)) + relabellings(4):
        for mask in range(1 << P.n):
            keep = [i for i in range(P.n) if mask >> i & 1]
            assert _restrict_rows(P._rows, keep) == reference_restrict_rows(P._rows, keep)
    rng = random.Random(0)
    strict = 0
    for A, B, H in small_hom_posets():
        keeps = [sorted(rng.sample(range(H.n), rng.randint(0, H.n))) for _ in range(8)]
        if A.is_pointed() and B.is_pointed():
            keeps.append(strict_indices(A, B, H))
            strict += 1
        for keep in keeps:
            assert _restrict_rows(H._rows, keep) == reference_restrict_rows(H._rows, keep)
    assert strict == 16


def test_covers_match_reference():
    posets = list(posets_upto(5)) + relabellings(4)
    for _A, _B, H in small_hom_posets():
        # the hom poset, and its elements reversed: that listing is no
        # linear extension, so the skip rule of covers meets successors
        # in a bad order
        posets += [H, FinPoset(H.elements[::-1], H.pairs)]
    for P in posets:
        assert covers(P) == reference_covers(P)
    relabeled = FinPoset.from_generators("abcd", [("b", "a"), ("b", "d"), ("a", "c"), ("d", "c")])
    assert covers(relabeled) == reference_covers(relabeled)
    assert covers(relabeled) == [("a", "c"), ("b", "a"), ("b", "d"), ("d", "c")]


def test_hom_poset_matches_pairwise_reference():
    small = posets_upto(4)
    assert len(small) ** 2 == 625
    for A in small:
        for B in small:
            H, by_el = hom_poset(A, B)
            R, ref_by_el = reference_hom_poset(A, B)
            assert same_poset(H, R)
            assert list(by_el.items()) == list(ref_by_el.items())


def test_validator_matches_reference():
    # every function, monotone or not, between posets with at most 3
    # elements, also into a carrier with one stray value, and every wrong length
    posets = relabellings(3)
    checked = rejected = 0
    for A in posets:
        for B in posets:
            for vals in iproduct(B.elements + ("stray",), repeat=A.n):
                want = reference_violation(A, B, vals)
                try:
                    MonotoneMap(A, B, vals)
                    got = None
                except StructureError as e:
                    got = str(e)
                assert got == want, (A, B, vals)
                checked += 1
                rejected += got is not None
            for k in {A.n - 1, A.n + 1} - {-1}:
                with pytest.raises(StructureError) as e:
                    MonotoneMap(A, B, ("stray",) * k)
                assert str(e.value) == reference_violation(A, B, ("stray",) * k)
    assert 0 < rejected < checked


def test_antisymmetry_matches_reference():
    # every reflexive, transitive relation on at most 4 elements
    checked = rejected = 0
    for n in range(5):
        els = tuple("abcd"[:n])
        off = [(i, j) for i in range(n) for j in range(n) if i != j]
        for mask in range(1 << len(off)):
            rows = [1 << i for i in range(n)]
            for k, (i, j) in enumerate(off):
                if mask >> k & 1:
                    rows[i] |= 1 << j
            if any(rows[j] & ~rows[i] for i in range(n) for j in range(n) if rows[i] >> j & 1):
                continue  # not transitive
            pairs = frozenset((els[i], els[j]) for i in range(n) for j in range(n) if rows[i] >> j & 1)
            want = reference_antisymmetry(els, rows)
            try:
                FinPoset(els, pairs)
                got = None
            except StructureError as e:
                got = str(e)
            assert got == want, (els, rows)
            checked += 1
            rejected += got is not None
    # the labelled preorders (OEIS A000798) and among them the posets (A001035)
    assert checked == 1 + 1 + 4 + 29 + 355
    assert checked - rejected == 1 + 1 + 3 + 19 + 219
