from itertools import product as iproduct

import pytest

from liftdom.backend import PresheafBackend
from liftdom.lifting import open_classifier_check
from liftdom.oq1 import OQ1Bounds, _small_bases, internal_posets
from liftdom.order import FinPoset, StructureError
from liftdom.presheaf import (
    BasePoset,
    Const,
    Eq,
    Exists,
    ForAll,
    InternalPoset,
    Leq,
    NatTrans,
    Not,
    Sieve,
    Subpresheaf,
    TrueF,
    Var,
    continuous_maps,
    directed_subpresheaves_below,
    enumerate_nat_trans,
    global_elements_raw,
    internal_bottom,
    internal_directed,
    internal_sup,
    is_continuous,
    is_internal_dcpo,
    is_scott_open_subpresheaf,
    kj_forces,
    nt_compose,
    omega,
    positive_members,
    scott_open_subpresheaves,
    sieves_on,
    subpresheaves_below,
)

from support import antichain, omega_bot, omega_top

POINT = BasePoset(FinPoset(("s",), frozenset([("s", "s")])))
SIERP = BasePoset(FinPoset.from_generators(("s0", "s1"), [("s0", "s1")]))
ANTI = BasePoset(antichain(2, prefix="t"))
CHAIN3 = BasePoset(FinPoset.chain(3, prefix="s"))


def test_sieves():
    assert len(sieves_on(POINT, "s")) == 2
    assert len(sieves_on(SIERP, "s1")) == 3
    assert len(sieves_on(SIERP, "s0")) == 2
    with pytest.raises(StructureError):
        Sieve(SIERP, "s1", frozenset({"s1"}))  # not down-closed: misses s0


def test_omega_sizes_and_points():
    O = omega(SIERP)
    assert len(O.at("s1")) == 3
    assert len(O.at("s0")) == 2
    assert len(global_elements_raw(O)) == 3
    O2 = omega(ANTI)
    assert len(global_elements_raw(O2)) == 4
    Opt = omega(POINT)
    assert len(Opt.at("s")) == 2


def test_omega_is_internal_dcpo():
    for base in (POINT, SIERP, ANTI):
        ok, witness = is_internal_dcpo(omega(base))
        assert ok, witness


def test_constant_presheaves_are_dcpos():
    for P in (FinPoset.chain(3), antichain(2), FinPoset.chain(1)):
        A = InternalPoset.constant(SIERP, P)
        ok, _ = is_internal_dcpo(A)
        assert ok


def antichain_over_point() -> InternalPoset:
    # one element upstairs, a 2-antichain downstairs
    return InternalPoset.make(
        SIERP,
        {"s1": ("a",), "s0": ("u", "v")},
        {("s1", "s0"): {"a": "u"}},
        {"s1": {("a", "a")}, "s0": {("u", "u"), ("v", "v")}},
    )


def test_internal_directed():
    A = antichain_over_point()
    D = Subpresheaf.make(A, {"s1": {"a"}, "s0": {"u", "v"}})
    assert internal_directed(D, "s1") is False  # the pair u,v has no bound
    D2 = Subpresheaf.make(A, {"s1": {"a"}, "s0": {"u"}})
    assert internal_directed(D2, "s1") is True
    D3 = Subpresheaf.make(A, {"s1": set(), "s0": {"u"}})
    assert internal_directed(D3, "s1") is False  # not inhabited at s1
    assert internal_directed(D3, "s0") is True


def test_antichain_over_point_is_a_dcpo():
    # Under the forcing reading adopted here (inhabitation witnessed at the
    # current stage), every internally-directed subpresheaf of this object
    # has a supremum: restriction-closure keeps the stray antichain point
    # out of any directed family that is inhabited upstairs.
    ok, witness = is_internal_dcpo(antichain_over_point())
    assert ok, witness


def test_non_dcpo_witness():
    # one point upstairs restricting onto the bottom of a 2-chain: the
    # directed subpresheaf that also collects the top downstairs has no
    # upper bound at the top stage
    A = InternalPoset.make(
        SIERP,
        {"s1": ("a",), "s0": ("u", "v")},
        {("s1", "s0"): {"a": "u"}},
        {"s1": {("a", "a")}, "s0": {("u", "u"), ("v", "v"), ("u", "v")}},
    )
    ok, witness = is_internal_dcpo(A)
    assert not ok
    p, D = witness
    assert p == "s1"
    assert internal_directed(D, p)
    assert internal_sup(A, D, p) is None


def test_lift_of_omega_over_three_chain_is_a_dcpo():
    # the lift of a dcpo is a dcpo; over the 3-chain the lift of Omega has
    # 19 elements, and its positive part is the image of the unit
    O = omega(CHAIN3)
    ld = PresheafBackend(CHAIN3).lift(O)
    L = ld.obj
    assert L.size() == 19
    ok, witness = is_internal_dcpo(L)
    assert ok, witness
    pos = positive_members(L)
    assert [len(pos.at(p)) for p in CHAIN3.stages] == [2, 3, 4]
    for p in CHAIN3.stages:
        assert pos.at(p) == {ld.unit.apply(p, x) for x in O.at(p)}


def test_forcing_basics():
    O = omega(SIERP)
    assert kj_forces(SIERP, "s1", TrueF())
    x = Const(O, "s1", Sieve(SIERP, "s1", frozenset({"s0"})))
    bot = Const(O, "s1", omega_bot(O, "s1"))
    top = Const(O, "s1", omega_top(O, "s1"))
    assert kj_forces(SIERP, "s1", Not(Eq(x, bot))) is True
    assert kj_forces(SIERP, "s1", Eq(x, top)) is False
    # notably: x != bot is forced yet x = top is not, a non-boolean truth value
    assert kj_forces(SIERP, "s1", Leq(bot, x)) is True


def test_forcing_monotone_under_restriction():
    O = omega(SIERP)
    formulas = []
    for s in O.at("s1"):
        c = Const(O, "s1", s)
        formulas.append(Not(Eq(c, Const(O, "s1", omega_bot(O, "s1")))))
        formulas.append(Eq(c, Const(O, "s1", omega_top(O, "s1"))))
        formulas.append(Exists("y", O, Leq(c, Var("y"))))
        formulas.append(ForAll("y", O, Leq(Var("y"), c)))
    for phi in formulas:
        if kj_forces(SIERP, "s1", phi):
            # environment-free formulas built from constants restrict implicitly
            assert kj_forces(SIERP, "s0", _restrict_formula(phi))


def _restrict_formula(phi):
    # restrict every stage-s1 constant to s0
    if isinstance(phi, Const):
        return Const(phi.sort, "s0", phi.sort.res_el(phi.stage, "s0", phi.value))
    if hasattr(phi, "__dataclass_fields__"):
        kwargs = {
            k: _restrict_formula(getattr(phi, k)) for k in phi.__dataclass_fields__
        }
        return type(phi)(**kwargs)
    return phi


def discrete(stage_sets):
    return {p: {(x, x) for x in els} for p, els in stage_sets.items()}


def test_presheaf_validation():
    # a presheaf of sets is an internal poset with the discrete stage orders
    sets = {"s1": ("x",), "s0": ("u", "v")}
    with pytest.raises(StructureError) as e:
        InternalPoset.make(SIERP, sets, {("s1", "s0"): {"x": "w"}}, discrete(sets))
    assert e.value.law == "membership"
    threechain = BasePoset(FinPoset.chain(3, prefix="s"))
    sets = {"s0": ("a", "b"), "s1": ("a", "b"), "s2": ("a", "b")}
    with pytest.raises(StructureError) as e:
        InternalPoset.make(
            threechain,
            sets,
            {
                ("s2", "s1"): {"a": "a", "b": "b"},
                ("s1", "s0"): {"a": "a", "b": "b"},
                ("s2", "s0"): {"a": "b", "b": "a"},
            },
            discrete(sets),
        )
    assert e.value.law == "functoriality"


def test_naturality_validation():
    A = antichain_over_point()
    with pytest.raises(StructureError) as e:
        NatTrans.make(A, A, lambda p, x: {"a": "a", "u": "v", "v": "u"}[x])
    assert e.value.law == "naturality"




def brute_stagewise_maps(A, B):
    # oracle, in the search order the reports depend on: every stagewise
    # function, stages in stages_desc() order, then elements in stage
    # order, values in codomain order; kept when monotone at each stage and
    # natural.  Yields (components aligned with base.stages, is an iso).
    base = A.base
    slots = [(q, x) for q in base.stages_desc() for x in A.at(q)]
    for vals in iproduct(*(B.at(q) for q, _ in slots)):
        f = dict(zip(slots, vals))
        orders = [
            (A.leq_at(p, x, y), B.leq_at(p, f[p, x], f[p, y]))
            for p in base.stages
            for x in A.at(p)
            for y in A.at(p)
        ]
        natural = all(
            B.res_el(p, q, f[p, x]) == f[q, A.res_el(p, q, x)]
            for p, q in base.strict_pairs()
            for x in A.at(p)
        )
        if natural and all(image for below, image in orders if below):
            # order-reflecting maps are injective: equal sizes make a bijection
            iso = all(below == image for below, image in orders) and all(
                len(A.at(p)) == len(B.at(p)) for p in base.stages
            )
            yield tuple(tuple(f[p, x] for x in A.at(p)) for p in base.stages), iso


def test_enumerate_nat_trans_matches_bruteforce():
    # every same-base pair of internal posets with at most 2 elements per
    # stage and 4 in all, over every base of at most 3 stages, then Omega
    # over the 2-chain: the hom list and the iso found are fixed by the
    # search order, so compare them in order, not as sets
    bounds = OQ1Bounds(3, 2, 4)
    objects = pairs = maps = isos = 0
    for _, base in _small_bases(bounds):
        objs = list(internal_posets(base, bounds))
        objects += len(objs)
        bk = PresheafBackend(base)
        for X in objs:
            for Y in objs:
                expect = list(brute_stagewise_maps(X, Y))
                assert [f.components for f in enumerate_nat_trans(X, Y)] == [c for c, _ in expect]
                maps += len(expect)
                first_iso = next((c for c, iso in expect if iso), None)
                found = bk.iso(X, Y)
                assert (found and found[0].components) == first_iso
                if found:
                    assert nt_compose(found[1], found[0]) == NatTrans.identity(X)
                    # the inverse of a natural order-iso is continuous unchecked
                    assert is_continuous(found[1])
                pairs += 1
                isos += first_iso is not None
    assert (objects, pairs, maps, isos) == (132, 2858, 7674, 290)
    O = omega(SIERP)
    A = antichain_over_point()
    T = InternalPoset.constant(SIERP, FinPoset.chain(1, prefix="t"))
    for X, Y in [(O, O), (A, O), (T, O), (O, T), (A, A)]:
        assert [f.components for f in enumerate_nat_trans(X, Y)] == [
            c for c, _ in brute_stagewise_maps(X, Y)
        ]
    assert len(enumerate_nat_trans(O, T)) == 1


def test_continuity_is_a_real_restriction():
    # the identity-like monotone endomap of Omega bumping the middle sieve
    # upward is natural and monotone but fails to preserve a directed sup
    O = omega(SIERP)
    all_maps = enumerate_nat_trans(O, O)
    cont = continuous_maps(O, O)
    assert set(cont) < set(all_maps)
    mid = Sieve(SIERP, "s1", frozenset({"s0"}))
    top = omega_top(O, "s1")
    jump = [
        f
        for f in all_maps
        if f.apply("s1", mid) == top
        and f.apply("s1", omega_bot(O, "s1")) == omega_bot(O, "s1")
        and f.apply("s1", top) == top
    ]
    assert jump and all(not is_continuous(f) for f in jump)


def test_scott_open_subpresheaves_of_omega():
    O = omega(SIERP)
    opens = scott_open_subpresheaves(O)
    # the nonbottom subpresheaf is up-closed but not open: the directed
    # subpresheaf {bot at s1; bot, top at s0} has sup 'mid' inside it
    nonbottom = Subpresheaf.make(
        O,
        {
            "s1": {s for s in O.at("s1") if s.members},
            "s0": {s for s in O.at("s0") if s.members},
        },
    )
    assert all(
        is_scott_open_subpresheaf(U) for U in opens
    )
    assert not is_scott_open_subpresheaf(nonbottom)
    assert nonbottom not in opens


def test_subobject_classification():
    bk = PresheafBackend(SIERP)
    T = InternalPoset.constant(SIERP, FinPoset.chain(1, prefix="t"))
    assert open_classifier_check(bk, T) == (True, None)
    assert open_classifier_check(bk, omega(SIERP)) == (True, None)
    # classical degenerate base: boolean case, opens of a chain
    C2 = InternalPoset.constant(POINT, FinPoset.chain(2))
    assert open_classifier_check(PresheafBackend(POINT), C2) == (True, None)


def test_internal_bottom_and_positives():
    O = omega(SIERP)
    fam = internal_bottom(O)
    assert fam == {"s1": omega_bot(O, "s1"), "s0": omega_bot(O, "s0")}
    pos = positive_members(O)
    # exactly the top sieve at each stage: the positive core of Omega is a point
    assert pos.at("s1") == frozenset({omega_top(O, "s1")})
    assert pos.at("s0") == frozenset({omega_top(O, "s0")})
    sub, incl = PresheafBackend(SIERP).subobject(O, {p: pos.at(p) for p in SIERP.stages})
    assert sub.size() == 2
    assert len(global_elements_raw(sub)) == 1


def test_positives_classical_degenerate_base():
    for P in (FinPoset.chain(3), FinPoset.chain(1)):
        A = InternalPoset.constant(POINT, P)
        pos = positive_members(A)
        assert pos.at("s") == frozenset(P.elements) - {P.bottom()}


def test_directed_subpresheaves_and_sups_of_omega():
    O = omega(SIERP)
    for D in directed_subpresheaves_below(O, "s1"):
        s = internal_sup(O, D, "s1")
        assert s is not None
        # sup of sieves is stagewise union of the constraints below
        expect = set()
        for q in ("s0", "s1"):
            for d in D.at(q):
                expect |= set(d.members)
                if q == "s0" and d.members:
                    expect |= {"s0"}
        assert all(q in s.members for q in expect & {"s0", "s1"})


def test_trusted_nat_trans_match_validating_constructor():
    # nt_compose, NatTrans.identity and enumerate_nat_trans skip validation;
    # over the 2-chain base their results must be what the validating
    # constructor builds (and accepts) from the same components
    chain_up = InternalPoset.make(
        SIERP,
        {"s1": ("a", "b"), "s0": ("u",)},
        {("s1", "s0"): {"a": "u", "b": "u"}},
        {"s1": {("a", "a"), ("b", "b"), ("a", "b")}, "s0": {("u", "u")}},
    )
    objs = [
        omega(SIERP),
        antichain_over_point(),
        chain_up,
        InternalPoset.constant(SIERP, FinPoset.chain(1, prefix="t")),
        InternalPoset.constant(SIERP, FinPoset.chain(2)),
    ]
    homs = {(X, Y): enumerate_nat_trans(X, Y) for X in objs for Y in objs}
    for (X, Y), maps in homs.items():
        for f in maps:
            assert f == NatTrans(X, Y, f.components)
    for X in objs:
        ident = NatTrans.identity(X)
        assert ident == NatTrans(X, X, ident.components)
    checked = 0
    for X in objs:
        for Y in objs:
            for Z in objs:
                for f in homs[(X, Y)]:
                    for g in homs[(Y, Z)]:
                        gf = nt_compose(g, f)
                        assert gf == NatTrans(X, Z, gf.components)
                        assert all(
                            gf.apply(p, x) == g.apply(p, f.apply(p, x))
                            for p in SIERP.stages
                            for x in X.at(p)
                        )
                        checked += 1
    assert checked > 0
    with pytest.raises(StructureError) as e:
        nt_compose(NatTrans.identity(objs[0]), NatTrans.identity(objs[1]))
    assert e.value.law == "composability"


def test_internal_poset_identity_is_its_stage_posets():
    # the validating make and the trusted constructor give equal objects
    # with equal hashes; the order is stored once, in the stage posets
    bounds = OQ1Bounds(2, 2, 4)
    checked = 0
    for _, base in _small_bases(bounds):
        for A in internal_posets(base, bounds):
            B = InternalPoset.make(
                base,
                {p: A.at(p) for p in base.stages},
                {pair: dict(zip(A.at(pair[0]), v)) for pair, v in zip(base.strict_pairs(), A.restrictions)},
                {p: A.stage_poset(p).pairs for p in base.stages},
            )
            assert A == B and hash(A) == hash(B)
            assert set(vars(A)) == set(vars(B)) == {"base", "stage_posets", "restrictions"}
            checked += 1
    assert checked == 58
    P = FinPoset.chain(2)
    C = InternalPoset.constant(SIERP, P)
    assert C.stage_posets == (P, P) and C == InternalPoset._trusted(SIERP, (P, P), (P.elements,))


def test_stage_posets_must_sit_on_their_stages():
    # the stage posets carry the stage sets, so a restriction that names
    # elements of another poset leaves its stage
    U, A = FinPoset.chain(1, prefix="u"), FinPoset.chain(1, prefix="a")
    with pytest.raises(StructureError) as e:
        InternalPoset(SIERP, (U, A), (("u",),))
    assert e.value.law == "membership"
    with pytest.raises(StructureError) as e:
        InternalPoset(SIERP, (U,), (("u0",),))
    assert e.value.law == "totality"
