"""The up-mask supremum kernel against its two references.

``is_internal_dcpo``, ``positive_members``, ``internal_sup``,
``is_continuous``, ``continuous_maps`` and the directed-sup half of
``is_scott_open_subpresheaf`` run over lax families of stagewise maxima on
the up-mask tables of ``presheaf.sup_table``.  Two references check them:

* the element-level kernel they replaced (``support.slow_*``), which walks
  element identifiers one ``leq_at`` at a time, for identical verdicts,
  witnesses and map lists;
* the subset-plus-forcing references below, which enumerate every
  subpresheaf, decide (semi)directedness by forcing and take suprema with
  the element-level ``slow_internal_sup``.

Both are compared on every internal poset, non-dcpos included, over every
base of at most 3 stages with at most 3 elements per stage and 5 in all.
"""
import random

import pytest

from liftdom.backend import PresheafBackend
from liftdom.oq1 import OQ1Bounds, _small_bases, internal_posets
from liftdom.presheaf import (
    Subpresheaf,
    continuous_maps,
    directed_subpresheaves_below,
    enumerate_nat_trans,
    internal_directed,
    internal_sup,
    is_continuous,
    is_internal_dcpo,
    is_scott_open_subpresheaf,
    omega,
    positive_members,
    subpresheaves_below,
    subpresheaves_below_all,
    sup_table,
)

from support import (
    internal_semidirected,
    slow_continuous_maps,
    slow_internal_sup,
    slow_is_continuous,
    slow_is_internal_dcpo,
    slow_positive_members,
)

BOUNDS = OQ1Bounds(max_base=3, max_stage=3, max_carrier=5)


@pytest.fixture(scope="module")
def objects():
    return [A for _, base in _small_bases(BOUNDS) for A in internal_posets(base, BOUNDS)]


@pytest.fixture(scope="module")
def directed(objects):
    """(A, p) -> the directed subpresheaves below p, found by forcing."""
    return {
        (A, p): directed_subpresheaves_below(A, p) for A in objects for p in A.base.stages
    }


def ref_is_dcpo(A, directed) -> bool:
    return all(
        slow_internal_sup(A, D, p) is not None
        for p in A.base.stages
        for D in directed[(A, p)]
    )


def ref_positive_members(A) -> dict:
    base = A.base
    bad = {}  # q -> sups of semidirected D below q that are empty at q
    for q in base.stages:
        bad[q] = set()
        for D in subpresheaves_below(A, q):
            if not D.at(q) and internal_semidirected(D, q):
                s = slow_internal_sup(A, D, q)
                if s is not None:
                    bad[q].add(s)
    return {
        p: frozenset(
            x
            for x in A.at(p)
            if not any(
                A.leq_at(q, A.res_el(p, q, x), s) for q in base.down_list(p) for s in bad[q]
            )
        )
        for p in base.stages
    }


def ref_is_continuous(f, directed) -> bool:
    A, B = f.dom, f.cod
    for p in A.base.stages:
        for D in directed[(A, p)]:
            s = slow_internal_sup(A, D, p)
            if s is None:
                continue
            image = Subpresheaf.make(
                B, {q: {f.apply(q, x) for x in D.at(q)} for q in A.base.stages}
            )
            t = slow_internal_sup(B, image, p)
            if t is None or f.apply(p, s) != t:
                return False
    return True


def up_closed(U) -> bool:
    A = U.parent
    return all(
        y in U.at(p) for p in A.base.stages for x in U.at(p) for y in A.stage_poset(p).up_set(x)
    )


def ref_is_scott_open(U, directed) -> bool:
    A = U.parent
    if not up_closed(U):
        return False
    for p in A.base.stages:
        for D in directed[(A, p)]:
            s = slow_internal_sup(A, D, p)
            if s is not None and s in U.at(p) and not (D.at(p) & U.at(p)):
                return False
    return True


def has_jump(A, directed) -> bool:
    """Some directed D has a supremum outside D at its top stage.  Only then
    can a monotone map out of A fail to be continuous, or an up-closed
    subpresheaf of A fail to be Scott-open."""
    for p in A.base.stages:
        for D in directed[(A, p)]:
            s = slow_internal_sup(A, D, p)
            if s is not None and s not in D.at(p):
                return True
    return False


def test_every_internal_poset_is_covered(objects):
    assert len(objects) == 2012


def test_dcpo_verdicts_and_witnesses(objects, directed):
    verdicts = []
    for A in objects:
        ok, witness = is_internal_dcpo(A)
        assert ok == ref_is_dcpo(A, directed), A
        if not ok:
            p, D = witness
            assert internal_directed(D, p), A
            assert internal_sup(A, D, p) is None, A
        verdicts.append(ok)
    assert True in verdicts and False in verdicts


def test_kernel_matches_the_element_level_kernel(objects):
    # the dcpo verdict with its witness, the positive members, and the
    # supremum of every subpresheaf at every stage through A's table (and
    # once per object without it)
    sups = 0
    for A in objects:
        assert is_internal_dcpo(A) == slow_is_internal_dcpo(A), A
        pos = positive_members(A)
        assert {p: pos.at(p) for p in A.base.stages} == slow_positive_members(A), A
        table = sup_table(A)
        for D in subpresheaves_below_all(A):
            for p in A.base.stages:
                assert internal_sup(A, D, p, table) == slow_internal_sup(A, D, p), (A, D, p)
                sups += 1
        assert internal_sup(A, D, p) == slow_internal_sup(A, D, p)
    assert sups == 91966


def test_positive_members(objects):
    nonempty = 0
    for A in objects:
        pos = positive_members(A)
        ref = ref_positive_members(A)
        assert {p: pos.at(p) for p in A.base.stages} == ref, A
        nonempty += any(ref.values())
    assert 0 < nonempty < len(objects)


def test_continuity_on_a_seeded_sample(objects, directed):
    rng = random.Random(20231229)
    by_base: dict = {}
    for A in objects:
        by_base.setdefault(A.base, []).append(A)
    verdicts = []
    for group in by_base.values():
        sources = [A for A in group if has_jump(A, directed)] or group
        for _ in range(30):
            A, B = rng.choice(sources), rng.choice(group)
            maps = enumerate_nat_trans(A, B)
            assert continuous_maps(A, B) == slow_continuous_maps(A, B)
            for f in rng.sample(maps, min(8, len(maps))):
                cont = is_continuous(f)
                assert cont == ref_is_continuous(f, directed) == slow_is_continuous(f), f
                verdicts.append(cont)
    assert len(verdicts) > 800
    assert verdicts.count(False) > 40


def test_scott_openness_on_a_seeded_sample(objects, directed):
    rng = random.Random(7)
    jumping = [A for A in objects if has_jump(A, directed)]
    verdicts = []
    for A in jumping + rng.sample(objects, 100):
        for U in subpresheaves_below_all(A):
            is_open = is_scott_open_subpresheaf(U)
            assert is_open == ref_is_scott_open(U, directed), U
            verdicts.append((up_closed(U), is_open))
    assert (True, True) in verdicts and (False, False) in verdicts
    # up-closed yet reached by a directed supremum from outside
    assert verdicts.count((True, False)) > 40


def _omega_and_lift_one(base):
    bk = PresheafBackend(base)
    O, L1 = omega(base), bk.lift(bk.terminal()).obj
    return {"Ω": O, "L1": L1, "Ω×L1": bk.product(O, L1).obj}


# the up-mask rows of the 3-chain s2 < s1 < s0 and of s0, s1 < s2 as
# _small_bases labels them
CHAIN, VEE = (1, 3, 7), (5, 6, 4)


_BASES = _small_bases(OQ1Bounds(3, 3, 9))


@pytest.mark.parametrize("name, base", _BASES, ids=[name for name, _ in _BASES])
def test_continuous_maps_match_the_filter(name, base):
    # same maps in the same order as listing every monotone natural map and
    # filtering it by the element-level continuity check
    objs = _omega_and_lift_one(base)
    pairs = [(a, b) for a in ("Ω", "L1") for b in ("Ω", "L1")] + [("Ω", "Ω×L1"), ("Ω×L1", "Ω")]
    for a, b in pairs:
        # left out: the search takes under 0.1 s on these, but the filtering
        # reference checks each of the 1,719 (3-chain) and 2,539
        # (s0, s1 < s2) monotone maps out of Ω × L1 one family at a time,
        # about 3 s and 11 s per codomain
        if a == "Ω×L1" and base.poset._rows in (CHAIN, VEE):
            continue
        got = continuous_maps(objs[a], objs[b])
        assert got == slow_continuous_maps(objs[a], objs[b]), (name, a, b)
        assert got


def test_hom_counts_over_the_three_stage_bases():
    found = {}
    for _, base in _BASES:
        if base.poset._rows not in (CHAIN, VEE):
            continue
        bk = PresheafBackend(base)
        O = omega(base)
        for name, X in (("lift Ω", bk.lift(O).obj), ("Ω × Ω", bk.product(O, O).obj)):
            found[base.poset._rows, name] = len(bk.hom(X, O)), len(enumerate_nat_trans(X, O))
    assert found == {
        (CHAIN, "lift Ω"): (20, 157),
        (CHAIN, "Ω × Ω"): (50, 1719),
        (VEE, "lift Ω"): (30, 160),
        (VEE, "Ω × Ω"): (84, 2539),
    }
