"""The max-family kernel against the subset-plus-forcing reference.

``is_internal_dcpo``, ``positive_members``, ``is_continuous`` and the
directed-sup half of ``is_scott_open_subpresheaf`` run over lax families
of stagewise maxima.  The references below enumerate every subpresheaf
and decide (semi)directedness by forcing, as the kernel did before.  They
are compared on every internal poset, non-dcpos included, over every base
of at most 3 stages with at most 3 elements per stage and 5 in all.
"""
import random

import pytest

from liftdom.oq1 import OQ1Bounds, _small_bases, internal_posets
from liftdom.presheaf import (
    Subpresheaf,
    directed_subpresheaves_below,
    enumerate_nat_trans,
    internal_directed,
    internal_sup,
    is_continuous,
    is_internal_dcpo,
    is_scott_open_subpresheaf,
    positive_members,
    subpresheaves_below,
    subpresheaves_below_all,
)

from support import internal_semidirected

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
        internal_sup(A, D, p) is not None
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
                s = internal_sup(A, D, q)
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
            s = internal_sup(A, D, p)
            if s is None:
                continue
            image = Subpresheaf.make(
                B, {q: {f.apply(q, x) for x in D.at(q)} for q in A.base.stages}
            )
            t = internal_sup(B, image, p)
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
            s = internal_sup(A, D, p)
            if s is not None and s in U.at(p) and not (D.at(p) & U.at(p)):
                return False
    return True


def has_jump(A, directed) -> bool:
    """Some directed D has a supremum outside D at its top stage.  Only then
    can a monotone map out of A fail to be continuous, or an up-closed
    subpresheaf of A fail to be Scott-open."""
    for p in A.base.stages:
        for D in directed[(A, p)]:
            s = internal_sup(A, D, p)
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
            for f in rng.sample(maps, min(8, len(maps))):
                cont = is_continuous(f)
                assert cont == ref_is_continuous(f, directed), f
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
