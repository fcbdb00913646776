"""The one mask search for natural maps against the per-stage searches it
replaced.

``presheaf._stagewise_search`` compiles every (stage, element) of the
domain into one ``order._solve``, lower stages first, and sorts the maps it
finds back into the order of the per-stage search; ``compatible_families``
runs on the same ``_solve``.  ``support.reference_stagewise_search`` and
``support.reference_compatible_families`` are the recursions they replaced.
They are compared map for map and in order, in monotone, continuous, pinned
and iso mode, on the pairs of ``test_maxfam.py`` and ``test_hom_masks.py``
and on objects with empty stages (the initial object, and the subterminal
that is empty at the top stage) as domain and as codomain."""
import random

import pytest

from liftdom.backend import PresheafBackend
from liftdom.oq1 import OQ1Bounds, _small_bases, internal_posets
from liftdom.order import FinPoset
from liftdom.presheaf import (
    BasePoset,
    InternalPoset,
    _stagewise_search,
    compatible_families,
    continuous_maps,
    enumerate_nat_trans,
    natural_iso,
    omega,
)

from support import (
    reference_compatible_families,
    reference_nat_trans,
    reference_natural_iso,
)
from test_hom_masks import presheaf_order_cases
from test_maxfam import _BASES, CHAIN, VEE, _omega_and_lift_one


def with_empty_stages(bk):
    """The initial object, and the subterminal empty at the top stage."""
    T, top = bk.terminal(), bk.base.stages_desc()[0]
    U, _ = bk.subobject(T, {q: T.at(q) for q in bk.base.stages if q != top})
    return [bk.initial(), U]


def pins_of(f, rng):
    """The values of f at one element of each of up to two random stages."""
    base = f.dom.base
    pins: dict = {}
    for p in rng.sample(base.stages, min(2, len(base.stages))):
        if f.dom.at(p):
            x = rng.choice(f.dom.at(p))
            pins[p] = {x: f.apply(p, x)}
    return pins


def assert_same_search(A, B, rng) -> dict:
    """Both searches give the same maps in the same order in every mode;
    returns how many maps each mode saw."""
    maps = enumerate_nat_trans(A, B)
    assert maps == reference_nat_trans(A, B), (A, B)
    continuous = continuous_maps(A, B)
    assert continuous == reference_nat_trans(A, B, continuous=True), (A, B)
    pinned = 0
    for f in rng.sample(maps, min(3, len(maps))):
        pins = pins_of(f, rng)
        got = enumerate_nat_trans(A, B, pins=pins)
        assert f in got and got == reference_nat_trans(A, B, pins=pins), (A, B, pins)
        assert continuous_maps(A, B, pins) == reference_nat_trans(A, B, continuous=True, pins=pins)
        pinned += len(got)
    iso = natural_iso(A, B)
    assert iso == reference_natural_iso(A, B), (A, B)
    return {"maps": len(maps), "continuous": len(continuous), "pinned": pinned, "isos": iso is not None}


def tally(counts: list) -> dict:
    return {key: sum(c[key] for c in counts) for key in counts[0]}


BOUNDS = OQ1Bounds(max_base=3, max_stage=3, max_carrier=5)


def test_internal_posets_on_a_seeded_sample():
    # the objects of test_maxfam.py: 30 random pairs per base, and 8 objects
    # each against an object with its stage sizes and against the empty ones
    rng = random.Random(32)
    counts = []
    for _, base in _small_bases(BOUNDS):
        group = list(internal_posets(base, BOUNDS))
        empties = with_empty_stages(PresheafBackend(base))
        pairs = [(rng.choice(group), rng.choice(group)) for _ in range(30)]
        for A in rng.sample(group, 8):
            sizes = [P.n for P in A.stage_posets]
            same = [B for B in group if [P.n for P in B.stage_posets] == sizes]
            pairs.append((A, rng.choice(same)))
            pairs += [(A, E) for E in empties] + [(E, A) for E in empties]
        counts += [assert_same_search(A, B, rng) for A, B in pairs]
    seen = tally(counts)
    assert seen["maps"] > seen["continuous"] > 0 and seen["pinned"] > 0
    assert 0 < seen["isos"] < len(counts)


@pytest.mark.parametrize("name, base", _BASES, ids=[name for name, _ in _BASES])
def test_omega_and_lift_one(name, base):
    # the pairs of test_continuous_maps_match_the_filter, and each object
    # against the two empty ones; over the 3-chain and s0, s1 < s2 the
    # reference lists the 25-element top stage of Ω × L1 first, which takes
    # minutes there
    objs = _omega_and_lift_one(base)
    pairs = [(objs[a], objs[b]) for a in ("Ω", "L1") for b in ("Ω", "L1")] + [(objs["Ω"], objs["Ω×L1"])]
    if base.poset._rows not in (CHAIN, VEE):
        pairs.append((objs["Ω×L1"], objs["Ω"]))
    empties = with_empty_stages(PresheafBackend(base))
    pairs += [(X, E) for X in objs.values() for E in empties] + [(E, X) for X in objs.values() for E in empties]
    rng = random.Random(name)
    counts = [assert_same_search(A, B, rng) for A, B in pairs + [(E, E) for E in empties]]
    assert tally(counts)["isos"] >= 2 + len(empties)


def test_hom_mask_cases():
    # the objects of test_hom_masks.py with 1 and lift(1): every pair of a
    # small case, 150 random pairs of a build stream's case, and each object
    # against the empty ones
    rng = random.Random(31)
    counts = []
    for bk, objects in presheaf_order_cases():
        objects = objects + [bk.terminal(), bk.lift(bk.terminal()).obj]
        empties = with_empty_stages(bk)
        if len(objects) > 6:
            pairs = [(rng.choice(objects), rng.choice(objects)) for _ in range(150)]
        else:
            pairs = [(A, B) for A in objects for B in objects]
        pairs += [(X, E) for X in objects for E in empties] + [(E, X) for X in objects + empties for E in empties]
        counts += [assert_same_search(A, B, rng) for A, B in pairs]
    seen = tally(counts)
    assert seen["continuous"] > 0 and seen["pinned"] > 0 and seen["isos"] > 0


def test_compatible_families_match_the_recursion():
    # every stage list the lift and global_elements_raw pass, on every
    # object above
    lists = 0
    for bk, objects in presheaf_order_cases():
        base = bk.base
        for A in objects + with_empty_stages(bk) + [bk.lift(bk.terminal()).obj]:
            stage_lists = [base.stages_desc()] + [
                tuple(q for q in base.down_list(p) if q in sieve.members)
                for p in base.stages
                for sieve in bk.at(omega(base), p)
            ]
            for S in stage_lists:
                assert compatible_families(A, S) == list(reference_compatible_families(A, S)), (A, S)
                lists += 1
    assert lists > 100


def _two_stage(top: FinPoset) -> InternalPoset:
    # over s0 < s1: one point at s0, ``top`` at s1
    base = BasePoset(FinPoset.chain(2, "s"))
    return InternalPoset.make(
        base,
        {"s0": ("a",), "s1": top.elements},
        {("s1", "s0"): {x: "a" for x in top.elements}},
        {"s0": {("a", "a")}, "s1": top.pairs},
    )


def test_no_iso_when_a_stage_differs():
    # one stage's size, or its degrees, differ: the search ends before it
    # emits anything, also when the domain's stage is empty
    chain2 = _two_stage(FinPoset.chain(2, "x"))
    for B in (_two_stage(FinPoset.chain(3, "x")), _two_stage(FinPoset.from_generators(("x0", "x1"), ()))):
        for X, Y in ((chain2, B), (B, chain2)):
            assert natural_iso(X, Y) is None
            assert not _stagewise_search(X, Y, pytest.fail, iso=True)
    bk = PresheafBackend(chain2.base)
    T = bk.terminal()
    for E in with_empty_stages(bk):
        assert natural_iso(E, T) is None and natural_iso(T, E) is None
        assert not _stagewise_search(E, T, pytest.fail, iso=True)
        assert natural_iso(E, E) is not None
    assert natural_iso(chain2, chain2) is not None
