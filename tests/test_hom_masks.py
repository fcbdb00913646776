"""The up-mask kernel ``order._up_masks`` against the pairwise references
of ``support.py``: the rows of a list of parallel maps (``hom_up_masks``),
``hom_leq``, the presheaf lift and exponential orders, and the checks that
read the rows against the pairwise loops they replaced."""
import random

import pytest

from liftdom import colimits as co
from liftdom import laws
from liftdom import lifting as li
from liftdom.backend import ClassicalBackend, PresheafBackend
from liftdom.model import default_model
from liftdom.oq1 import OQ1Bounds, _small_bases
from liftdom.order import FinPoset, MonotoneMap, StructureError, posets_upto
from liftdom.presheaf import BasePoset, InternalPoset, omega
from liftdom.report import FAIL, PASS

from support import build_inputs, exponential_leq, lift_leq, pairwise_hom_leq, reference_rows

CL = ClassicalBackend()


def reference_up_masks(bk, maps):
    return [sum(1 << j for j, g in enumerate(maps) if pairwise_hom_leq(bk, f, g)) for f in maps]


# The pairwise checks that the masked ones replaced.


def reference_lax_epi_check(bk, A, C):
    ld = bk.lift(A)
    homs = bk.hom(ld.obj, C)
    rests = {h: (bk.compose(h, ld.bottom), bk.compose(h, ld.unit)) for h in homs}
    for f in homs:
        for g in homs:
            restricted = pairwise_hom_leq(bk, rests[f][0], rests[g][0]) and pairwise_hom_leq(
                bk, rests[f][1], rests[g][1]
            )
            if restricted != pairwise_hom_leq(bk, f, g):
                return False, ("pair", f, g)
    return True, None


def reference_joint_epi_check(bk, A, C):
    ld = bk.lift(A)
    seen: dict = {}
    for h in bk.hom(ld.obj, C):
        key = (bk.compose(h, ld.bottom), bk.compose(h, ld.unit))
        if key in seen and seen[key] != h:
            return False, ("pair", seen[key], h)
        seen[key] = h
    return True, None


def reference_colimits_enriched_check(bk, d, res, apexes):
    for P in apexes:
        homs = bk.hom(res.apex, P)
        for u in homs:
            for v in homs:
                after = all(
                    pairwise_hom_leq(bk, bk.compose(u, res.legs[n]), bk.compose(v, res.legs[n]))
                    for n in d.nodes
                )
                if after != pairwise_hom_leq(bk, u, v):
                    return False, ("pair", P, u, v)
    return True, None


def reference_scone_data(bk, A, C):
    bang = bk.bang(A)
    return [
        (c0, c1)
        for c0 in bk.global_elements(C)
        for c1 in bk.hom(A, C)
        if pairwise_hom_leq(bk, bk.compose(c0, bang), c1)
    ]


def test_scone_data_matches_pairwise_reference():
    # the same lax squares in the same order, on both backends
    small = posets_upto(3)
    squares = 0
    for A in small:
        for C in small:
            data = li.scone_data(CL, A, C)
            assert data == reference_scone_data(CL, A, C)
            squares += len(data)
    assert squares
    for _, base in _small_bases(OQ1Bounds(max_base=2)):
        bk = PresheafBackend(base)
        objects = [omega(base), bk.terminal(), bk.lift(bk.terminal()).obj]
        for A in objects:
            for C in objects:
                assert li.scone_data(bk, A, C) == reference_scone_data(bk, A, C)


def _legs(bk, ld, others=()):
    """The bottom and the unit of a lift, then every map into it from ``others``."""
    return [ld.bottom, ld.unit] + [leg for X in others for leg in bk.hom(X, ld.obj)]


def assert_leg_form(bk, B, maps, leg):
    """The rows of the maps read along the leg are the rows of the composites."""
    assert bk.hom_up_masks(leg.dom, B, maps, leg) == bk.hom_up_masks(
        leg.dom, B, [bk.compose(f, leg) for f in maps]
    )


def test_hom_up_masks_classical():
    rng = random.Random(0)
    small = posets_upto(3)
    for A in small:
        for B in small:
            homs = list(CL.hom(A, B))
            assert CL.hom_up_masks(A, B, homs) == reference_up_masks(CL, homs)
            part = rng.sample(homs, rng.randint(0, len(homs)))
            assert CL.hom_up_masks(A, B, part) == reference_up_masks(CL, part)
    # legs into a lift: its bottom, its unit and the maps from small posets,
    # whose element names the lift shares but whose values differ
    legged = 0
    for A in posets_upto(2):
        ld = CL.lift(A)
        for B in small:
            homs = list(CL.hom(ld.obj, B))
            for leg in _legs(CL, ld, posets_upto(2)):
                assert_leg_form(CL, B, homs, leg)
                legged += 1
    assert legged


def test_hom_up_masks_presheaf():
    bases = [base for _, base in _small_bases(OQ1Bounds(max_base=2))]
    assert len(bases) == 3
    nontrivial = 0
    for base in bases:
        bk = PresheafBackend(base)
        objects = [omega(base), bk.terminal(), bk.lift(bk.terminal()).obj]
        for A in objects:
            for B in objects:
                homs = bk.hom(A, B)
                masks = bk.hom_up_masks(A, B, homs)
                assert masks == reference_up_masks(bk, homs)
                nontrivial += any(m != 1 << k for k, m in enumerate(masks))
                ld = bk.lift(A)
                out = bk.hom(ld.obj, B)
                for leg in _legs(bk, ld, [bk.terminal()]):
                    assert_leg_form(bk, B, out, leg)
    assert nontrivial


def hom_leq_rows(bk, maps):
    return [sum(1 << j for j, g in enumerate(maps) if bk.hom_leq(f, g)) for f in maps]


def test_hom_leq_matches_pairwise():
    # every pair of maps in the hom-sets of the two tests above
    for A in posets_upto(3):
        for B in posets_upto(3):
            homs = CL.hom(A, B)
            assert hom_leq_rows(CL, homs) == reference_up_masks(CL, homs)
    for _, base in _small_bases(OQ1Bounds(max_base=2)):
        bk = PresheafBackend(base)
        objects = [omega(base), bk.terminal(), bk.lift(bk.terminal()).obj]
        for A in objects:
            for B in objects:
                homs = bk.hom(A, B)
                assert hom_leq_rows(bk, homs) == reference_up_masks(bk, homs)
    # maps that are not parallel are not compared
    f, g = MonotoneMap.identity(FinPoset.chain(2)), MonotoneMap.identity(FinPoset.chain(3))
    for leq in (CL.hom_leq, lambda f, g: pairwise_hom_leq(CL, f, g)):
        with pytest.raises(StructureError) as e:
            leq(f, g)
        assert e.value.law == "composability"


def presheaf_order_cases():
    """(backend, objects): Ω and lift(Ω) over the bases of at most 2 stages,
    the default model's internal posets, and the objects of the ``build``
    workload's seed-1 presheaf pairs, by base."""
    for _, base in _small_bases(OQ1Bounds(max_base=2)):
        bk = PresheafBackend(base)
        yield bk, [omega(base), bk.lift(omega(base)).obj]
    for A in default_model().iposets.values():
        yield PresheafBackend(A.base), [A]
    streams: dict = {}
    for name, (stages, leq), a, b in build_inputs(1)["presheaf"]:
        streams.setdefault(name, (BasePoset(FinPoset(stages, leq)), []))[1].extend((a, b))
    for base, data in streams.values():
        yield PresheafBackend(base), [InternalPoset.make(base, x["sets"], x["res"], x["orders"]) for x in data]


def test_presheaf_lift_and_exponential_orders_match_pairwise():
    # the stage rows of every lift, and of every exponential between two
    # objects of one case, against the pairwise predicates
    lifts = exponentials = 0
    for bk, objects in presheaf_order_cases():
        for A in objects:
            for P in bk.lift(A).obj.stage_posets:
                assert P._rows == reference_rows(P.elements, lambda x, y: lift_leq(A, x, y))
            lifts += 1
            for B in objects:
                for P in bk.exponential(A, B).obj.stage_posets:
                    assert P._rows == reference_rows(P.elements, lambda x, y: exponential_leq(A, B, x, y))
                exponentials += 1
    assert lifts and exponentials


def _parity(monkeypatch, module, name, reference):
    """Make ``module.name`` also run ``reference`` on the same arguments and
    assert equal answers; returns the list of answers seen."""
    seen = []
    check = getattr(module, name)

    def both(*args):
        got = check(*args)
        assert got == reference(*args), args
        seen.append(got)
        return got

    monkeypatch.setattr(module, name, both)
    return seen


def test_lax_epi_witnesses_match_pairwise(monkeypatch):
    seen = _parity(monkeypatch, li, "lax_epi_check", reference_lax_epi_check)
    assert laws.run_law("lax-epi", backends=("classical",)).status == PASS
    assert seen and all(ok for ok, _ in seen)
    control = laws.run_negative("lax-epi")
    assert control.status == FAIL
    assert not seen[-1][0] and seen[-1][1] is not None


def test_joint_epi_witnesses_match_composites(monkeypatch):
    # keyed on value tables, the check gives the verdicts and witnesses of
    # the check keyed on composite maps, on the law's instances and on the
    # control's cone with a stray point
    seen = _parity(monkeypatch, li, "joint_epi_check", reference_joint_epi_check)
    assert laws.run_law("joint-epi", backends=("classical",)).status == PASS
    assert seen and all(ok for ok, _ in seen)
    control = laws.run_negative("joint-epi")
    assert control.status == FAIL
    assert not seen[-1][0] and seen[-1][1] is not None
    bk = laws._fake_scone_backend(junk=True)
    for A in posets_upto(2):
        for C in posets_upto(2):
            assert li.joint_epi_check(bk, A, C) == reference_joint_epi_check(bk, A, C)


def test_colimits_enriched_witnesses_match_pairwise(monkeypatch):
    seen = _parity(monkeypatch, co, "colimits_enriched_check", reference_colimits_enriched_check)
    assert laws.run_law("colimits-enriched", backends=("classical",)).status == PASS
    assert len(seen) == 2 and all(ok for ok, _ in seen)
    control = laws.run_negative("colimits-enriched")
    assert control.status == FAIL
    assert not seen[-1][0] and seen[-1][1] is not None


def test_first_failing_pair_is_pinned():
    # one point of the 3-chain posing as its colimit: the comparisons
    # (c0, c0, c1) and (c0, c0, c0) into the 2-chain agree at c1, but the
    # first is not below the second; the pair scan meets it first at k = 1, j = 0
    S, P, pt = FinPoset.chain(3), FinPoset.chain(2), FinPoset.chain(1)
    d = co.Diagram(("a",), (), {"a": pt}, {})
    fake = co.ColimitResult(S, {"a": MonotoneMap.make(pt, S, lambda _: "c1")}, None)
    homs = CL.hom(S, P)
    want = (False, ("pair", P, homs[1], homs[0]))
    assert reference_colimits_enriched_check(CL, d, fake, [P]) == want
    assert co.colimits_enriched_check(CL, d, fake, [P]) == want
    # the lax-epi control's cone with a stray point also first fails at k = 1, j = 0
    bk, C = laws._fake_scone_backend(junk=True), FinPoset.chain(2)
    homs = bk.hom(bk.lift(C).obj, C)
    want = (False, ("pair", homs[1], homs[0]))
    assert reference_lax_epi_check(bk, C, C) == want
    assert li.lax_epi_check(bk, C, C) == want


@pytest.mark.parametrize("base", [base for _, base in _small_bases(OQ1Bounds(max_base=2))])
def test_joint_epi_presheaf_matches_composites(base):
    bk = PresheafBackend(base)
    objects = [omega(base), bk.terminal()]
    for A in objects:
        for C in objects:
            assert li.joint_epi_check(bk, A, C) == reference_joint_epi_check(bk, A, C)


@pytest.mark.parametrize("base", [base for _, base in _small_bases(OQ1Bounds(max_base=2))])
def test_lax_epi_presheaf_matches_pairwise(base):
    bk = PresheafBackend(base)
    objects = [omega(base), bk.terminal()]
    for A in objects:
        for C in objects:
            assert li.lax_epi_check(bk, A, C) == reference_lax_epi_check(bk, A, C)
