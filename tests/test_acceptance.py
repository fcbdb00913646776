"""Acceptance gate: one test per criterion, at its stated bound and budget.

Each test prints a single PASS/FAIL line (visible with -s or -rA) and
enforces its runtime budget; every numeric bound here is fixed, nothing is
deferred to later calibration.
"""
import time

from liftdom.backend import ClassicalBackend, PresheafBackend, sierpinski_base
from liftdom.laws import run_law, run_negative
from liftdom.lifting import (
    all_algebra_structures,
    algebra_structure,
    kz_check,
)
from liftdom.oq1 import OQ1Bounds, search_open_question_1
from liftdom.order import FinPoset, poset_iso, posets_upto
from liftdom.presheaf import global_elements_raw, omega
from liftdom.report import PASS
from liftdom.tensor import (
    bilinearity,
    bistrictness,
    direct_smash_classical,
    homs_coincide_check,
    seal_iso_check,
    smash_comparison,
    smash_presentations,
    tensor_hom_adjunction_check,
)

from support import is_order_embedding, monad_laws_hold

CL = ClassicalBackend()


class _budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, *_):
        elapsed = time.perf_counter() - self.t0
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.name}: {verdict} ({elapsed:.1f}s / budget {self.seconds}s)")
        assert elapsed <= self.seconds, f"{self.name} exceeded its {self.seconds}s budget"


def adjoin_fresh_bottom(A: FinPoset) -> FinPoset:
    # independent oracle for the classical lift
    label = "fresh"
    while label in A.elements:
        label += "'"
    els = (label,) + A.elements
    pairs = frozenset(A.pairs) | {(label, e) for e in els}
    return FinPoset(els, pairs)


def test_criterion_classical_lifting():
    with _budget("classical-lifting", 10):
        count = 0
        for A in posets_upto(4):
            count += 1
            ld = CL.lift(A)
            assert poset_iso(ld.obj, adjoin_fresh_bottom(A)) is not None
            assert is_order_embedding(ld.unit)
            assert monad_laws_hold(CL, A)
        assert count == 25  # all iso classes with at most 4 elements


def test_criterion_kz_uniqueness():
    with _budget("kz-uniqueness", 30):
        for X in posets_upto(4, pointed=True):
            alg = algebra_structure(CL, X)
            assert alg is not None
            ok, failures = kz_check(CL, alg)
            assert ok, failures
            assert all_algebra_structures(CL, X) == [alg.structure]


UNIVERSAL_LAWS = (
    "scone-universal",
    "sierpinski-cocomma",
    "open-classifier",
    "partial-product",
    "joint-epi",
    "lax-epi",
    "phoa",
    "paths",
)


def test_criterion_universal_properties():
    with _budget("universal-properties", 120):
        for name in UNIVERSAL_LAWS:
            rep = run_law(name)
            assert rep.status == PASS, (name, rep.instances)
            neg = run_negative(name)
            assert neg.status == "fail", name
            assert any(i.witness for i in neg.instances if i.status == "fail"), name


def test_criterion_smash_products():
    with _budget("smash-products", 180):
        pointed5 = posets_upto(5, pointed=True)
        for A in pointed5:
            for B in pointed5:
                tensors = smash_presentations(CL, A, B)
                for i in range(4):
                    for j in range(i + 1, 4):
                        smash_comparison(CL, tensors[i], tensors[j])
                assert poset_iso(tensors[0].obj, direct_smash_classical(CL, A, B)) is not None
                assert tensors[0].obj.n == (A.n - 1) * (B.n - 1) + 1
        pointed3 = posets_upto(3, pointed=True)
        for A in pointed3:
            for B in pointed3:
                pd = CL.product(A, B)
                bilinear, bistrict = bilinearity(CL, A, B), bistrictness(CL, A, B)
                for C in pointed3:
                    for f in CL.hom(pd.obj, C):
                        assert bistrict(f) == bilinear(f)
                ok, w = seal_iso_check(CL, A, B)
                assert ok, w


def test_criterion_monoidal_closed():
    with _budget("monoidal-closed", 120):
        rep = run_law("monoidal-adjunction")
        assert rep.status == PASS
        pointed3 = posets_upto(3, pointed=True)
        for A in pointed3:
            for B in pointed3:
                assert homs_coincide_check(CL, A, B)
        for C in pointed3:
            for A in pointed3:
                for B in pointed3:
                    ok, w = tensor_hom_adjunction_check(CL, C, A, B)
                    assert ok, w


def test_criterion_colimit_creation():
    with _budget("colimit-creation", 120):
        rep = run_law("connected-colimits")
        assert rep.status == PASS
        diag_instances = [i for i in rep.instances if i.objects.startswith("diagram#")]
        assert len(diag_instances) >= 20
        rep2 = run_law("algebras-cocomplete")
        assert rep2.status == PASS


def test_criterion_constructive_phenomena():
    with _budget("constructive-phenomena", 60):
        bk = PresheafBackend(sierpinski_base())
        O = omega(bk.base)
        assert len(O.at("s1")) == 3
        assert len(O.at("s0")) == 2
        assert len(global_elements_raw(O)) == 3
        lone = bk.lift(bk.terminal())
        assert bk.iso(lone.obj, O) is not None
        two = bk.coproduct(bk.terminal(), bk.terminal())
        assert len(global_elements_raw(two.obj)) == 2
        assert bk.iso(lone.obj, two.obj) is None
        members = {p: frozenset(s for s in O.at(p) if s.members) for p in bk.base.stages}
        P, _ = bk.subobject(O, members)
        lbang = bk.lift_map(bk.bang(P))
        assert not bk.is_iso(lbang)
        assert bk.iso(bk.lift(P).obj, lone.obj) is None


def test_criterion_open_question_search():
    with _budget("open-question-search", 600):
        rep1 = search_open_question_1()
        rep2 = search_open_question_1()
        assert rep1.to_json(zero_elapsed=True) == rep2.to_json(zero_elapsed=True)
        fails = [i for i in rep1.instances if i.status == "fail" and "carrier" in i.objects]
        assert all("confirmed candidate" in i.witness for i in fails)
        assert not any(i.status == "unavailable" for i in rep1.instances)
        clean = search_open_question_1(OQ1Bounds(max_base=0, max_stage=0, max_carrier=0))
        assert clean.status == "pass"


def test_criterion_full_default_suite(default_suite_run):
    # the one `check all` run of the session (conftest.py), through the CLI
    run = default_suite_run
    verdict = "PASS" if run.exit_code == 0 and run.elapsed <= 900 else "FAIL"
    print(f"ACCEPTANCE full-default-suite: {verdict} ({run.elapsed:.1f}s / budget 900s)")
    assert run.exit_code == 0
    assert run.elapsed <= 900, "full-default-suite exceeded its 900s budget"
