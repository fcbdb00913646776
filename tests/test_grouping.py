"""The one-pass mediator grouping against the per-datum scan it replaced.

Each universal-property check below used to scan every candidate mediator
for every competing datum.  The ``scan_*`` functions keep that scan as the
reference: for each rewritten check, ``(ok, witness)`` must agree on the
default suite's instances (with a smaller apex catalog, so the scan stays
cheap), and on built failures where a key merges two mediators or has none.
The competing cocones come from the composing reference search in
``test_value_tables``.
"""
from liftdom import laws
from liftdom.backend import ClassicalBackend, UnavailableError
from liftdom.colimits import (
    ColimitResult,
    Diagram,
    colimit,
    colimit_universal_check,
    coproduct_algebras,
    coproduct_algebras_universal_check,
    creation_check,
    lift_algebra_to_colimit,
)
from liftdom.lifting import all_algebra_structures, restriction_groups, strict_hom_set, value_tables
from liftdom.order import FinPoset, MonotoneMap, StructureError, posets_upto
from liftdom.tensor import (
    bilinearity,
    bistrictness,
    seal_represents_bilinear_check,
    seal_tensor,
    smash,
    universal_bistrict_check,
)

from test_value_tables import reference_enumerate_cocones

CL = ClassicalBackend()
S = FinPoset.chain(2)
C3 = FinPoset.chain(3)


# ---------------------------------------------------------------------------
# The reference scans.

def scan_colimit_universal_check(bk, d, res, apexes):
    if not all(
        bk.compose(res.legs[t], d.arrows[name]) == res.legs[s]
        for name, s, t in d.edges
    ):
        return False, "colimit legs do not commute"
    for P in apexes:
        homs = bk.hom(res.apex, P)
        for legs in reference_enumerate_cocones(bk, d, P, bk.hom):
            matching = [
                h
                for h in homs
                if all(bk.compose(h, res.legs[n]) == legs[n] for n in d.nodes)
            ]
            if len(matching) != 1:
                return False, ("cocone", P, len(matching))
    return True, None


def scan_creation_check(bk, d, apexes):
    if not d.is_connected():
        return False, "diagram is not connected"
    try:
        res, beta, _ = lift_algebra_to_colimit(bk, d)
    except (StructureError, UnavailableError) as e:
        return False, f"lifting failed: {e}"
    structures = all_algebra_structures(bk, res.apex)
    if structures != [beta]:
        return False, ("structure not unique", len(structures))
    for P in [P for P in apexes if bk.is_pointed(P)]:
        shoms = strict_hom_set(bk, res.apex, P)
        for legs in reference_enumerate_cocones(
            bk, d, P, leg_pool=lambda X, C: strict_hom_set(bk, X, C)
        ):
            matching = [
                h
                for h in shoms
                if all(bk.compose(h, res.legs[n]) == legs[n] for n in d.nodes)
            ]
            if len(matching) != 1:
                return False, ("algebra cocone", P, len(matching))
    return True, None


def scan_coproduct_algebras_universal_check(bk, X, Y, apexes):
    Q, beta, inj_x, inj_y = coproduct_algebras(bk, X, Y)
    for P in apexes:
        if not bk.is_pointed(P):
            continue
        shoms = strict_hom_set(bk, Q, P)
        for f in strict_hom_set(bk, X, P):
            for g in strict_hom_set(bk, Y, P):
                matching = [
                    h
                    for h in shoms
                    if bk.compose(h, inj_x) == f and bk.compose(h, inj_y) == g
                ]
                if len(matching) != 1:
                    return False, ("pair", P, len(matching))
    return True, (Q, inj_x, inj_y)


def scan_universal_bistrict_check(bk, T, codomains):
    A, B = T.factors
    bistrict = bistrictness(bk, A, B)
    if not bistrict(T.universal):
        return False, "universal map is not bistrict"
    for C in codomains:
        if not bk.is_pointed(C):
            continue
        shoms = strict_hom_set(bk, T.obj, C)
        for f in bk.hom(bk.product(A, B).obj, C):
            if not bistrict(f):
                continue
            matching = [h for h in shoms if bk.compose(h, T.universal) == f]
            if len(matching) != 1:
                return False, ("bistrict map", C, len(matching))
    return True, None


def scan_seal_represents_bilinear_check(bk, A, B, codomains):
    Q, q, boxtimes = seal_tensor(bk, A, B)
    pd = bk.product(A, B)
    for C in codomains:
        if not bk.is_pointed(C):
            continue
        alpha_c = bk.algebra_structure(C)
        shoms = strict_hom_set(bk, Q, C)
        for f in bk.hom(pd.obj, C):
            if not bilinearity(bk, A, B)(f):
                continue
            dagger = bk.compose(alpha_c, bk.lift_map(f))
            matching = [h for h in shoms if bk.compose(h, q) == dagger]
            if len(matching) != 1:
                return False, ("bilinear map", C, len(matching))
            if bk.compose(matching[0], boxtimes) != f:
                return False, ("universal bilinear", C)
    return True, None


# ---------------------------------------------------------------------------
# Agreement on the suite's instances.

APEXES = posets_upto(4)


def test_restriction_groups_keep_hom_order():
    homs = CL.hom(C3, S)
    leg = MonotoneMap.make(S, C3, {"c0": "c0", "c1": "c2"})
    groups = restriction_groups(CL, homs, (leg,))
    assert sum(len(hs) for hs in groups.values()) == len(homs)
    # each key is the value table of h . leg, and each group keeps hom order
    for (key,), hs in groups.items():
        assert hs == [h for h in homs if value_tables(CL, [CL.compose(h, leg)])[0] == key]


def test_coproduct_check_matches_scan():
    for X, Y in [(S, S), (S, C3), (C3, C3), (S, FinPoset.chain(1))]:
        assert coproduct_algebras_universal_check(CL, X, Y, APEXES) == (
            scan_coproduct_algebras_universal_check(CL, X, Y, APEXES)
        )


def test_creation_and_colimit_checks_match_scan():
    for d in laws._generated_diagrams(CL, 3):
        assert creation_check(CL, d, APEXES) == scan_creation_check(CL, d, APEXES)
        res = colimit(CL, d)
        assert colimit_universal_check(CL, d, res, APEXES) == (
            scan_colimit_universal_check(CL, d, res, APEXES)
        )


def test_tensor_checks_match_scan():
    codomains = posets_upto(3, pointed=True)
    small = list(posets_upto(2, pointed=True)) + [C3]
    for A in small:
        for B in small:
            T = smash(CL, A, B)
            assert universal_bistrict_check(CL, T, codomains) == (
                scan_universal_bistrict_check(CL, T, codomains)
            )
    assert seal_represents_bilinear_check(CL, S, S, APEXES) == (
        scan_seal_represents_bilinear_check(CL, S, S, APEXES)
    )


# ---------------------------------------------------------------------------
# The failure path: a merged key reports 2 mediators, a missing key 0.

def single_node(X):
    return Diagram(("a",), (), {"a": X}, {})


def test_merged_key_reports_two():
    # the leg skips c1, so two maps out of the 3-chain restrict alike
    d = single_node(S)
    leg = MonotoneMap.make(S, C3, {"c0": "c0", "c1": "c2"})
    fake = ColimitResult(C3, {"a": leg}, None)
    want = (False, ("cocone", S, 2))
    assert colimit_universal_check(CL, d, fake, [S]) == want
    assert scan_colimit_universal_check(CL, d, fake, [S]) == want


def test_missing_key_reports_zero():
    # a one-point apex cannot mediate a cocone that separates c0 from c1
    d = single_node(S)
    point = FinPoset.chain(1)
    leg = MonotoneMap.make(S, point, lambda _: "c0")
    fake = ColimitResult(point, {"a": leg}, None)
    want = (False, ("cocone", S, 0))
    assert colimit_universal_check(CL, d, fake, [S]) == want
    assert scan_colimit_universal_check(CL, d, fake, [S]) == want
