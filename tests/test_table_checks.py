"""The per-pair tables of the per-map checks against their map-level
references, map by map.

``strict-iff-hom``, ``strict-iff-inductive``, ``monadicity-triple`` (whose
map lane runs the first two tests), ``conservative-L``, ``partial-product``
(its round trip) and ``bistrict-iff-bilinear`` read each map against a
table built once per pair (``tables.table_test``).  The table is checked
on the pair's first map; the map-level check stays the reference and the
fallback.  Here every pair of each family runs through its test and through
the reference, and both must give the same outcome, a refusal included, on
every map.  The plain classical backend must trust every table; each fault
of ``laws.REGISTRY`` may send a pair to the reference, but a trusted table
must then agree with it on every map too.

Sizes: each family at its law's default bound on every backend, and at one
more on the plain backend where the reference finishes in about a second:
``strict-iff-hom`` at 5, the semidirected-sup test at 4 (its reference takes
about 25 s at 5), ``conservative-L`` and ``partial-product`` at 4.
``bistrict-iff-bilinear`` stays at 3: at 4 its hom-sets out of the products
hold millions of maps."""
import pytest

from liftdom import laws, tables
from liftdom import lifting as li
from liftdom import tensor as te
from liftdom.backend import ClassicalBackend, PresheafBackend, UnavailableError, sierpinski_base
from liftdom.order import StructureError, posets_upto
from liftdom.presheaf import omega

from test_fault_matrix import fault_name


def _outcome(fn, *case):
    """What ``fn(*case)`` gives, or the refusal it raises: a report reads both."""
    try:
        return fn(*case)
    except Exception as e:  # noqa: BLE001  (any raise becomes a report line)
        return type(e), str(e)


@pytest.fixture
def made(monkeypatch):
    """The (reference, build) of every per-pair test made while it is active."""
    out, real = [], tables.table_test

    def spy(reference, build):
        out.append((reference, build))
        return real(reference, build)

    monkeypatch.setattr(tables, "table_test", spy)
    return out


def _trusted(reference, build, cases, want) -> bool:
    """Whether the pair's table is trusted after its first case; a trusted
    table must give the reference's outcome on every case."""
    try:
        verdict, agrees = build(*cases[0])
    except (LookupError, StructureError, UnavailableError):
        return False
    if not agrees or _outcome(verdict, *cases[0]) != want[0]:
        return False
    assert [_outcome(verdict, *case) for case in cases] == want
    return True


def _check(made, test, cases):
    """Run one test over its cases, map by map against the reference it was
    made with; returns whether its table was trusted (None without cases)."""
    (reference, build), = made[-1:]
    got = [_outcome(test, *case) for case in cases]
    want = [_outcome(reference, *case) for case in cases]
    assert got == want
    return _trusted(reference, build, cases, want) if cases else None


def _map_pairs(bk, n, pointed):
    ps = posets_upto(n, pointed=pointed)
    return [(A, B, [(f,) for f in bk.hom(A, B)]) for A in ps for B in ps]


def _map_tests(bk, made, n, pointed, make):
    """Every pair of (pointed) posets up to n through ``make(bk, A, B)``;
    per pair with maps, the size of A and whether its table was trusted."""
    return [(A.n, _check(made, make(bk, A, B), cases)) for A, B, cases in _map_pairs(bk, n, pointed) if cases]


def _round_trip_tests(bk, made, objects):
    """Every pair of ``objects`` through the round trip of partial-product;
    per pair, its domain and whether its table was trusted."""
    out = []
    for A in objects:
        for B in objects:
            try:
                pms = li.enumerate_partial_maps(bk, A, B)
                cases = [(pm, li.partial_to_total(bk, pm)) for pm in pms]
            except (StructureError, UnavailableError, LookupError):
                continue  # the law stops before its round trip
            out.append((A, _check(made, tables.round_trip_test(bk, A, B), cases)))
    return out


def _bilinear_tests(bk, made, n):
    """Every pointed triple up to n through ``bilinearity``; per pair and
    codomain, the size of the first factor and whether its table was
    trusted."""
    out, ps = [], posets_upto(n, pointed=True)
    for A in ps:
        for B in ps:
            try:
                bilinear = te.bilinearity(bk, A, B)
            except (StructureError, UnavailableError, LookupError):
                continue  # the law reports the pair's refusal before any map
            kappa, folds = te._bilinear_legs(bk, A, B)
            pd = bk.product(A, B).obj
            for C in ps:
                cases = [(f,) for f in bk.hom(pd, C)]
                got = [_outcome(bilinear, *case) for case in cases]
                want = [_outcome(te.is_bilinear, bk, f, kappa, folds) for f, in cases]
                assert got == want
                (reference, build), = made[-1:]
                out.append((A.n, _trusted(reference, build, cases, want)))
    return out


def _all_tests(bk, made, sizes):
    """Each family through its tests at ``sizes`` (family -> max_size); per
    family, the (domain, trusted) of its pairs."""
    return {
        "strict-iff-hom": _map_tests(bk, made, sizes["strict-iff-hom"], True, tables.strict_iff_hom_test),
        "strict-iff-inductive": _map_tests(bk, made, sizes["strict-iff-inductive"], True,
                                           tables.strict_inductive_test),
        "conservative-L": _map_tests(bk, made, sizes["conservative-L"], False, tables.conservativity_test),
        "partial-product": _round_trip_tests(bk, made, posets_upto(sizes["partial-product"])),
        "bistrict-iff-bilinear": _bilinear_tests(bk, made, sizes["bistrict-iff-bilinear"]),
    }


DEFAULTS = {name: laws.REGISTRY[name].bounds.max_size for name in
            ("strict-iff-hom", "strict-iff-inductive", "conservative-L", "partial-product", "bistrict-iff-bilinear")}


def test_the_default_bounds_use_every_table(made):
    trusted = _all_tests(ClassicalBackend(), made, DEFAULTS)
    for name, pairs in trusted.items():
        assert pairs and all(flag for _, flag in pairs), name
    # monadicity-triple's map lane runs the two strict-iff tests on the
    # pointed maps up to its own bound, a subset of the ones above
    assert laws.REGISTRY["monadicity-triple"].bounds.max_size <= DEFAULTS["strict-iff-inductive"]


def test_one_bound_more_uses_every_table(made):
    bk = ClassicalBackend()
    for pairs in (_map_tests(bk, made, 5, True, tables.strict_iff_hom_test),
                  _map_tests(bk, made, 4, True, tables.strict_inductive_test),
                  _map_tests(bk, made, 4, False, tables.conservativity_test),
                  _round_trip_tests(bk, made, posets_upto(4))):
        assert all(flag for _, flag in pairs)


def test_the_presheaf_round_trip_uses_its_table(made):
    bk = PresheafBackend(sierpinski_base())
    assert all(flag for _, flag in _round_trip_tests(bk, made, [bk.terminal(), omega(bk.base)]))


FAULTS = {}
for _law in laws.REGISTRY.values():
    FAULTS.setdefault(fault_name(_law), _law.fault)


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_every_fault_gives_the_reference_outcome(made, fault):
    record = FAULTS[fault]()
    if record.classical is not None:
        trusted = _all_tests(record.classical, made, DEFAULTS)
        # under these two faults a table is trusted only out of the empty
        # poset, where the faulted L f or unit cannot differ from the
        # codec's; out of any other poset the first-map check sends the pair
        # to the reference (which reads the unit, where the table reads the
        # codec)
        if fault == "_LiftMapAtBottom":
            for name in ("strict-iff-hom", "conservative-L", "bistrict-iff-bilinear"):
                assert not any(flag for n, flag in trusted[name] if n), name
        if fault == "_UnitAtBottom":
            assert not any(flag for n, flag in trusted["conservative-L"] if n)
    else:
        bk = record.presheaf(sierpinski_base())
        _round_trip_tests(bk, made, [bk.terminal(), omega(bk.base)])
