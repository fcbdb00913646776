"""``_ConstructionCache.scope``: a block drops exactly the memo and hom-set
entries it added, on both backends."""
import pytest

from liftdom import presheaf as ps
from liftdom.backend import ClassicalBackend, PresheafBackend, sierpinski_base
from liftdom.order import FinPoset


@pytest.fixture(params=["classical", "presheaf"])
def cases(request):
    """A fresh backend and two small objects of it."""
    if request.param == "classical":
        return ClassicalBackend(), FinPoset.chain(2), FinPoset.chain(3)
    base = sierpinski_base()
    return PresheafBackend(base), ps.InternalPoset.constant(base, FinPoset.chain(2)), ps.omega(base)


def _entries(bk):
    """Each cache's entries, in insertion order, values by identity."""
    return [[(k, id(v)) for k, v in d.items()] for d in (bk._memo, bk._hom_cache)]


def test_scope_keeps_earlier_entries_and_drops_its_own(cases):
    bk, A, B = cases
    LA, homs = bk.lift(A), bk.hom(A, B)
    before = _entries(bk)
    with bk.scope():
        # hits on entries made before the block return the same values
        assert bk.lift(A) is LA and bk.hom(A, B) is homs
        bk.product(A, B)
        bk.hom(B, A)
        assert ("product", A, B) in bk._memo and (B, A) in bk._hom_cache
    assert _entries(bk) == before
    assert bk.lift(A) is LA


def test_scope_restores_the_caches_when_the_block_raises(cases):
    bk, A, B = cases
    bk.lift(A)
    before = _entries(bk)
    with pytest.raises(RuntimeError, match="inside"):
        with bk.scope():
            bk.product(A, B)
            bk.hom(A, B)
            raise RuntimeError("inside")
    assert _entries(bk) == before


def test_scopes_nest(cases):
    bk, A, B = cases
    with bk.scope():
        bk.lift(A)
        outer = _entries(bk)
        with bk.scope():
            bk.product(A, B)
            bk.hom(A, B)
        assert _entries(bk) == outer
        bk.hom(B, A)
        assert (B, A) in bk._hom_cache
    assert _entries(bk) == [[], []]
