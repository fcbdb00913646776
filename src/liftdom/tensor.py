"""Smash products, the tensor of algebras, and strict function spaces.

The smash product has four coequaliser presentations (two with lifted
source, two plain; two into the cartesian product, two into its lift):
``smash`` builds the third, ``smash_presentations`` all four.  The module
constructs explicit comparison isomorphisms between them, compares against
a direct quotient oracle in the classical backend, verifies the universal
property over bistrict maps by bounded exhaustion, and builds the braiding,
associator and unitors through that universal property.  Function spaces
are carved out of the exponential as equaliser subobjects, with the linear
and strict descriptions checked to agree.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .lifting import commutator, kleisli_extend, restriction_groups, strict_hom_set, swap_map, value_tables
from .order import FinPoset, StructureError


@dataclass
class TensorObject:
    factors: tuple
    obj: Any
    universal: Any  # A x B -> obj, the universal bistrict map
    proj: Any  # source -> obj, the defining coequaliser surjection
    source_kind: str  # "prod" or "lift"


def _mixed_cotuple(bk, A, B):
    """A x B, A + B, the mixed cotuple [ (id, bot) | (bot, id) ] : A + B -> A x B
    and the bottom pair 1 -> A x B: what the four presentations share."""
    pd = bk.product(A, B)
    cd = bk.coproduct(A, B)
    bot_a, bot_b = bk.bottom_point(A), bk.bottom_point(B)
    if bot_a is None or bot_b is None:
        raise StructureError("pointedness", "smash products need pointed factors")
    left = bk.pair(pd, bk.identity(A), bk.compose(bot_b, bk.bang(A)))
    right = bk.pair(pd, bk.compose(bot_a, bk.bang(B)), bk.identity(B))
    return pd, cd, bk.cotuple(cd, left, right), bk.pair(pd, bot_a, bot_b)


def smash(bk, A, B) -> TensorObject:
    """The smash product by presentation 3: the plain coproduct into A x B."""
    return _smash_by(bk, A, B, 3, _mixed_cotuple(bk, A, B))


def smash_presentations(bk, A, B) -> list:
    """The smash product by each presentation 1..4, over one mixed cotuple."""
    mixed = _mixed_cotuple(bk, A, B)
    return [_smash_by(bk, A, B, k, mixed) for k in (1, 2, 3, 4)]


def _smash_by(bk, A, B, presentation: int, mixed) -> TensorObject:
    pd, cd, m, bot = mixed
    src = bk.lift(cd.obj).obj if presentation in (1, 2) else cd.obj
    if presentation in (1, 3):
        const_bot = bk.compose(bot, bk.bang(src))
        other = bk.compose(bk.algebra_structure(pd.obj), bk.lift_map(m)) if presentation == 1 else m
        coeq = bk.coequalizer(const_bot, other)
        universal, kind = coeq.proj, "prod"
    else:
        ld_pd = bk.lift(pd.obj)
        const_bot = bk.compose(ld_pd.bottom, bk.bang(src))
        other = bk.lift_map(m) if presentation == 2 else bk.compose(ld_pd.unit, m)
        coeq = bk.coequalizer(const_bot, other)
        universal, kind = bk.compose(coeq.proj, ld_pd.unit), "lift"
    T = TensorObject((A, B), coeq.obj, universal, coeq.proj, kind)
    if not bk.is_pointed(T.obj):
        raise StructureError("pointedness", "smash apex lost its bottom")
    return T


def bistrictness(bk, A, B):
    """The test of maps f : A x B -> C for bistrictness, f(bot, b) = f(a, bot)
    = bot elementwise at every stage, with A's and B's bottoms read once for
    every f it is given and each codomain's bottom once per codomain."""
    pd = bk.product(A, B)
    ba, bb = bk.bottom_point(A), bk.bottom_point(B)
    bottoms: dict = {}  # codomain -> its bottom point, or None

    def bistrict(f) -> bool:
        if f.dom != pd.obj:
            raise StructureError("composability", "expected a map out of the product")
        if f.cod not in bottoms:
            bottoms[f.cod] = bk.bottom_point(f.cod)
        bot_c = bottoms[f.cod]
        if bot_c is None or ba is None or bb is None:
            raise StructureError("pointedness", "bistrictness needs pointed objects")
        for p in bk.stages(A):
            bap, bbp, bcp = bk.app(ba, p, "*"), bk.app(bb, p, "*"), bk.app(bot_c, p, "*")
            for a in bk.at(A, p):
                if bk.app(f, p, pd.pack(p, a, bbp)) != bcp:
                    return False
            for b in bk.at(B, p):
                if bk.app(f, p, pd.pack(p, bap, b)) != bcp:
                    return False
        return True

    return bistrict


def _bilinear_legs(bk, A, B):
    """The commutator LA x LB -> L(A x B) and the pairing of the folds
    LA x LB -> A x B: the legs of the bilinearity square that no map changes."""
    alpha_a, alpha_b = bk.algebra_structure(A), bk.algebra_structure(B)
    if alpha_a is None or alpha_b is None:
        raise StructureError("pointedness", "bilinearity and the tensor need pointed factors")
    pd_l = bk.product(bk.lift(A).obj, bk.lift(B).obj)
    folds = bk.pair(bk.product(A, B), bk.compose(alpha_a, pd_l.fst), bk.compose(alpha_b, pd_l.snd))
    return commutator(bk, A, B), folds


def bilinearity(bk, A, B):
    """The test of maps f : A x B -> C for bilinearity, with the commutator
    and the folds computed once for every f it is given."""
    kappa, folds = _bilinear_legs(bk, A, B)

    def bilinear(f) -> bool:
        alpha_c = bk.algebra_structure(f.cod)
        if alpha_c is None:
            raise StructureError("pointedness", "bilinearity needs algebra structure")
        return bk.compose(bk.compose(alpha_c, bk.lift_map(f)), kappa) == bk.compose(f, folds)

    return bilinear


def factor_bistrict(bk, T: TensorObject, f):
    """The strict map out of the smash induced by a bistrict f, verified."""
    if T.source_kind == "prod":
        # the universal map is the quotient itself
        return bk.descend(T.proj, f)
    # a lifted source: descend f's extension, the fold after L f
    alpha = bk.algebra_structure(f.cod)
    if alpha is None:
        raise StructureError("pointedness", "bistrict maps need pointed codomain")
    h = bk.descend(T.proj, bk.compose(alpha, bk.lift_map(f)))
    if bk.compose(h, T.universal) != f:
        raise StructureError("factorisation", "factorisation misses the universal map")
    return h


def universal_bistrict_check(bk, T: TensorObject, codomains) -> tuple:
    """Each bistrict map factors through the universal one by a unique strict map."""
    A, B = T.factors
    bistrict = bistrictness(bk, A, B)
    if not bistrict(T.universal):
        return False, "universal map is not bistrict"
    for C in codomains:
        if not bk.is_pointed(C):
            continue
        groups = restriction_groups(bk, strict_hom_set(bk, T.obj, C), (T.universal,))
        bistrict_maps = [f for f in bk.hom(bk.product(A, B).obj, C) if bistrict(f)]
        for table in value_tables(bk, bistrict_maps):
            count = len(groups.get((table,), ()))
            if count != 1:
                return False, ("bistrict map", C, count)
    return True, None


def smash_comparison(bk, T1: TensorObject, T2: TensorObject):
    """The canonical iso between two presentations, commuting with the
    universal maps; built by factoring one universal map through the other."""
    fwd = factor_bistrict(bk, T1, T2.universal)
    back = factor_bistrict(bk, T2, T1.universal)
    if bk.compose(back, fwd) != bk.identity(T1.obj):
        raise StructureError("isomorphism", "comparison does not invert (forward)")
    if bk.compose(fwd, back) != bk.identity(T2.obj):
        raise StructureError("isomorphism", "comparison does not invert (backward)")
    return fwd, back


def direct_smash_classical(bk, A: FinPoset, B: FinPoset) -> FinPoset:
    """Oracle: identify every pair with a bottom coordinate to a single point."""
    if bk.name != "classical":
        raise StructureError("backend", "the direct quotient oracle is classical-only")
    if not A.is_pointed() or not B.is_pointed():
        raise StructureError("pointedness", "smash products need pointed factors")
    ba, bb = A.bottom(), B.bottom()
    label = "⊥"
    els = (label,) + tuple(
        ("pr", a, b) for a in A.elements for b in B.elements if a != ba and b != bb
    )
    pairs = {(label, e) for e in els} | {
        (x, y)
        for x in els[1:]
        for y in els[1:]
        if A.leq(x[1], y[1]) and B.leq(x[2], y[2])
    }
    return FinPoset(els, frozenset(pairs))


def seal_tensor(bk, A, B):
    """The algebra tensor by the reflexive-style coequaliser on lifted pairs.

    Returns (Q, q, boxtimes): the object, the quotient map out of the lifted
    product, and the universal bilinear map.
    """
    kappa, folds = _bilinear_legs(bk, A, B)
    pd = bk.product(A, B)
    coeq = bk.coequalizer(kleisli_extend(bk, kappa, pd.obj), bk.lift_map(folds))
    ld = bk.lift(pd.obj)
    boxtimes = bk.compose(coeq.proj, ld.unit)
    return coeq.obj, coeq.proj, boxtimes


def seal_represents_bilinear_check(bk, A, B, codomains) -> tuple:
    """Bilinear maps correspond uniquely to strict maps out of the tensor."""
    Q, q, boxtimes = seal_tensor(bk, A, B)
    pd = bk.product(A, B)
    bilinear = bilinearity(bk, A, B)
    for C in codomains:
        if not bk.is_pointed(C):
            continue
        alpha_c = bk.algebra_structure(C)
        groups = restriction_groups(bk, strict_hom_set(bk, Q, C), (q,))
        for f in bk.hom(pd.obj, C):
            if not bilinear(f):
                continue
            hs = groups.get((value_tables(bk, [alpha_c], bk.lift_map(f))[0],), ())
            if len(hs) != 1:
                return False, ("bilinear map", C, len(hs))
            if bk.compose(hs[0], boxtimes) != f:
                return False, ("universal bilinear", C)
    return True, None


def seal_iso_check(bk, A, B) -> tuple:
    """The unique bistrict/bilinear iso between the tensor and the smash."""
    Q, q, boxtimes = seal_tensor(bk, A, B)
    T = smash(bk, A, B)
    alpha = bk.algebra_structure(T.obj)
    try:
        u = bk.descend(q, bk.compose(alpha, bk.lift_map(T.universal)))
    except StructureError:
        return False, "tensor-to-smash map does not descend"
    v = factor_bistrict(bk, T, boxtimes)
    if bk.compose(v, u) != bk.identity(Q) or bk.compose(u, v) != bk.identity(T.obj):
        return False, "comparison maps do not invert each other"
    if bk.compose(u, boxtimes) != T.universal:
        return False, "comparison misses the universal maps"
    return True, (u, v)


# ---------------------------------------------------------------------------
# Symmetric monoidal structure through the universal property.

def braiding(bk, A, B):
    """A (x) B -> B (x) A induced by the cartesian swap."""
    T_ab = smash(bk, A, B)
    T_ba = smash(bk, B, A)
    beta = factor_bistrict(bk, T_ab, bk.compose(T_ba.universal, swap_map(bk, A, B)))
    back = factor_bistrict(bk, T_ba, bk.compose(T_ab.universal, swap_map(bk, B, A)))
    if bk.compose(back, beta) != bk.identity(T_ab.obj):
        raise StructureError("isomorphism", "braiding does not square to the identity")
    return beta


def tensor_of_maps(bk, f, g):
    """f (x) g on smash products, for strict f and g."""
    T_src = smash(bk, f.dom, g.dom)
    T_tgt = smash(bk, f.cod, g.cod)
    pd = bk.product(f.dom, g.dom)
    pd_tgt = bk.product(f.cod, g.cod)
    fxg = bk.pair(pd_tgt, bk.compose(f, pd.fst), bk.compose(g, pd.snd))
    return factor_bistrict(bk, T_src, bk.compose(T_tgt.universal, fxg))


def unit_object(bk):
    """The monoidal unit: the lift of the terminal object."""
    return bk.lift(bk.terminal())


def left_unitor(bk, A):
    """I (x) A -> A and its inverse."""
    I_ld = unit_object(bk)
    I = I_ld.obj
    T = smash(bk, I, A)
    one = bk.terminal()
    la = bk.lift(A)
    alpha = bk.algebra_structure(A)
    if alpha is None:
        raise StructureError("pointedness", "unitors need pointed objects")
    pd_ia = bk.product(I, A)
    pd_ila = bk.product(I, la.obj)
    id_x_eta = bk.pair(pd_ila, pd_ia.fst, bk.compose(la.unit, pd_ia.snd))
    kappa = commutator(bk, one, A)
    p1a = bk.product(one, A)
    lsnd = bk.lift_map(p1a.snd)
    m = bk.compose(alpha, bk.compose(lsnd, bk.compose(kappa, id_x_eta)))
    lam = factor_bistrict(bk, T, m)
    ins = bk.pair(pd_ia, bk.compose(I_ld.unit, bk.bang(A)), bk.identity(A))
    lam_inv = bk.compose(T.universal, ins)
    if bk.compose(lam, lam_inv) != bk.identity(A):
        raise StructureError("isomorphism", "unitor fails on one side")
    if bk.compose(lam_inv, lam) != bk.identity(T.obj):
        raise StructureError("isomorphism", "unitor fails on the other side")
    return T, lam, lam_inv


def right_unitor(bk, A):
    I_ld = unit_object(bk)
    T = smash(bk, A, I_ld.obj)
    beta = braiding(bk, A, I_ld.obj)
    _, lam, lam_inv = left_unitor(bk, A)
    rho = bk.compose(lam, beta)
    beta_back = braiding(bk, I_ld.obj, A)
    rho_inv = bk.compose(beta_back, lam_inv)
    if bk.compose(rho, rho_inv) != bk.identity(A):
        raise StructureError("isomorphism", "right unitor fails")
    if bk.compose(rho_inv, rho) != bk.identity(T.obj):
        raise StructureError("isomorphism", "right unitor fails on the other side")
    return T, rho, rho_inv


def associator(bk, A, B, C):
    """((A (x) B) (x) C -> A (x) (B (x) C), built through tri-strict descent."""
    T_ab = smash(bk, A, B)
    T_bc = smash(bk, B, C)
    T_left = smash(bk, T_ab.obj, C)
    T_right = smash(bk, A, T_bc.obj)
    pd_ab = bk.product(A, B)
    pd_ab_c = bk.product(pd_ab.obj, C)
    pd_bc = bk.product(B, C)
    pd_a_tbc = bk.product(A, T_bc.obj)
    # h : (A x B) x C -> A (x) (B (x) C)
    bc_pair = bk.pair(
        pd_bc,
        bk.compose(pd_ab.snd, pd_ab_c.fst),
        pd_ab_c.snd,
    )
    w = bk.pair(
        pd_a_tbc,
        bk.compose(pd_ab.fst, pd_ab_c.fst),
        bk.compose(T_bc.universal, bc_pair),
    )
    h = bk.compose(T_right.universal, w)
    # descend along (x)_{A,B} x id_C: the smash of A and B holds
    # representatives, so (A (x) B) x C holds elements of (A x B) x C
    pd_tab_c = bk.product(T_ab.obj, C)
    t_x_id = bk.pair(pd_tab_c, bk.compose(T_ab.universal, pd_ab_c.fst), pd_ab_c.snd)
    assoc = factor_bistrict(bk, T_left, bk.descend(t_x_id, h))
    return T_left, T_right, assoc


def triangle_check(bk, A, B) -> bool:
    """(A (x) I) (x) B -> A (x) B both ways around the unitors agree."""
    I = unit_object(bk).obj
    _, _, assoc = associator(bk, A, I, B)
    _, rho, _ = right_unitor(bk, A)
    _, lam, _ = left_unitor(bk, B)
    lhs = tensor_of_maps(bk, rho, bk.identity(B))
    id_x_lam = tensor_of_maps(bk, bk.identity(A), lam)
    rhs = bk.compose(id_x_lam, assoc)
    return lhs == rhs


def pentagon_check(bk, A, B, C, D) -> bool:
    T_ab = smash(bk, A, B)
    T_cd = smash(bk, C, D)
    T_bc = smash(bk, B, C)
    _, _, a_ab_c_d = associator(bk, T_ab.obj, C, D)
    _, _, a_a_b_cd = associator(bk, A, B, T_cd.obj)
    one_path = bk.compose(a_a_b_cd, a_ab_c_d)
    _, _, a_ab_cd_inner = associator(bk, A, B, C)
    first = tensor_of_maps(bk, a_ab_cd_inner, bk.identity(D))
    _, _, a_a_bc_d = associator(bk, A, T_bc.obj, D)
    _, _, inner_last = associator(bk, B, C, D)
    last = tensor_of_maps(bk, bk.identity(A), inner_last)
    other_path = bk.compose(last, bk.compose(a_a_bc_d, first))
    return one_path == other_path


def hexagon_check(bk, A, B, C) -> bool:
    T_bc = smash(bk, B, C)
    T_ac = smash(bk, A, C)
    _, _, a1 = associator(bk, A, B, C)
    beta_a_bc = braiding(bk, A, T_bc.obj)
    _, _, a2 = associator(bk, B, C, A)
    lhs = bk.compose(a2, bk.compose(beta_a_bc, a1))
    beta_ab = braiding(bk, A, B)
    first = tensor_of_maps(bk, beta_ab, bk.identity(C))
    _, _, a_mid = associator(bk, B, A, C)
    beta_ac = braiding(bk, A, C)
    last = tensor_of_maps(bk, bk.identity(B), beta_ac)
    rhs = bk.compose(last, bk.compose(a_mid, first))
    return lhs == rhs


def monoidal_adjunction_check(bk, A, B) -> tuple:
    """Lifting is strong monoidal and the forgetful side is lax symmetric.

    Checks that the commutator descends to an iso from the smash of lifts
    onto the lift of the product, and that the two symmetry squares commute.
    """
    la, lb = bk.lift(A), bk.lift(B)
    pd = bk.product(A, B)
    T = smash(bk, la.obj, lb.obj)
    kappa = commutator(bk, A, B)
    kbar = factor_bistrict(bk, T, kappa)
    if not bk.is_iso(kbar):
        return False, "the commutator comparison is not an isomorphism"
    # strong-monoidal symmetry square
    T_ba = smash(bk, lb.obj, la.obj)
    kappa_ba = commutator(bk, B, A)
    kbar_ba = factor_bistrict(bk, T_ba, kappa_ba)
    beta_t = braiding(bk, la.obj, lb.obj)
    swap_l = bk.lift_map(swap_map(bk, A, B))
    if bk.compose(kbar_ba, beta_t) != bk.compose(swap_l, kbar):
        return False, "strong-monoidal symmetry square fails"
    # lax symmetry square for pointed factors
    if bk.is_pointed(A) and bk.is_pointed(B):
        T_ab = smash(bk, A, B)
        T_ba0 = smash(bk, B, A)
        beta0 = braiding(bk, A, B)
        if bk.compose(beta0, T_ab.universal) != bk.compose(
            T_ba0.universal, swap_map(bk, A, B)
        ):
            return False, "lax symmetry square fails"
    return True, kbar


# ---------------------------------------------------------------------------
# Strict and linear function spaces.

def _exp_components(bk, E, A, p, fe) -> dict:
    comp = {}
    for q in bk.base_down(p):
        comp[q] = {a: E.apply_elem(p, fe, q, a) for a in bk.at(A, q)}
    return comp


def linear_hom_members(bk, A, B):
    """Function elements whose fold-precomposite equals their extension."""
    E = bk.exponential(A, B)
    alpha_a = bk.algebra_structure(A)
    alpha_b = bk.algebra_structure(B)
    if alpha_a is None or alpha_b is None:
        raise StructureError("pointedness", "function spaces need pointed objects")
    la, lb = bk.lift(A), bk.lift(B)
    members = {}
    for p in bk.stages(A):
        good = set()
        for fe in bk.at(E.obj, p):
            comp = _exp_components(bk, E, A, p, fe)
            ok = True
            for q in bk.base_down(p):
                for u in bk.at(la.obj, q):
                    lhs = comp[q][bk.app(alpha_a, q, u)]
                    image = lb.from_family(q, [(r, comp[r][v]) for r, v in la.family(q, u)])
                    rhs = bk.app(alpha_b, q, image)
                    if lhs != rhs:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                good.add(fe)
        members[p] = frozenset(good)
    return E, members


def strict_hom_members(bk, A, B):
    """Function elements sending bottom to bottom at every stage, with A's
    and B's bottoms read once per stage."""
    E = bk.exponential(A, B)
    ba, bb = bk.bottom_point(A), bk.bottom_point(B)
    if ba is None or bb is None:
        raise StructureError("pointedness", "function spaces need pointed objects")
    members = {}
    for p in bk.stages(A):
        bots = [(q, bk.app(ba, q, "*"), bk.app(bb, q, "*")) for q in bk.base_down(p)]
        good = set()
        for fe in bk.at(E.obj, p):
            if all(E.apply_elem(p, fe, q, a) == b for q, a, b in bots):
                good.add(fe)
        members[p] = frozenset(good)
    return E, members


def strict_hom(bk, A, B):
    E, members = strict_hom_members(bk, A, B)
    return bk.subobject(E.obj, members)


def homs_coincide_check(bk, A, B) -> bool:
    """The strict and linear function spaces are equal as subsets."""
    _, linear = linear_hom_members(bk, A, B)
    _, strict = strict_hom_members(bk, A, B)
    return linear == strict


def kock_criterion_check(bk, A, B) -> bool:
    """The internal extension map between powers is strict: extending the
    constant-bottom function gives the constant-bottom function."""
    E = bk.exponential(A, B)
    la, lb = bk.lift(A), bk.lift(B)
    alpha_b = bk.algebra_structure(B)
    if alpha_b is None:
        return False
    bb = bk.bottom_point(B)
    for p in bk.stages(A):
        comps = {
            q: {a: bk.app(bb, q, "*") for a in bk.at(A, q)} for q in bk.base_down(p)
        }
        for q in bk.base_down(p):
            for u in bk.at(la.obj, q):
                image = lb.from_family(q, [(r, comps[r][v]) for r, v in la.family(q, u)])
                out = bk.app(alpha_b, q, image)
                if out != bk.app(bb, q, "*"):
                    return False
    return True


def _curry(bk, E, H, T, pd, X, A, h):
    """The strict map X -> H curried from the strict h : T -> B, where T is
    the smash of X and A (with product pd), and H is the strict function
    space of A and B inside the exponential E."""
    f = bk.compose(h, T.universal)

    def fn(p, c):
        comps = {
            q: {
                a: bk.app(f, q, pd.pack(q, bk.res_el(X, p, q, c), a))
                for a in bk.at(A, q)
            }
            for q in bk.base_down(p)
        }
        return E.encode(p, comps)

    return bk.mor_from_fn(X, H, fn)


def tensor_hom_adjunction_check(bk, C, A, B) -> tuple:
    """Currying: strict maps C (x) A -> B correspond to strict maps into the
    strict function space, bijectively and naturally in C."""
    T = smash(bk, C, A)
    E, members = strict_hom_members(bk, A, B)
    H, incl = bk.subobject(E.obj, members)
    pd = bk.product(C, A)

    def uncurry(g):
        def fn(p, x):
            c, a = pd.unpack(p, x)
            return E.apply_elem(p, bk.app(g, p, c), p, a)

        f = bk.mor_from_fn(pd.obj, B, fn)
        return factor_bistrict(bk, T, f)

    lhs = strict_hom_set(bk, T.obj, B)
    rhs = strict_hom_set(bk, C, H)
    if len(lhs) != len(rhs):
        return False, ("cardinality", len(lhs), len(rhs))
    for h in lhs:
        g = _curry(bk, E, H, T, pd, C, A, h)
        if g not in rhs:
            return False, "curried map is not strict"
        if uncurry(g) != h:
            return False, "uncurrying does not invert currying"
    for g in rhs:
        h = uncurry(g)
        if h not in lhs:
            return False, "uncurried map is not strict"
        if _curry(bk, E, H, T, pd, C, A, h) != g:
            return False, "currying does not invert uncurrying"
    return True, (len(lhs), len(rhs))


def tensor_hom_naturality_check(bk, C2, C, A, B) -> tuple:
    """Naturality of currying in the first argument."""
    T_c = smash(bk, C, A)
    T_c2 = smash(bk, C2, A)
    E, members = strict_hom_members(bk, A, B)
    H, _ = bk.subobject(E.obj, members)
    pd_c = bk.product(C, A)
    pd_c2 = bk.product(C2, A)
    for u in strict_hom_set(bk, C2, C):
        pd_map = bk.pair(pd_c, bk.compose(u, pd_c2.fst), pd_c2.snd)
        u_tensor_id = factor_bistrict(bk, T_c2, bk.compose(T_c.universal, pd_map))
        for h in strict_hom_set(bk, T_c.obj, B):
            lhs = _curry(bk, E, H, T_c2, pd_c2, C2, A, bk.compose(h, u_tensor_id))
            rhs = bk.compose(_curry(bk, E, H, T_c, pd_c, C, A, h), u)
            if lhs != rhs:
                return False, ("naturality", u, h)
    return True, None
