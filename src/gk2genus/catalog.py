"""Parameterized subgroup families of the chord stabilizer M_ell.

The subgroups of M_ell fall into a finite list of families, each a group
shape with small integer parameters: subfield sizes, central orders, torus
orders, triangle data.  enumerate_instances(q) lists every admissible
(family, parameters) combination for q even or q = 1 (mod 4).  For q <= 25,
instantiate(inst) builds the corresponding explicit subgroup and certifies
its order together with family-specific structural markers; a recipe that
fails to certify raises RecipeError instead of substituting something else.
Wild families carry closed-form (genus, orbit count) data so the spectrum
engine can run where explicit groups are out of reach; tame families are
evaluated through the group action directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from sympy import divisors
from sympy.ntheory.residue_ntheory import n_order

from . import formulas
from .gf import embed_codes, make_field
from .mlgroup import DetPreimage, Subgroup, closure, ml_context

# Explicit subgroups (and with them the brute-force oracle) stay feasible
# up to this field size; past it only closed-form data is available.
SMALL_Q_LIMIT = 25
ENUM_Q_LIMIT = 2**20


class RecipeError(RuntimeError):
    """A generator recipe failed to produce its certified subgroup."""


@dataclass(frozen=True)
class FamilyInstance:
    """One admissible parameter choice for a subgroup family.

    params is a tuple of (name, value) pairs in a fixed per-family order,
    order is the subgroup order inside M_ell, tame records whether the
    characteristic divides that order, and det_rule is the order of the
    determinant image when the parameters force it (None when it has to be
    measured on the constructed subgroup).
    """

    q: int
    family: str
    params: tuple
    order: int
    tame: bool
    det_rule: int | None = None

    @property
    def param_dict(self):
        return dict(self.params)

    def param(self, name):
        for key, value in self.params:
            if key == name:
                return value
        raise KeyError(name)

    def label(self):
        inner = ",".join("%s=%d" % kv for kv in self.params)
        return "%s[q=%d%s%s]" % (self.family, self.q, "," if inner else "", inner)

    def genus_orbits(self):
        """Closed-form (quotient genus, short orbit count), or None if tame-only."""
        return _formula_value(self)


# -- closed-form dispatch -------------------------------------------------------


def _formula_value(inst):
    q, P = inst.q, inst.param_dict
    fam = inst.family
    if fam == "elementary_abelian":
        return formulas.elementary_abelian_quotient(q, P["f"], P["w"])
    if fam == "sl2_two":
        return formulas.sl2_two_quotient(q, P["w"])
    if fam == "sl2_subfield":
        if q % 2 == 0:
            return formulas.sl2_subfield_quotient_even(q, P["k"], P["w"])
        return formulas.sl2_subfield_quotient(q, P["k"], P["w"])
    if fam == "dihedral" and q % 2 == 0:
        return formulas.dihedral_quotient_even(q, P["t"], P["w"])
    if fam == "alt5":
        return formulas.alt5_quotient_even(q, P["w"])
    if fam == "alt4":
        return formulas.alt4_quotient_even(q, P["w"])
    if fam == "elation_semidirect":
        return formulas.elation_semidirect_quotient(q, P["f"], P["d"], P["w"])
    if fam == "triangle":
        return formulas.triangle_quotient_even(q, P["t"], P["w"])
    if fam == "sl2_five" and q % 3 == 0:
        return formulas.sl2_five_quotient_char3(q, P["w"])
    if fam == "sl2_split_ext":
        return formulas.sl2_split_ext_quotient(q, P["k"], P["w"])
    if fam == "unitary_pm":
        return formulas.unitary_pm_quotient(q, P["k"], P["w"])
    if fam == "point_stabilizer":
        return formulas.point_stabilizer_quotient(q, P["mu"], P["u"])
    if fam == "torus_cyclic":
        return formulas.point_stabilizer_quotient(q, P["e"], 0)
    return None


# -- 2x2 matrix helpers over the code field -------------------------------------


def _mmul(F, A, B):
    return tuple(
        tuple(
            F.add(F.mul(A[i][0], B[0][j]), F.mul(A[i][1], B[1][j])) for j in (0, 1)
        )
        for i in (0, 1)
    )


def _mdet(F, A):
    return F.sub(F.mul(A[0][0], A[1][1]), F.mul(A[0][1], A[1][0]))


def _minv(F, A):
    d = _mdet(F, A)
    if d == 0:
        raise ZeroDivisionError("singular matrix")
    di = F.inv(d)
    return (
        (F.mul(di, A[1][1]), F.mul(di, F.neg(A[0][1]))),
        (F.mul(di, F.neg(A[1][0])), F.mul(di, A[0][0])),
    )


# -- the chord frame ------------------------------------------------------------
#
# The two rational chord points R0 = (x0 : 1 : 0), R1 = (x1 : 1 : 0) span the
# chord plane.  P sends the standard symplectic-looking basis to (e0, e1) with
# e_i the column of R_i, scaled so that the Hermitian form becomes the
# antisymmetric matrix [[0, delta], [-delta, 0]] with delta^(q-1) = -1.  Under
# this change of basis a matrix with entries in the q-subfield and determinant
# one conjugates into a unique chord element with unit determinant character.


def _frame(ctx):
    cached = getattr(ctx, "_chord_frame", None)
    if cached is not None:
        return cached
    ctx._ensure_structure()
    F, q = ctx.F, ctx.q
    if ctx.R0[1] != 1 or ctx.R1[1] != 1 or ctx.R0[2] != 0 or ctx.R1[2] != 0:
        raise RecipeError("chord points are not in (x : 1 : 0) form")
    x0, x1 = ctx.R0[0], ctx.R1[0]
    delta = 1 if ctx.p == 2 else F.pow(F.gen_code, (q + 1) // 2)
    kappa = F.sub(F.mul(x0, ctx.frobq[x1]), 1)
    c = F.div(delta, F.pow(kappa, q))
    P = ((x0, F.mul(c, x1)), (1, c))
    Pinv = _minv(F, P)
    gram = tuple(
        tuple(
            F.sub(
                F.mul(ctx.frobq[P[0][i]], P[0][j]),
                F.mul(ctx.frobq[P[1][i]], P[1][j]),
            )
            for j in (0, 1)
        )
        for i in (0, 1)
    )
    if gram != ((0, delta), (F.neg(delta), 0)):
        raise RecipeError("chord frame does not respect the Hermitian form")
    ctx._chord_frame = (delta, P, Pinv)
    return ctx._chord_frame


def _block_of(ctx, g):
    a, c, t = g
    F = ctx.F
    return ((a, F.mul(t, ctx.frobq[c])), (c, F.mul(t, ctx.frobq[a])))


def _push_matrix(ctx, M):
    """Conjugate a matrix with q-subfield entries into chord coordinates."""
    _, P, Pinv = _frame(ctx)
    F = ctx.F
    for row in M:
        for entry in row:
            if ctx.frobq[entry] != entry:
                raise RecipeError("matrix entries must lie in the q-subfield")
    return _mmul(F, _mmul(F, P, M), Pinv)


def _det1_element(ctx, M):
    """The unique chord element covering a determinant-one subfield matrix."""
    if _mdet(ctx.F, M) != 1:
        raise RecipeError("expected determinant one")
    B = _push_matrix(ctx, M)
    g = (B[0][0], B[1][0], 1)
    if _block_of(ctx, g) != B or not ctx.is_element(g):
        raise RecipeError("conjugated matrix is not a unit-character chord element")
    return g


# -- shared building blocks -----------------------------------------------------


def _center_gen(ctx, w):
    """Generator of the order-w central subgroup acting trivially downstairs."""
    ctx._ensure_structure()
    base = ctx.q + 1 if ctx.p == 2 else (ctx.q + 1) // 2
    if base % w:
        raise RecipeError("w=%d does not divide the central order %d" % (w, base))
    return ctx.power(ctx.z1_gen, base // w)


def _closure_build(ctx, gens, expected, label):
    sub = Subgroup.from_closure(ctx, gens, maxsize=4 * expected + 16, label=label)
    if sub.order != expected:
        raise RecipeError(
            "%s closed to order %d, expected %d" % (label, sub.order, expected)
        )
    return sub


def _involution_count(ctx, sub):
    return sum(1 for g in sub.elements if g != ctx.identity and ctx.power(g, 2) == ctx.identity)


def _conj(ctx, g, x):
    return ctx.compose(ctx.compose(g, x), ctx.inverse(g))


def _invariant_elation_gens(ctx, delta, u):
    """Generators of an order-p^u elation subgroup normalized by delta.

    Greedy scan over the elation group at the first chord point: each
    candidate contributes its whole conjugation orbit, so every partial span
    stays delta-invariant.  Deterministic, and fails loudly when no invariant
    subgroup of the requested size exists.
    """
    ctx._ensure_structure()
    target = ctx.p**u
    dinv = ctx.inverse(delta)
    span = {ctx.identity}
    gens = []
    for x in ctx.e_q:
        if x in span:
            continue
        orbit = [x]
        y = ctx.compose(ctx.compose(delta, x), dinv)
        while y != x:
            orbit.append(y)
            y = ctx.compose(ctx.compose(delta, y), dinv)
        try:
            trial = closure(gens + orbit, ctx.compose, ctx.identity, maxsize=target)
        except ValueError:
            continue
        span = trial
        gens = gens + orbit
        if len(span) == target:
            return gens
    raise RecipeError("no invariant elation subgroup of order %d found" % target)


def _torus_power(ctx, order):
    ctx._ensure_structure()
    q = ctx.q
    if (q * q - 1) % order:
        raise RecipeError("no torus element of order %d" % order)
    g = ctx.power(ctx.torus_gen, (q * q - 1) // order)
    if ctx.order_of(g) != order:
        raise RecipeError("torus power has wrong order")
    return g


def _neg_norm_rep(ctx):
    """Smallest c with c^(q+1) = -1; (0, c, tau) then swaps the chord points."""
    return min(c for a, c, _ in ctx.s_ell if a == 0)


def _unit_index(ctx):
    cached = getattr(ctx, "_unit_index_map", None)
    if cached is None:
        cached = {code: i for i, code in enumerate(ctx.mu)}
        ctx._unit_index_map = cached
    return cached


def _a1_element(ctx, i, j):
    """Diagonalizable element with unit eigenvalue pair (eps^i, eps^j)."""
    n = ctx.q + 1
    a = ctx.mu[i % n]
    return (a, 0, ctx.F.mul(a, ctx.mu[j % n]))


def _a1_pairs(n, d, e, a_off):
    """Index pairs of the subgroup of Z_n x Z_n with row data (d, e, a_off)."""
    pairs = set()
    for x in range(d):
        for y in range(e):
            pairs.add(((x * (n // d) + y * a_off) % n, (y * (n // e)) % n))
    if len(pairs) != d * e:
        raise RecipeError("diagonal pair data does not span a group of order %d" % (d * e))
    return pairs


def _a1_triples(n):
    """Every subgroup of Z_n x Z_n exactly once, as (d, e, a_off) rows."""
    out = []
    for d in divisors(n):
        step = n // d
        for e in divisors(n):
            for a_off in range(step):
                if (e * a_off) % step == 0:
                    out.append((d, e, a_off))
    return out


# -- standard matrix generators -------------------------------------------------


def _sl2_matrix_gens(ctx, k):
    """Standard SL(2, p^k) generators with entries in the order-p^k subfield."""
    F = ctx.F
    sub = make_field(ctx.p, k)
    emb = embed_codes(sub, F)
    mats = [((1, emb[ctx.p**i]), (0, 1)) for i in range(k)]
    mats.append(((0, 1), (F.neg(1), 0)))
    return mats


def _quaternion_iota(ctx):
    F, q = ctx.F, ctx.q
    iot = F.pow(F.gen_code, (q * q - 1) // 4)
    if F.mul(iot, iot) != F.neg(1) or ctx.frobq[iot] != iot:
        raise RecipeError("no square root of -1 in the q-subfield")
    return iot


def _sl2_three_matrices(ctx):
    """Quaternion generators i, j and an order-3 unit for SL(2,3)."""
    F = ctx.F
    iot = _quaternion_iota(ctx)
    half = F.inv(F.add(1, 1))
    i_mat = ((iot, 0), (0, F.neg(iot)))
    j_mat = ((0, 1), (F.neg(1), 0))
    om = F.mul(half, F.sub(iot, 1))
    op = F.mul(half, F.add(iot, 1))
    theta = ((om, om), (op, F.neg(op)))
    third = _mmul(F, theta, _mmul(F, theta, theta))
    if third != ((1, 0), (0, 1)):
        raise RecipeError("the order-3 unit does not cube to the identity")
    return i_mat, j_mat, theta


def _subfield_sqrt(ctx, value):
    """Deterministic square root of a q-subfield element, inside that subfield."""
    F = ctx.F
    for s in range(F.card):
        if ctx.frobq[s] == s and F.mul(s, s) == value:
            return s
    raise RecipeError("no square root in the q-subfield")


# -- family builders -------------------------------------------------------------


def _make_elementary_abelian(ctx, f, w):
    gens = _invariant_elation_gens(ctx, ctx.identity, f)
    if w > 1:
        gens = gens + [_center_gen(ctx, w)]
    return _closure_build(ctx, gens, 2**f * w, "elementary_abelian")


def _make_sl2_subfield(ctx, k, w, label="sl2_subfield"):
    p = ctx.p
    core_order = p**k * (p ** (2 * k) - 1)
    if k == ctx.h:
        return _s_ell_center_product(ctx, w, with_beta=False, label=label)
    gens = [_det1_element(ctx, M) for M in _sl2_matrix_gens(ctx, k)]
    if w > 1:
        gens.append(_center_gen(ctx, w))
    return _closure_build(ctx, gens, core_order * w, label)


def _s_ell_center_product(ctx, w, with_beta, label):
    """S_ell times the central C_w, optionally extended by the chord involution."""
    ctx._ensure_structure()
    gens = list(ctx.s_ell_gens)
    if w > 1:
        gens.append(_center_gen(ctx, w))
    if with_beta:
        gens.append(ctx.beta)
    return DetPreimage(ctx, gens, label=label)


def _make_sl2_two(ctx, w):
    return _make_sl2_subfield(ctx, 1, w, label="sl2_two")


def _chord_swap(ctx, square, conj_src, conj_dst):
    """Smallest chord-point swap with the given square and conjugation effect."""
    ctx._ensure_structure()
    for g in sorted(ctx.wcoset):
        if ctx.power(g, 2) != square:
            continue
        if _conj(ctx, g, conj_src) == conj_dst:
            return g
    raise RecipeError("no chord swap satisfies the required relations")


def _make_dihedral(ctx, w, t=None, d=None):
    """Dihedral group with rotation order t (q even) or d (q odd), times C_w."""
    t = t or d
    rot = _torus_power(ctx, t)
    refl = _chord_swap(ctx, ctx.identity, rot, ctx.inverse(rot))
    gens = [rot, refl]
    if w > 1:
        gens.append(_center_gen(ctx, w))
    return _closure_build(ctx, gens, 2 * t * w, "dihedral")


def _make_alt5(ctx, w):
    return _make_sl2_subfield(ctx, 2, w, label="alt5")


def _make_elation_semidirect(ctx, f, d, w, label="elation_semidirect"):
    delta = _torus_power(ctx, d)
    gens = _invariant_elation_gens(ctx, delta, f) + [delta]
    if w > 1:
        gens.append(_center_gen(ctx, w))
    return _closure_build(ctx, gens, 2**f * d * w, label)


def _make_alt4(ctx, w):
    return _make_elation_semidirect(ctx, 2, 3, w, label="alt4")


def _make_triangle_even(ctx, t, w):
    n = ctx.q + 1
    gens = []
    if t > 1:
        gens.append(_a1_element(ctx, n // t, n - n // t))
    if w > 1:
        gens.append(_a1_element(ctx, n // w, n // w))
    sigma = (0, 1, 1)
    if not ctx.is_element(sigma):
        raise RecipeError("chord swap involution is not available")
    gens.append(sigma)
    return _closure_build(ctx, gens, 2 * t * w, "triangle")


def _make_torus_cyclic(ctx, e):
    g0 = _torus_power(ctx, e)
    return Subgroup(ctx, [g0], ctx.cyclic_group(g0), label="torus_cyclic")


def _make_diagonal(ctx, d, e, a):
    n = ctx.q + 1
    pairs = _a1_pairs(n, d, e, a)
    els = [_a1_element(ctx, i, j) for (i, j) in pairs]
    gens = [g for g in (_a1_element(ctx, n // d, 0), _a1_element(ctx, a, n // e))
            if g != ctx.identity]
    return Subgroup(ctx, gens, els, label="diagonal")


def _make_triangle_swap(ctx, d, e, a, t):
    n = ctx.q + 1
    pairs = _a1_pairs(n, d, e, a)
    sigma = (0, _neg_norm_rep(ctx), ctx.mu[t % n])
    if not ctx.is_element(sigma):
        raise RecipeError("swap representative is not a chord element")
    idx = _unit_index(ctx)
    s2 = ctx.power(sigma, 2)
    i2 = idx[s2[0]]
    j2 = (idx[s2[2]] - i2) % n
    if (i2, j2) not in pairs:
        raise RecipeError("swap square leaves the diagonal part")
    gens = [g for g in (_a1_element(ctx, n // d, 0), _a1_element(ctx, a, n // e))
            if g != ctx.identity]
    gens.append(sigma)
    return _closure_build(ctx, gens, 2 * d * e, "triangle_swap")


def _make_point_stabilizer(ctx, mu, u):
    gens = []
    if mu > 1:
        delta = _torus_power(ctx, mu)
        gens = _invariant_elation_gens(ctx, delta, u) + [delta]
    else:
        gens = _invariant_elation_gens(ctx, ctx.identity, u)
    return _closure_build(ctx, gens, ctx.p**u * mu, "point_stabilizer")


def _make_sl2_three(ctx, w):
    mats = _sl2_three_matrices(ctx)
    gens = [_det1_element(ctx, M) for M in mats]
    if w > 1:
        gens.append(_center_gen(ctx, w))
    sub = _closure_build(ctx, gens, 24 * w, "sl2_three")
    if _involution_count(ctx, sub) != 1:
        raise RecipeError("sl2_three must contain exactly one involution")
    return sub


def _make_binary_octahedral(ctx, w):
    F = ctx.F
    iot = _quaternion_iota(ctx)
    r2 = _subfield_sqrt(ctx, F.add(1, 1))
    nu = ((F.div(F.add(1, iot), r2), 0), (0, F.div(F.sub(1, iot), r2)))
    mats = list(_sl2_three_matrices(ctx)) + [nu]
    gens = [_det1_element(ctx, M) for M in mats]
    if w > 1:
        gens.append(_center_gen(ctx, w))
    sub = _closure_build(ctx, gens, 48 * w, "binary_octahedral")
    if _involution_count(ctx, sub) != 1:
        raise RecipeError("binary_octahedral must contain exactly one involution")
    return sub


def _make_gl2_three(ctx, w):
    core_gens = [_det1_element(ctx, M) for M in _sl2_three_matrices(ctx)]
    core = closure(core_gens, ctx.compose, ctx.identity, maxsize=64)
    if len(core) != 24:
        raise RecipeError("quaternionic core has wrong order")
    ctx._ensure_structure()
    ext = None
    for s in ctx.s_ell:
        g = ctx.compose(ctx.beta, s)
        if ctx.power(g, 2) not in core:
            continue
        if all(_conj(ctx, g, x) in core for x in core_gens):
            ext = g
            break
    if ext is None:
        raise RecipeError("no involution-coset extension of the quaternionic core")
    gens = core_gens + [ext]
    if w > 1:
        gens.append(_center_gen(ctx, w))
    sub = _closure_build(ctx, gens, 48 * w, "gl2_three")
    if _involution_count(ctx, sub) != 13:
        raise RecipeError("gl2_three must contain exactly thirteen involutions")
    return sub


def _make_sl2_five_char3(ctx, w):
    F = ctx.F
    iot = _quaternion_iota(ctx)
    half = F.inv(F.add(1, 1))
    five = F.add(F.add(F.add(F.add(1, 1), 1), 1), 1)
    r5 = _subfield_sqrt(ctx, five)
    phi = F.mul(half, F.add(1, r5))
    phi_inv = F.inv(phi)
    i_mat = ((iot, 0), (0, F.neg(iot)))
    j_mat = ((0, 1), (F.neg(1), 0))
    u_mat = (
        (F.mul(half, F.add(phi_inv, F.mul(phi, iot))), half),
        (F.neg(half), F.mul(half, F.sub(phi_inv, F.mul(phi, iot)))),
    )
    if _mdet(F, u_mat) != 1:
        raise RecipeError("icosahedral unit has wrong determinant")
    gens = [_det1_element(ctx, M) for M in (i_mat, j_mat, u_mat)]
    if w > 1:
        gens.append(_center_gen(ctx, w))
    sub = _closure_build(ctx, gens, 120 * w, "sl2_five")
    if _involution_count(ctx, sub) != 1:
        raise RecipeError("sl2_five must contain exactly one involution")
    return sub


def _make_sl2_five(ctx, w):
    if ctx.p == 3:
        return _make_sl2_five_char3(ctx, w)
    raise RecipeError("tame icosahedral subgroups exceed the explicit range")


def _make_dicyclic(ctx, d, w):
    F, q = ctx.F, ctx.q
    gamma = F.pow(F.gen_code, (q * q - 1) // (2 * d))
    if ctx.frobq[gamma] != gamma:
        raise RecipeError("dicyclic rotation scalar left the q-subfield")
    rot = _det1_element(ctx, ((gamma, 0), (0, F.inv(gamma))))
    tw = _det1_element(ctx, ((0, 1), (F.neg(1), 0)))
    if ctx.power(rot, d) != ctx.power(tw, 2) or _conj(ctx, tw, rot) != ctx.inverse(rot):
        raise RecipeError("dicyclic presentation fails")
    gens = [rot, tw]
    if w > 1:
        gens.append(_center_gen(ctx, w))
    return _closure_build(ctx, gens, 4 * d * w, "dicyclic")


def _make_hat_dicyclic(ctx, d, w):
    alpha = _torus_power(ctx, 4 * d)
    xi = _chord_swap(ctx, ctx.power(alpha, 2 * d), alpha, ctx.power(alpha, 2 * d - 1))
    gens = [alpha, xi]
    if w > 1:
        gens.append(_center_gen(ctx, w))
    return _closure_build(ctx, gens, 8 * d * w, "hat_dicyclic")


def _make_sl2_split_ext(ctx, k, w):
    F, p = ctx.F, ctx.p
    sub2 = make_field(p, 2 * k)
    emb2 = embed_codes(sub2, F)
    lam = emb2[sub2.pow(sub2.gen_code, (p ** (2 * k) - 1) // (2 * (p**k - 1)))]
    if ctx.frobq[lam] != lam:
        raise RecipeError("splitting scalar left the q-subfield")
    nu = ((lam, 0), (0, F.inv(lam)))
    mats = _sl2_matrix_gens(ctx, k) + [nu]
    gens = [_det1_element(ctx, M) for M in mats]
    if w > 1:
        gens.append(_center_gen(ctx, w))
    expected = 2 * p**k * (p ** (2 * k) - 1) * w
    return _closure_build(ctx, gens, expected, "sl2_split_ext")


def _make_unitary_pm(ctx, k, w):
    if k != ctx.h:
        raise RecipeError("only the full-subfield unitary extension is constructed")
    return _s_ell_center_product(ctx, w, with_beta=True, label="unitary_pm")


_BUILDERS = {
    "elementary_abelian": _make_elementary_abelian,
    "sl2_two": _make_sl2_two,
    "sl2_subfield": _make_sl2_subfield,
    "dihedral": _make_dihedral,
    "alt5": _make_alt5,
    "alt4": _make_alt4,
    "elation_semidirect": _make_elation_semidirect,
    "triangle": _make_triangle_even,
    "torus_cyclic": _make_torus_cyclic,
    "diagonal": _make_diagonal,
    "triangle_swap": _make_triangle_swap,
    "point_stabilizer": _make_point_stabilizer,
    "sl2_three": _make_sl2_three,
    "binary_octahedral": _make_binary_octahedral,
    "gl2_three": _make_gl2_three,
    "sl2_five": _make_sl2_five,
    "dicyclic": _make_dicyclic,
    "hat_dicyclic": _make_hat_dicyclic,
    "sl2_split_ext": _make_sl2_split_ext,
    "unitary_pm": _make_unitary_pm,
}


# -- enumeration ------------------------------------------------------------------


def _torus_det_rule(q, mu):
    return (q + 1) // math.gcd(q + 1, (q * q - 1) // mu)


def _point_stab_realizable(q, mu, u):
    """Whether an order-p^u elation group admits a normalizing C_mu."""
    p, h = formulas.prime_power(q)
    if not 1 <= u <= h:
        return False
    omega_order = mu // math.gcd(mu, q + 1)
    f = 1 if omega_order == 1 else n_order(p, omega_order)
    return u % f == 0


def _even_instances(q, out):
    p, h = formulas.prime_power(q)
    ws = [int(w) for w in divisors(q + 1)]
    add = out.append

    for w in ws:
        for f in range(1, h + 1):
            add(FamilyInstance(q, "elementary_abelian", (("f", f), ("w", w)),
                               2**f * w, False, w))
        add(FamilyInstance(q, "sl2_two", (("w", w),), 6 * w, False, w))
        for f in divisors(h):
            if f > 1:
                add(FamilyInstance(q, "sl2_subfield", (("k", int(f)), ("w", w)),
                                   (2 ** (3 * f) - 2**f) * w, False, w))
        for t in divisors(q - 1):
            if t > 1:
                add(FamilyInstance(q, "dihedral", (("t", int(t)), ("w", w)),
                                   2 * t * w, False, w))
        if h % 2 == 0:
            add(FamilyInstance(q, "alt5", (("w", w),), 60 * w, False, w))
            add(FamilyInstance(q, "alt4", (("w", w),), 12 * w, False, w))
        for f in range(1, h + 1):
            for d in divisors(math.gcd(2**f - 1, q - 1)):
                if d > 1:
                    add(FamilyInstance(q, "elation_semidirect",
                                       (("f", f), ("d", int(d)), ("w", w)),
                                       2**f * d * w, False, w))
        for t in ws:
            add(FamilyInstance(q, "triangle", (("t", t), ("w", w)),
                               2 * t * w, False, w))


def _odd_instances(q, out):
    p, h = formulas.prime_power(q)
    ws = [int(w) for w in divisors((q + 1) // 2)]
    add = out.append

    for w in ws:
        if (q * q - 1) % 5 == 0:
            add(FamilyInstance(q, "sl2_five", (("w", w),), 120 * w, p >= 7, w))
        for k in divisors(h):
            k = int(k)
            order = p**k * (p ** (2 * k) - 1) * w
            add(FamilyInstance(q, "sl2_subfield", (("k", k), ("w", w)),
                               order, False, w))
            if (h // k) % 2 == 0:
                add(FamilyInstance(q, "sl2_split_ext", (("k", k), ("w", w)),
                                   2 * order, False, w))
            else:
                add(FamilyInstance(q, "unitary_pm", (("k", k), ("w", w)),
                                   2 * order, False, 2 * w))
        if p >= 5:
            add(FamilyInstance(q, "sl2_three", (("w", w),), 24 * w, True, w))
            if (q - 1) % 8 == 0:
                add(FamilyInstance(q, "binary_octahedral", (("w", w),),
                                   48 * w, True, w))
            else:
                add(FamilyInstance(q, "gl2_three", (("w", w),), 48 * w, True, 2 * w))
        for d in divisors((q - 1) // 2):
            d = int(d)
            if d > 1:
                add(FamilyInstance(q, "dicyclic", (("d", d), ("w", w)),
                                   4 * d * w, True, w))
        for d in divisors(q - 1):
            d = int(d)
            if d > 2:
                add(FamilyInstance(q, "dihedral", (("d", d), ("w", w)),
                                   2 * d * w, True, 2 * w))
        for d in divisors((q - 1) // 2):
            d = int(d)
            if ((q - 1) // (2 * d)) % 2 == 1:
                add(FamilyInstance(q, "hat_dicyclic", (("d", d), ("w", w)),
                                   8 * d * w, True, 2 * w))

    for mu in divisors(q * q - 1):
        mu = int(mu)
        for u in range(1, h + 1):
            if _point_stab_realizable(q, mu, u):
                add(FamilyInstance(q, "point_stabilizer", (("mu", mu), ("u", u)),
                                   p**u * mu, False, _torus_det_rule(q, mu)))

    # swap-stable diagonal parts extended by a chord swap
    n = q + 1
    half = n // 2
    for d, e, a in _a1_triples(n):
        pairs = _a1_pairs(n, d, e, a)
        swap_ok = (0, (n // d) % n) in pairs and ((n // e) % n, a % n) in pairs
        if not swap_ok:
            continue
        g_s = math.gcd(math.gcd(n // d, (a + n // e) % n), n)
        for t in range(g_s):
            i2 = (t + half) % n
            j2 = (t - half) % n
            if (i2, j2) in pairs:
                share = math.gcd(g_s, t) if t else g_s
                add(FamilyInstance(q, "triangle_swap",
                                   (("d", d), ("e", e), ("a", a), ("t", t)),
                                   2 * d * e, True, n // share))


@lru_cache(maxsize=None)
def enumerate_instances(q):
    """Every admissible (family, parameters) combination at this field size."""
    if q > ENUM_Q_LIMIT:
        raise ValueError("q=%d exceeds the supported bound %d" % (q, ENUM_Q_LIMIT))
    p, h = formulas.prime_power(q)
    if p != 2 and q % 4 != 1:
        raise ValueError(
            "the chord stabilizer splits as needed only for q even or "
            "q = 1 (mod 4); q=%d falls outside" % q
        )
    out = []
    if p == 2:
        _even_instances(q, out)
    else:
        _odd_instances(q, out)

    # the pointwise triangle stabilizers and torus cyclics exist at every q
    n = q + 1
    for e in divisors(q * q - 1):
        e = int(e)
        if n % e:
            add_rule = _torus_det_rule(q, e)
            out.append(FamilyInstance(q, "torus_cyclic", (("e", e),), e, True,
                                      add_rule))
    for d, e, a in _a1_triples(n):
        g_s = math.gcd(math.gcd(n // d, (a + n // e) % n), n)
        out.append(FamilyInstance(q, "diagonal",
                                  (("d", d), ("e", e), ("a", a)),
                                  d * e, True, n // g_s))
    return tuple(out)


@lru_cache(maxsize=None)
def instantiate(inst):
    """Build and certify the explicit subgroup for a small-field instance."""
    if inst.q > SMALL_Q_LIMIT:
        raise ValueError(
            "explicit subgroups are only constructed for q <= %d" % SMALL_Q_LIMIT
        )
    ctx = ml_context(inst.q)
    builder = _BUILDERS[inst.family]
    sub = builder(ctx, **inst.param_dict)
    if sub.order != inst.order:
        raise RecipeError(
            "%s built order %d, expected %d" % (inst.label(), sub.order, inst.order)
        )
    sub.label = inst.label()
    return sub


def s_of(inst):
    """Order of the determinant character image of the instance."""
    if inst.q <= SMALL_Q_LIMIT:
        s = instantiate(inst).det_image_order()
        if inst.det_rule is not None and s != inst.det_rule:
            raise RecipeError(
                "%s has determinant image of order %d, rule says %d"
                % (inst.label(), s, inst.det_rule)
            )
        return s
    if inst.det_rule is None:
        raise ValueError("no determinant rule for %s" % inst.label())
    return inst.det_rule
