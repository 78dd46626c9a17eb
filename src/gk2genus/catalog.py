"""Parameterized subgroup families of the chord stabilizer M_ell.

The subgroups of M_ell fall into a finite list of families, each a group
shape with small integer parameters: subfield sizes, central orders, torus
orders, triangle data.  enumerate_instances(q) lists every admissible
(family, parameters) combination for q even or q = 1 (mod 4).  For q <= 25,
instantiate(inst) builds the corresponding explicit subgroup.  Each family's
builder returns only its core generators; instantiate alone adds the central
C_w, closes the group or takes its determinant preimage, and certifies the
order, the determinant image and the involution count of the quaternionic
families.  A recipe that fails to certify raises RecipeError instead of
substituting something else.  Subgroups are not cached: each call builds
and certifies a new one, which the caller drops when it is done with it.
Wild families, and the torus cyclics, carry a closed census, from which
formulas gives their (genus, orbit count) where explicit groups are out of
reach; the other tame families are evaluated through the group action alone.
Everything known about one family sits in its _FAMILIES entry: its builder,
its closed form or None, and the involution count instantiate certifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

from . import formulas
from .formulas import divisors
from .mlgroup import DetPreimage, Subgroup, closure, mat_det, mat_mul, ml_context

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
    order is the subgroup order inside M_ell, and det_rule is the order of
    the determinant image that the parameters force.
    """

    q: int
    family: str
    params: tuple
    order: int
    det_rule: int

    @property
    def tame(self):
        """Whether the order is prime to the characteristic."""
        return self.order % formulas.prime_power(self.q)[0] != 0

    @property
    def param_dict(self):
        return dict(self.params)

    def label(self):
        inner = ",".join("%s=%d" % kv for kv in self.params)
        return "%s[q=%d%s%s]" % (self.family, self.q, "," if inner else "", inner)

    def recipe(self):
        """The _FAMILIES entry, w (1 if absent) and the other parameters in label order."""
        args = dict(self.params)
        w = args.pop("w", 1)
        return _FAMILIES[self.family], w, list(args.values())

    def genus_orbits(self):
        """Closed-form (quotient genus, orbit count on all q^3 + 1 points), or None if none."""
        (_, form, _), w, args = self.recipe()
        return form and form(self.q, w, *args)


# -- shared building blocks -----------------------------------------------------


def _det1_element(ctx, M):
    """The unique chord element covering a determinant-one subfield matrix."""
    if mat_det(ctx.F, M) != 1:
        raise RecipeError("expected determinant one")
    if any(ctx.frobq[entry] != entry for row in M for entry in row):
        raise RecipeError("matrix entries must lie in the q-subfield")
    return ctx.frame_element(M)


def _center_gen(ctx, w):
    """Generator of the order-w central subgroup acting trivially downstairs."""
    base = ctx.q + 1 if ctx.p == 2 else (ctx.q + 1) // 2
    if base % w:
        raise RecipeError("w=%d does not divide the central order %d" % (w, base))
    return ctx.power(ctx.z1_gen, base // w)


def _involution_count(ctx, sub):
    return sum(1 for g in sub.elements if g != ctx.identity and ctx.compose(g, g) == ctx.identity)


def _conj(ctx, g, x):
    return ctx.compose(ctx.compose(g, x), ctx.inverse(g))


def _torus_power(ctx, order):
    q = ctx.q
    if (q * q - 1) % order:
        raise RecipeError("no torus element of order %d" % order)
    g = ctx.power(ctx.torus_gen, (q * q - 1) // order)
    if ctx.order_of(g) != order:
        raise RecipeError("torus power has wrong order")
    return g


def _a1_element(ctx, i, j):
    """Diagonalizable element with unit eigenvalue pair (eps^i, eps^j)."""
    n = ctx.q + 1
    a = ctx.mu[i % n]
    return (a, 0, ctx.F.mul(a, ctx.mu[j % n]))


def _a1_contains(n, d, e, a_off, i, j):
    """Whether (i, j) lies in the subgroup of Z_n x Z_n with row data (d, e, a_off).

    That subgroup is {(x n/d + y a_off, y n/e)}: (i, j) is in it when
    j = y n/e for an integer y and n/d divides i - y a_off.
    """
    y, rem = divmod(j % n, n // e)
    return rem == 0 and (i - y * a_off) % (n // d) == 0


def _a1_triples(n):
    """Every subgroup of Z_n x Z_n exactly once, as (d, e, a_off) rows."""
    out = []
    for d in divisors(n):
        step = n // d
        for e in divisors(n):
            # the offsets with e * a_off = 0 (mod step)
            for a_off in range(0, step, step // math.gcd(e, step)):
                out.append((d, e, a_off))
    return out


# -- standard matrix generators -------------------------------------------------


def _quaternion_units(ctx):
    """iota = sqrt(-1) in GF(q), 1/2, and the quaternion generators i and j."""
    F, q = ctx.F, ctx.q
    iot = F.pow(F.gen_code, (q * q - 1) // 4)
    if F.mul(iot, iot) != F.neg(1) or ctx.frobq[iot] != iot:
        raise RecipeError("no square root of -1 in the q-subfield")
    i_mat = ((iot, 0), (0, F.neg(iot)))
    j_mat = ((0, 1), (F.neg(1), 0))
    return iot, F.inv(F.add(1, 1)), i_mat, j_mat


def _sl2_three_matrices(ctx):
    """Quaternion generators i, j and an order-3 unit for SL(2,3)."""
    F = ctx.F
    iot, half, i_mat, j_mat = _quaternion_units(ctx)
    om = F.mul(half, F.sub(iot, 1))
    op = F.mul(half, F.add(iot, 1))
    theta = ((om, om), (op, F.neg(op)))
    third = mat_mul(F, theta, mat_mul(F, theta, theta))
    if third != ((1, 0), (0, 1)):
        raise RecipeError("the order-3 unit does not cube to the identity")
    return i_mat, j_mat, theta


# -- family builders -------------------------------------------------------------
#
# A builder takes its family's parameters other than w, positionally in label
# order, and returns the core generators; instantiate adds C_w, closes the
# group or takes its determinant preimage, and certifies it.  A builder checks
# only its recipe: the matrices, relations and elements it is built from.
# Every generator is written down in closed form, mostly as a frame matrix
# whose entries are powers of the field generator; no builder searches group
# elements or field codes.
# The SL(2, p^k) families take the standard generators from
# MlContext.sl2_gens; at k = h those are S_ell's own, so instantiate keeps
# that group as a determinant preimage.  The dihedral families take the chord
# swap MlContext.swap, and the dicyclic ones the Weyl element.


def _make_dihedral(ctx, order):
    """Dihedral group with the given rotation order (t at even q, d at odd q)."""
    return [_torus_power(ctx, order), ctx.swap]


def _make_elation_semidirect(ctx, f, d):
    """An order-p^f elation group, extended by a torus element delta of order d > 1.

    delta = diag(lam, lam^-q) conjugates U(b) = [[1, b], [0, 1]] to U(nu b)
    with nu = lam^(q+1), which generates GF(p^r).  The U(nu^i theta^j), i < r
    and j < f/r, with theta a generator of GF(q)*, are a GF(p)-basis of a
    GF(p^r)-subspace of GF(q), so they generate an order-p^f group that
    delta normalizes.  At f = 0 the group is the torus cyclic C_d alone.
    """
    F, q = ctx.F, ctx.q
    delta = _torus_power(ctx, d)
    nu = F.pow(F.pow(F.gen_code, (q * q - 1) // d), q + 1)
    r = formulas.multiplicative_order(ctx.p, F.order_of(nu))
    if f % r:
        raise RecipeError("no delta-invariant elation group of order p^%d" % f)
    theta = F.pow(F.gen_code, q + 1)
    gens = [ctx.frame_element(((1, F.mul(F.pow(nu, i), F.pow(theta, j))), (0, 1)))
            for j in range(f // r) for i in range(r)]
    return gens + [delta] if d > 1 else gens


def _make_triangle_even(ctx, t):
    n = ctx.q + 1
    gens = [_a1_element(ctx, n // t, n - n // t)] if t > 1 else []
    sigma = (0, 1, 1)
    if not ctx.is_element(sigma):
        raise RecipeError("chord swap involution is not available")
    return gens + [sigma]


def _make_diagonal(ctx, d, e, a):
    n = ctx.q + 1
    return [g for g in (_a1_element(ctx, n // d, 0), _a1_element(ctx, a, n // e))
            if g != ctx.identity]


def _make_triangle_swap(ctx, d, e, a, t):
    F, q = ctx.F, ctx.q
    n = q + 1
    # c^(q+1) = -1, so (0, c, tau) swaps the chord points
    sigma = (0, F.pow(F.gen_code, (q - 1) // 2), ctx.mu[t % n])
    if not ctx.is_element(sigma):
        raise RecipeError("swap representative is not a chord element")
    s2 = ctx.power(sigma, 2)
    i2 = ctx.mu.index(s2[0])
    j2 = (ctx.mu.index(s2[2]) - i2) % n
    if not _a1_contains(n, d, e, a, i2, j2):
        raise RecipeError("swap square leaves the diagonal part")
    return _make_diagonal(ctx, d, e, a) + [sigma]


def _make_sl2_three(ctx):
    return [_det1_element(ctx, M) for M in _sl2_three_matrices(ctx)]


def _make_sl2_three_ext(ctx):
    """SL(2, 3) extended by diag(zeta, zeta^-q), zeta^2 = iota a fourth root of 1.

    At q = 1 (mod 8) that is (1 + i)/sqrt 2 and the group is binary
    octahedral; at q = 5 (mod 8) it is iota (1 - i)/sqrt 2, of determinant
    -1, and the group is GL(2, 3).
    """
    return _make_sl2_three(ctx) + [_torus_power(ctx, 8)]


def _make_sl2_five(ctx):
    if ctx.p != 3:
        raise RecipeError("tame icosahedral subgroups exceed the explicit range")
    F = ctx.F
    iot, half, i_mat, j_mat = _quaternion_units(ctx)
    # z + 1/z = (-1 +- sqrt 5)/2 for z of order 5, and lies in GF(q) since z^q = z^(+-1)
    z = F.pow(F.gen_code, (ctx.q * ctx.q - 1) // 5)
    r5 = F.add(F.mul(F.add(1, 1), F.add(z, F.inv(z))), 1)
    phi = F.mul(half, F.add(1, r5))
    phi_inv = F.inv(phi)
    u_mat = (
        (F.mul(half, F.add(phi_inv, F.mul(phi, iot))), half),
        (F.neg(half), F.mul(half, F.sub(phi_inv, F.mul(phi, iot)))),
    )
    if mat_det(F, u_mat) != 1:
        raise RecipeError("icosahedral unit has wrong determinant")
    return [_det1_element(ctx, M) for M in (i_mat, j_mat, u_mat)]


def _make_dicyclic(ctx, d):
    rot, tw = _torus_power(ctx, 2 * d), ctx.sl2_gens(1)[-1]
    if ctx.power(rot, d) != ctx.power(tw, 2) or _conj(ctx, tw, rot) != ctx.inverse(rot):
        raise RecipeError("dicyclic presentation fails")
    return [rot, tw]


def _make_hat_dicyclic(ctx, d):
    # (q - 1)/(2d) is odd, so the Weyl element squares to -1 = alpha^(2d)
    # and conjugates alpha to alpha^(2d - 1)
    return [_torus_power(ctx, 4 * d), ctx.sl2_gens(1)[-1]]


def _make_sl2_split_ext(ctx, k):
    F, q = ctx.F, ctx.q
    # an element of order 2 (p^k - 1): its square generates GF(p^k)*
    lam = F.pow(F.gen_code, (q * q - 1) // (2 * (ctx.p**k - 1)))
    if ctx.frobq[lam] != lam:
        raise RecipeError("splitting scalar left the q-subfield")
    return ctx.sl2_gens(k) + [_det1_element(ctx, ((lam, 0), (0, F.inv(lam))))]


def _make_unitary_pm(ctx, k):
    if k != ctx.h:
        raise RecipeError("only the full-subfield unitary extension is constructed")
    return list(ctx.s_ell_gens) + [ctx.beta]


# -- the family table -------------------------------------------------------------
#
# _FAMILIES maps each family name to (builder, closed form, involutions).  The
# builder takes the context and the family's parameters other than w, in label
# order; the closed form takes (q, w, *those parameters) and returns the
# family's closed census through formulas.quotient_data, as (quotient genus,
# orbit count), or None where it has none (the tame families but torus_cyclic,
# dihedral at odd q, sl2_five outside characteristic 3).  Families that share
# a recipe take one builder and one census from _elation (p^f elations by a
# torus C_d; alt4 is E_4 by C_3, torus_cyclic has f = 0) or _sl2 (SL(2, p^k);
# sl2_two and alt5 are k = 1 and 2).  involutions is the quaternionic
# families' involution count, a structural marker their order alone does not
# fix.


def _elation(recipe):
    """The entry of a family whose (f, d) = recipe(*params): p^f elations by a torus C_d."""

    def build(ctx, *params):
        return _make_elation_semidirect(ctx, *recipe(*params))

    def form(q, w, *params):
        f, d = recipe(*params)
        return formulas.point_stabilizer_quotient(q, d * w, f)

    return build, form, None


def _sl2(recipe):
    """The entry of a family whose k = recipe(*params): SL(2, p^k)."""

    def build(ctx, *params):
        return ctx.sl2_gens(recipe(*params))

    def form(q, w, *params):
        return formulas.sl2_subfield_quotient(q, recipe(*params), w)

    return build, form, None


_FAMILIES = {
    "elementary_abelian": _elation(lambda f: (f, 1)),
    "elation_semidirect": _elation(lambda f, d: (f, d)),
    "alt4": _elation(lambda: (2, 3)),
    "point_stabilizer": _elation(lambda mu, u: (u, mu)),
    "torus_cyclic": _elation(lambda e: (0, e)),
    "sl2_two": _sl2(lambda: 1),
    "alt5": _sl2(lambda: 2),
    "sl2_subfield": _sl2(lambda k: k),
    "dihedral": (_make_dihedral, lambda q, w, t: (
        formulas.dihedral_quotient_even(q, t, w) if q % 2 == 0 else None), None),
    "triangle": (_make_triangle_even,
                 lambda q, w, t: formulas.triangle_quotient_even(q, t, w), None),
    "diagonal": (_make_diagonal, None, None),
    "triangle_swap": (_make_triangle_swap, None, None),
    "sl2_three": (_make_sl2_three, None, 1),
    "binary_octahedral": (_make_sl2_three_ext, None, 1),
    "gl2_three": (_make_sl2_three_ext, None, 13),
    "sl2_five": (_make_sl2_five, lambda q, w: (
        formulas.sl2_five_quotient_char3(q, w) if q % 3 == 0 else None), 1),
    "dicyclic": (_make_dicyclic, None, None),
    "hat_dicyclic": (_make_hat_dicyclic, None, None),
    "sl2_split_ext": (_make_sl2_split_ext,
                      lambda q, w, k: formulas.sl2_split_ext_quotient(q, k, w), None),
    "unitary_pm": (_make_unitary_pm, lambda q, w, k: formulas.unitary_pm_quotient(q, k, w), None),
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
    f = formulas.multiplicative_order(p, omega_order)
    return u % f == 0


def _even_instances(q):
    p, h = formulas.prime_power(q)
    ws = divisors(q + 1)

    for w in ws:
        for f in range(1, h + 1):
            yield FamilyInstance(q, "elementary_abelian", (("f", f), ("w", w)), 2**f * w, w)
        yield FamilyInstance(q, "sl2_two", (("w", w),), 6 * w, w)
        for f in divisors(h):
            if f > 1:
                yield FamilyInstance(q, "sl2_subfield", (("k", f), ("w", w)),
                                     (2 ** (3 * f) - 2**f) * w, w)
        for t in divisors(q - 1):
            if t > 1:
                yield FamilyInstance(q, "dihedral", (("t", t), ("w", w)), 2 * t * w, w)
        if h % 2 == 0:
            yield FamilyInstance(q, "alt5", (("w", w),), 60 * w, w)
            yield FamilyInstance(q, "alt4", (("w", w),), 12 * w, w)
        for f in range(1, h + 1):
            for d in divisors(math.gcd(2**f - 1, q - 1)):
                if d > 1:
                    yield FamilyInstance(q, "elation_semidirect",
                                         (("f", f), ("d", d), ("w", w)),
                                         2**f * d * w, w)
        for t in ws:
            yield FamilyInstance(q, "triangle", (("t", t), ("w", w)), 2 * t * w, w)


def _odd_instances(q):
    p, h = formulas.prime_power(q)
    ws = divisors((q + 1) // 2)

    for w in ws:
        if (q * q - 1) % 5 == 0:
            yield FamilyInstance(q, "sl2_five", (("w", w),), 120 * w, w)
        for k in divisors(h):
            order = p**k * (p ** (2 * k) - 1) * w
            yield FamilyInstance(q, "sl2_subfield", (("k", k), ("w", w)), order, w)
            if (h // k) % 2 == 0:
                yield FamilyInstance(q, "sl2_split_ext", (("k", k), ("w", w)), 2 * order, w)
            else:
                yield FamilyInstance(q, "unitary_pm", (("k", k), ("w", w)), 2 * order, 2 * w)
        if p >= 5:
            yield FamilyInstance(q, "sl2_three", (("w", w),), 24 * w, w)
            if (q - 1) % 8 == 0:
                yield FamilyInstance(q, "binary_octahedral", (("w", w),), 48 * w, w)
            else:
                yield FamilyInstance(q, "gl2_three", (("w", w),), 48 * w, 2 * w)
        for d in divisors((q - 1) // 2):
            if d > 1:
                yield FamilyInstance(q, "dicyclic", (("d", d), ("w", w)), 4 * d * w, w)
        for d in divisors(q - 1):
            if d > 2:
                yield FamilyInstance(q, "dihedral", (("d", d), ("w", w)), 2 * d * w, 2 * w)
        for d in divisors((q - 1) // 2):
            if ((q - 1) // (2 * d)) % 2 == 1:
                yield FamilyInstance(q, "hat_dicyclic", (("d", d), ("w", w)), 8 * d * w, 2 * w)

    for mu in divisors(q * q - 1):
        for u in range(1, h + 1):
            if _point_stab_realizable(q, mu, u):
                yield FamilyInstance(q, "point_stabilizer", (("mu", mu), ("u", u)),
                                     p**u * mu, _torus_det_rule(q, mu))


def _triangle_swap_instances(q):
    """Swap-stable diagonal parts extended by a chord swap (odd q, all tame)."""
    n = q + 1
    half = n // 2
    for d, e, a in _a1_triples(n):
        swap_ok = _a1_contains(n, d, e, a, 0, n // d) and _a1_contains(n, d, e, a, n // e, a)
        if not swap_ok:
            continue
        g_s = math.gcd(math.gcd(n // d, (a + n // e) % n), n)
        for t in range(g_s):
            i2 = (t + half) % n
            j2 = (t - half) % n
            if _a1_contains(n, d, e, a, i2, j2):
                share = math.gcd(g_s, t) if t else g_s
                yield FamilyInstance(q, "triangle_swap",
                                     (("d", d), ("e", e), ("a", a), ("t", t)),
                                     2 * d * e, n // share)


def _tame_tail(q):
    """The pointwise triangle stabilizers and torus cyclics: tame at every q."""
    n = q + 1
    for e in divisors(q * q - 1):
        if n % e:
            yield FamilyInstance(q, "torus_cyclic", (("e", e),), e, _torus_det_rule(q, e))
    for d, e, a in _a1_triples(n):
        g_s = math.gcd(math.gcd(n // d, (a + n // e) % n), n)
        yield FamilyInstance(q, "diagonal", (("d", d), ("e", e), ("a", a)), d * e, n // g_s)


@lru_cache(maxsize=None)
def enumerate_instances(q, include_tame=True):
    """Every admissible (family, parameters) combination at this field size.

    With include_tame=False the result is the wild instances alone, in the
    same order: the torus cyclics, the diagonal groups and the odd-q triangle
    swaps, all tame at every q, are never built, and the few tame per-w
    instances of odd q are dropped as they are made.  Formula mode (q > 25)
    uses only these: 604 at q = 2^20 instead of 1,234,472.  `catalog --q`
    still lists every instance.
    """
    if q > ENUM_Q_LIMIT:
        raise ValueError("q=%d exceeds the supported bound %d" % (q, ENUM_Q_LIMIT))
    p, _ = formulas.prime_power(q)
    if p != 2 and q % 4 != 1:
        raise ValueError(
            "the chord stabilizer splits as needed only for q even or "
            "q = 1 (mod 4); q=%d falls outside" % q
        )
    parity = _even_instances(q) if p == 2 else _odd_instances(q)
    if not include_tame:
        return tuple(inst for inst in parity if not inst.tame)
    swaps = () if p == 2 else _triangle_swap_instances(q)
    return tuple(chain(parity, swaps, _tame_tail(q)))


def instantiate(inst):
    """Build and certify the explicit subgroup for a small-field instance.

    The order, the determinant image order inst.det_rule and, for the
    quaternionic families, the involution count are certified.  Nothing is
    cached.
    """
    if inst.q > SMALL_Q_LIMIT:
        raise ValueError(
            "explicit subgroups are only constructed for q <= %d" % SMALL_Q_LIMIT
        )
    ctx = ml_context(inst.q)
    (build, _, involutions), w, params = inst.recipe()
    gens = build(ctx, *params)
    if w > 1:
        gens.append(_center_gen(ctx, w))
    if set(ctx.s_ell_gens) <= set(gens):
        sub = DetPreimage(ctx, gens)
    else:
        els = closure(ctx, gens, maxsize=4 * inst.order + 16)
        sub = Subgroup(ctx, gens, els)
    if sub.order != inst.order:
        raise RecipeError(
            "%s built order %d, expected %d" % (inst.label(), sub.order, inst.order)
        )
    s = sub.det_image_order()
    if s != inst.det_rule:
        raise RecipeError(
            "%s has determinant image of order %d, rule says %d"
            % (inst.label(), s, inst.det_rule)
        )
    if involutions is not None and _involution_count(ctx, sub) != involutions:
        raise RecipeError(
            "%s must contain exactly %d involution(s)" % (inst.label(), involutions)
        )
    return sub


def s_of(inst):
    """Order of the determinant character image of the instance.

    That is the rule inst.det_rule, which instantiate certifies at every
    q <= 25.
    """
    return inst.det_rule
