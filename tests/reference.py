"""Brute-force references that the tests check the product code against.

They live in tests/, not in the package, so that each stays independent of
the code it checks and the package holds only what the pipeline runs:

* point normalization and curve membership on projective triples;
* the canonical subfield embedding between two finite fields;
* the genus of K_n itself, the subfield genus bound, the orbit count a
  tame quotient genus forces, every closed form of formulas written out
  as the (g_bar, N) polynomials that its census replaces, and the rejected
  orbit-count variants recorded in formulas.ERRATA;
* both lifting rules in Fraction arithmetic, against which the integer
  lifts of formulas are checked;
* the M_ell product and the type lookup by scalar field calls, M_ell
  elements acting on points one at a time, literal fixed-point counts, element types read from the eigenvectors of the chord block,
  random elements and subgroups, and the center Z and the torus;
* the tower group Aut(K_n) with elements (a, c, k), where k is the exponent
  of xi = zeta^k in mu_(q^n+1) over a fixed generator zeta with zeta^m = eps
  and m = (q^n+1)/(q+1).  It projects onto M_ell by xi -> xi^m = eps^k, with
  central kernel C_m; no field GF(q^(2n)) is built.  triple_of and
  group_from_triple decompose and rebuild its subgroups.
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from gk2genus.formulas import (
    _as_count,
    _check_divisor,
    hermitian_genus,
    lift_genus,
    m_of,
    prime_power,
    unitary_pm_quotient,
)
from gk2genus.gf import _coeffs_of
from gk2genus.mlgroup import ElementType, Subgroup, ml_context

# -- points and fields -----------------------------------------------------------


def normalize_point(F, x, y, z):
    """Scale a nonzero projective triple of codes so its last nonzero coord is 1."""
    if z:
        s = F.inv(z)
        return (F.mul(x, s), F.mul(y, s), 1)
    if y:
        s = F.inv(y)
        return (F.mul(x, s), 1, 0)
    if x:
        return (1, 0, 0)
    raise ValueError("zero vector is not a projective point")


def is_isotropic(F, q, pt):
    """Whether a normalized point lies on the Hermitian curve."""
    x, y, z = pt
    val = F.pow(x, q + 1)
    val = F.sub(val, F.pow(y, q + 1))
    val = F.sub(val, F.pow(z, q + 1))
    return val == 0


def lex_key(F, code):
    """Coefficients of a code, low degree first: the canonical comparison key."""
    return _coeffs_of(code, F.p, F.k)


@lru_cache(maxsize=None)
def embed_codes(sub, sup):
    """Code-level embedding table GF(p^j) -> GF(p^k), cached."""
    if sub.p != sup.p:
        raise ValueError("characteristics differ")
    if sup.k % sub.k:
        raise ValueError("GF(%d^%d) is not a subfield of GF(%d^%d)" % (sub.p, sub.k, sup.p, sup.k))
    if sub is sup:
        return tuple(range(sub.card))
    if sub.k == 1:
        # constant polynomials: the prime field embeds code-for-code
        return tuple(range(sub.p))
    # the subfield copy inside sup is {0} + the cyclic group of order sub.card-1
    sub_n = sub.card - 1
    step = (sup.card - 1) // sub_n
    h = sup.pow(sup.gen_code, step)
    candidates = [1]
    c = 1
    for _ in range(sub_n - 1):
        c = sup.mul(c, h)
        candidates.append(c)
    mod = sub.modulus
    roots = []
    for c in candidates:
        acc = 0
        for coeff in reversed(mod):
            acc = sup.add(sup.mul(acc, c), coeff % sub.p)
        if acc == 0:
            roots.append(c)
    if len(roots) != sub.k:
        raise AssertionError("expected %d roots, found %d" % (sub.k, len(roots)))
    r = min(roots, key=lambda code: lex_key(sup, code))
    powers = [1]
    for _ in range(sub.k - 1):
        powers.append(sup.mul(powers[-1], r))
    table = []
    for code in range(sub.card):
        acc = 0
        for c, rp in zip(_coeffs_of(code, sub.p, sub.k), powers):
            if c:
                acc = sup.add(acc, sup.mul(c, rp))
        table.append(acc)
    return tuple(table)


# -- genera and the rejected orbit counts of formulas.ERRATA ----------------------


def lift_genus_fraction(q, n, quot_genus, n_orbits, cm_order):
    """formulas.lift_genus, computed through Fraction."""
    m = m_of(q, n)
    _check_divisor(cm_order, m, "cm_order")
    ratio = m // cm_order
    two_g = 2 + ratio * (2 * quot_genus - 2) + n_orbits * (ratio - 1)
    return _as_count(Fraction(two_g, 2), "lifted genus")


def lift_genus_tame_fraction(q, n, quot_genus, group_order, cm_order):
    """formulas.lift_genus_tame, computed through Fraction."""
    p, _ = prime_power(q)
    if group_order % p == 0:
        raise ValueError("tame lift needs a group order prime to %d" % p)
    m = m_of(q, n)
    _check_divisor(cm_order, m, "cm_order")
    ratio = m // cm_order
    extra = Fraction((q * q - 1) * (q + 1) * (ratio - 1), 2 * group_order)
    return _as_count(quot_genus + extra, "lifted genus")


def kn_genus(q, n):
    """Genus of the second generalized GK function field itself."""
    return lift_genus(q, n, hermitian_genus(q), q**3 + 1, 1)


def genus_upper_bound(q, n):
    """Largest genus any subfield can have: the bound q'(q' - 1)/2 at q' = q^n."""
    return q**n * (q**n - 1) // 2


def n_orbits_tame(q, group_order, quot_genus):
    """Orbit count on rational curve points forced by a tame quotient genus.

    Obtained by equating the two lifting rules: for a group of order prime
    to the characteristic,

        N * order = (q - 1)(q + 1)^2 - order * (2 g_quot - 2).
    """
    p, _ = prime_power(q)
    if group_order % p == 0:
        raise ValueError("orbit identity needs a group order prime to %d" % p)
    total = (q - 1) * (q + 1) ** 2 - group_order * (2 * quot_genus - 2)
    return _as_count(Fraction(total, group_order), "orbit count")


# The closed forms of formulas, each with its genus and orbit-count polynomials
# written out term by term instead of read from the family's census.  They
# take the same arguments and skip the parameter checks.


def point_stabilizer_quotient_direct(q, mu, u):
    """formulas.point_stabilizer_quotient, written out."""
    p, h = prime_power(q)
    d = math.gcd(q + 1, mu)
    g = Fraction((q + 1 - d) * (p ** (h - u) - 1), 2 * mu)
    n = Fraction(q * (q * q - 1), p**u * mu) + 2 + Fraction(d * (q - p**u), p**u * mu)
    return _as_count(g, "genus"), _as_count(n, "orbit count")


def _sl2_subfield_even_direct(q, f, w):
    h = prime_power(q)[1]
    pf = 2**f
    if (h // f) % 2 == 1:
        a = math.gcd(pf + 1, w)
        num = (q + 1) * (q - w - pf * (pf - 1) * a - pf) + (pf + 1) * w * (pf * pf - pf + 1)
        g = Fraction(num, 2 * pf * (pf + 1) * (pf - 1) * w)
        n = (
            1
            + Fraction(q - pf, pf * (pf * pf - 1))
            + Fraction((q + 1) * a, (pf + 1) * w)
            + Fraction((q + 1) * (q * (q - 1) - pf * (pf - 1)), pf * (pf - 1) * (pf + 1) * w)
        )
    else:
        num = (q + 1) * (q - pf * pf - w) - w * (2 * pf**3 - pf * pf - 2 * pf - 1)
        g = 1 + Fraction(num, 2 * pf * (pf + 1) * (pf - 1) * w)
        n = (
            2
            + Fraction(q - pf * pf, pf * (pf * pf - 1))
            + Fraction(q * (q - 1) * (q + 1), pf * (pf * pf - 1) * w)
        )
    return _as_count(g, "genus"), _as_count(n, "orbit count")


def sl2_subfield_quotient_direct(q, k, w):
    """formulas.sl2_subfield_quotient, written out: one polynomial per parity of q."""
    p, h = prime_power(q)
    if p == 2:
        return _sl2_subfield_even_direct(q, k, w)
    pk = p**k
    r = h // k
    g2 = math.gcd(r, 2)
    delta = (
        (pk * pk - 1) * (q + 2)
        + pk * pk
        - 1
        + q
        + 1
        + pk * (pk + 1) * (pk - 3) * w
        + pk * (pk - 1) ** 2 * (g2 - 1)
        + 2 * (pk * pk - 1) * (w - 1)
        + 2 * (w - 1) * (q + 1)
        + pk * (pk - 1) ** 2 * (w - 1) * (g2 - 1)
        + (math.gcd(w, pk + 1) - 1) * pk * (pk - 1) * (q + 1) * (2 - g2)
    )
    g = 1 + Fraction(q * q - q - 2 - delta, 2 * pk * (pk * pk - 1) * w)
    if r % 2 == 0:
        n = (
            2
            + Fraction(2 * (q - pk * pk), pk * (pk - 1) * (pk + 1))
            + Fraction(q * (q - 1) * (q + 1), pk * (pk * pk - 1) * w)
        )
    else:
        n = (
            1
            + Fraction(2 * (q - pk), pk * (pk * pk - 1))
            + Fraction((q + 1) * math.gcd(pk + 1, w), (pk + 1) * w)
            + Fraction((q * q - q - pk * (pk - 1)) * (q + 1), pk * (pk - 1) * (pk + 1) * w)
        )
    return _as_count(g, "genus"), _as_count(n, "orbit count")


def sl2_split_ext_quotient_direct(q, k, w):
    """formulas.sl2_split_ext_quotient, written out."""
    p, h = prime_power(q)
    pk = p**k
    delta = (
        (pk * pk - 1) * (q + 2)
        + pk * pk
        - 1
        + q
        + 1
        + pk * (pk + 1) * (pk - 3) * w
        + pk * (pk - 1) ** 2
        + 2 * (pk * pk - 1) * (w - 1)
        + 2 * (w - 1) * (q + 1)
        + pk * (pk - 1) ** 2 * (w - 1)
        + 2 * pk * (pk * pk - 1) * w
    )
    g = 1 + Fraction(q * q - q - 2 - delta, 4 * pk * (pk * pk - 1) * w)
    n = (
        2
        + Fraction(q - pk * pk, pk * (pk * pk - 1))
        + Fraction(q * (q - 1) * (q + 1), 2 * pk * (pk * pk - 1) * w)
    )
    return _as_count(g, "genus"), _as_count(n, "orbit count")


def unitary_pm_quotient_direct(q, k, w):
    """formulas.unitary_pm_quotient, written out."""
    pk = prime_power(q)[0] ** k
    a = math.gcd(pk + 1, w)
    delta = (
        (q + 1)
        + pk * (pk + 1) * (pk - 3)
        + (pk * pk - 1) * (q + 3)
        + pk * (pk - 1) * (q + 1)
        + pk * (pk * pk - 1)
        + (2 * w - 2) * (q + 1)
        + 2 * (pk * pk - 1) * (w - 1)
        + 2 * pk * (pk + 1) * (pk - 2) * (w - 1)
        + 2 * pk * (pk - 1) * (q + 1) * (a - 1)
    )
    g = 1 + Fraction(q * q - q - 2 - delta, 4 * pk * (pk * pk - 1) * w)
    n = (
        1
        + Fraction(q - pk, pk * (pk - 1) * (pk + 1))
        + Fraction((q + 1) * a, (pk + 1) * w)
        + Fraction((q * q - q - pk * (pk - 1)) * (q + 1), 2 * pk * (pk + 1) * (pk - 1) * w)
    )
    return _as_count(g, "genus"), _as_count(n, "orbit count")


def sl2_five_quotient_char3_direct(q, w):
    """formulas.sl2_five_quotient_char3, written out: one branch per 5 | q - 1 and 5 | w."""
    if (q - 1) % 5 == 0:
        shift = 2 * w
        n = Fraction(q + 99, 60) + Fraction(q * (q - 1) * (q + 1), 120 * w)
    elif w % 5 != 0:
        shift = 0
        n = Fraction(q + 51, 60) + Fraction(q * (q - 1) * (q + 1), 120 * w)
    else:
        shift = q + 1
        n = (
            Fraction(q + 51, 60)
            + Fraction(q + 1, 2 * w)
            + Fraction((q * q - q - 12) * (q + 1), 120 * w)
        )
    g = Fraction((q + 1) * (q - 21 - 2 * w) + 140 * w - 48 * shift, 240 * w)
    return _as_count(g, "genus"), _as_count(n, "orbit count")


def dihedral_quotient_even_direct(q, t, w):
    """formulas.dihedral_quotient_even, written out."""
    g = Fraction(q * q - q * w - q * t + w * t + w - t - 1, 4 * t * w)
    n = Fraction(q - 1 + 3 * t, 2 * t) + Fraction(q * (q - 1) * (q + 1), 2 * t * w)
    return _as_count(g, "genus"), _as_count(n, "orbit count")


def triangle_quotient_even_direct(q, t, w):
    """formulas.triangle_quotient_even, written out."""
    a = math.gcd(t, w)
    g = Fraction((q + 1) * (q - 2 * a - w - t + 1) + 3 * t * w, 4 * t * w)
    n = (
        1
        + Fraction(q - t + 1, 2 * t)
        + Fraction((q + 1) * a, t * w)
        + Fraction((q + 1) ** 2 * (q - 2), 2 * t * w)
    )
    return _as_count(g, "genus"), _as_count(n, "orbit count")


def unitary_pm_orbit_count_rejected(q, k, w):
    """Rejected orbit-count variant: fixed term (q + 1) a / w; see ERRATA."""
    _, adopted = unitary_pm_quotient(q, k, w)
    pk = prime_power(q)[0] ** k
    a = math.gcd(pk + 1, w)
    # the adopted fixed term is (q + 1) a / ((p^k + 1) w); add the difference
    return _as_count(adopted + Fraction((q + 1) * a * pk, (pk + 1) * w), "orbit count")


def sl2_five_orbit_count_rejected(q, w):
    """Rejected orbit-count variant for the 5 | (q^2 - 1) branches; see ERRATA."""
    p, _ = prime_power(q)
    if p != 3 or w % 5 == 0:
        raise ValueError("the rejected variant applies only for p = 3 and 5 not dividing w")
    head = Fraction(q + 99, 60) if (q - 1) % 5 == 0 else Fraction(q + 51, 60)
    n = head + Fraction(q * (q - 1) * (q + 1), 15 * w)
    return _as_count(n, "orbit count")


def sl2_two_orbit_count_rejected(q, w):
    """Rejected orbit-count variant for the h odd, 3 | w branch; see ERRATA."""
    p, h = prime_power(q)
    if p != 2 or h % 2 == 0 or w % 3 != 0:
        raise ValueError("the rejected variant applies only for h odd and 3 | w")
    n = Fraction(q + 4, 6) + Fraction((q + 1) * (q * q - q - 2), w) + Fraction(q + 1, w)
    return _as_count(n, "orbit count")


# -- M_ell one element and one point at a time -------------------------------------


def compose_by_field(ctx, g1, g2):
    """The product g1 g2 of two elements, by FieldCtx.mul and add calls."""
    a1, c1, t1 = g1
    a2, c2, t2 = g2
    F = ctx.F
    u = F.mul(t1, ctx.frobq[c1])
    v = F.mul(t1, ctx.frobq[a1])
    return (
        F.add(F.mul(a1, a2), F.mul(u, c2)),
        F.add(F.mul(c1, a2), F.mul(v, c2)),
        F.mul(t1, t2),
    )


def classify_by_field(ctx, g):
    """The type table entry of a nonidentity element, its key read by field calls."""
    a, c, t = g
    F = ctx.F
    v = F.mul(t, ctx.frobq[a])
    return ctx._types[F.add(a, v), t, c == 0 and a == v]


def apply(ctx, g, pt):
    """The image of a normalized curve point under g."""
    a, c, t = g
    x, y, z = pt
    F = ctx.F
    u = F.mul(t, ctx.frobq[c])
    v = F.mul(t, ctx.frobq[a])
    return normalize_point(
        F,
        F.add(F.mul(a, x), F.mul(u, y)),
        F.add(F.mul(c, x), F.mul(v, y)),
        z,
    )


def count_fixed_brute(ctx, g):
    """Literal fixed-point count on the curve."""
    if g == ctx.identity:
        return len(ctx.pts)
    Xi, Yi, Zi = ctx._image_coords(g)
    return int(np.count_nonzero((Xi == ctx.X) & (Yi == ctx.Y)))


def classify_block(ctx, g):
    """Fixed-point geometry tag of a nonidentity element, read from its chord block.

    g acts as diag(B, 1) with B = [[a, u], [c, v]], u = t c^q, v = t a^q.
    Its fixed chord points are the eigenvectors of B, and the line through
    one of them and P = (0:0:1) is fixed pointwise exactly when that
    eigenvector's eigenvalue is 1, the eigenvalue of P.
    """
    a, c, t = g
    F, q, frobq = ctx.F, ctx.q, ctx.frobq
    v = F.mul(t, frobq[a])
    if c == 0:
        if a == v:
            # scalar on the chord: homology with center P, axis the chord line
            return ElementType("A", q + 1)
        # (eigenvector (x, y) of B, its eigenvalue)
        fixed = [((0, 1), v), ((1, 0), a)]
    else:
        # fixed chord points (x:1:0) solve -c x^2 + (a - v) x + u = 0
        u = F.mul(t, frobq[c])
        vals = ctx.ADD[
            ctx.MUL[F.neg(c), F.np_pow_vec(2)],
            ctx.ADD[ctx.MUL[F.sub(a, v), np.arange(ctx.card)], u],
        ]
        # the eigenvalue of (x:1:0) is the second entry c x + v of B (x, 1)
        fixed = [((x, 1), F.add(F.mul(c, x), v)) for x in np.flatnonzero(vals == 0).tolist()]

    def form(p1, p2):
        # the Hermitian form x1 x2^q - y1 y2^q on chord points
        return F.sub(F.mul(p1[0], frobq[p2[0]]), F.mul(p1[1], frobq[p2[1]]))

    if len(fixed) == 2:
        for (pa, lam), (pb, _) in (fixed, fixed[::-1]):
            if lam == 1:
                # pointwise-fixed line through pa and P: homology with center pb.
                # P lies on the polar of every chord point, so that line is the
                # polar of pb exactly when pa is orthogonal to pb
                if form(pb, pb) == 0:
                    raise AssertionError("homology with isotropic center")
                if form(pa, pb) != 0:
                    raise AssertionError("homology axis is not the polar of its center")
                return ElementType("A", q + 1)
        iso1, iso2 = (form(pt, pt) == 0 for pt, _ in fixed)
        if iso1 and iso2:
            return ElementType("B2", 2)
        if not iso1 and not iso2:
            return ElementType("B1", 0)
        raise AssertionError("mixed isotropy in a fixed frame")
    if len(fixed) == 1:
        ((pt, lam),) = fixed
        if form(pt, pt) != 0:
            raise AssertionError("single fixed chord point off the curve")
        return ElementType("C" if lam == 1 else "E", 1)
    raise AssertionError("element fixing no chord point")


def type_table_by_eigenvectors(ctx):
    """The (tr, det, scalar) -> type table, classifying the first element of each key.

    The keys come from numpy gathers over S_ell, one det = t at a time.
    Keys with different t differ, so np.unique's first index per key in
    the column of t is the first element of that key in iter_elements
    order.  Only the identity has the identity's key, and it is skipped.
    """
    s = np.array(ctx.s_ell, dtype=np.int32)
    a, diagonal = s[:, 0], s[:, 1] == 0  # B is diagonal exactly when c = 0
    aq = np.array(ctx.frobq, dtype=np.int32)[a]
    types = {}
    for t in ctx.mu:
        v = ctx.MUL[t, aq]
        # key 2 tr B + [B scalar] within the column of t
        keys, rows = np.unique(ctx.ADD[a, v] * 2 + (diagonal & (a == v)), return_index=True)
        for k, row in zip(keys.tolist(), rows.tolist()):
            g = (ctx.s_ell[row][0], ctx.s_ell[row][1], t)
            if g != ctx.identity:
                types[k >> 1, t, bool(k & 1)] = classify_block(ctx, g)
    return types


def random_element(ctx, rng):
    a, c, _ = rng.choice(ctx.s_ell)
    return (a, c, rng.choice(ctx.mu))


def random_subgroup(ctx, rng):
    g1 = random_element(ctx, rng)
    g2 = random_element(ctx, rng)
    return Subgroup.from_closure(ctx, [g1, g2])


def z_elements(ctx):
    """The center Z: homologies fixing the chord pointwise."""
    return ctx.cyclic_group(ctx.z_gen)


def z_intersection_order(sub):
    return sum(1 for z in z_elements(sub.ctx) if z in sub)


def torus_elements(ctx):
    """The cyclic torus fixing R0 and R1: frame images of diagonal matrices."""
    F, q = ctx.F, ctx.q
    return [ctx.frame_element(((lam, 0), (0, F.pow(lam, -q)))) for lam in range(1, ctx.card)]


# -- the tower group Aut(K_n) -------------------------------------------------------


class KnContext:
    """Aut(K_n) for the tower field K_n over GF(q^(2n)), n odd.

    An element (a, c, k) stands for xi = zeta^k in mu_N, N = q^n + 1, over a
    fixed generator zeta of mu_N with zeta^m = eps = mu[1].  Then xi^m =
    eps^k, so pi sends k to tau = mu[k mod (q+1)] and C_m = ker(pi) is the
    set of k divisible by q + 1; no field GF(q^(2n)) is built.  The product
    is the M_ell product of the pi-images, with the exponents added mod N.
    """

    def __init__(self, q, n):
        self.m = m_of(q, n)
        self.ml = ml_context(q)
        self.q = q
        self.n = n
        self.N = q**n + 1
        self.identity = (1, 0, 0)
        self.order = (q**3 - q) * self.N

    def compose(self, g1, g2):
        a, c, _ = self.ml.compose(self.pi(g1), self.pi(g2))
        return (a, c, (g1[2] + g2[2]) % self.N)

    def right_products(self, elements):
        return lambda y: [self.compose(h, y) for h in elements]

    def inverse(self, g):
        a, c, _ = self.ml.inverse(self.pi(g))
        return (a, c, -g[2] % self.N)

    def tau(self, k):
        """The determinant xi^m = eps^k of pi at xi = zeta^k; 1 exactly on mu_m."""
        return self.ml.mu[k % (self.q + 1)]

    def pi(self, g):
        """Restriction to the Hermitian subfield: an M_ell element."""
        a, c, k = g
        return (a, c, self.tau(k))

    def rho(self, g):
        """The exponent k of the mu_(q^n+1) character xi = zeta^k."""
        return g[2]

    def iter_elements(self):
        for a, c, _ in self.ml.s_ell:
            for k in range(self.N):
                yield (a, c, k)

    def c_m_elements(self):
        """The central kernel of pi: (1, 0, k) with zeta^(k m) = 1."""
        return [(1, 0, k) for k in range(0, self.N, self.q + 1)]


@lru_cache(maxsize=None)
def kn_context(q, n):
    return KnContext(q, n)


@dataclass(frozen=True)
class TripleSpec:
    """Invariants (L0, L1, bar L) of a tower-group subgroup."""

    q: int
    n: int
    r: int  # |L0|, the order of the character image
    s: int  # |L0^m|, the number of cosets needed
    l0: frozenset  # character image inside mu_(q^n+1), as exponents mod N
    l1: frozenset  # the subgroup meeting S_ell x C_m
    bar_l: frozenset  # image in M_ell


def _check_triple_identities(kn, l0, l1, bar_l):
    l0m = {k * kn.m % kn.N for k in l0}
    tau_back = {kn.tau(k) for k in l0}
    bar_dets = {g[2] for g in bar_l}
    if tau_back != bar_dets:
        raise AssertionError("determinant image of bar L differs from L0^m")
    pi_l1 = {kn.pi(g) for g in l1}
    bar_in_s = {g for g in bar_l if g[2] == 1}
    if pi_l1 != bar_in_s:
        raise AssertionError("pi(L1) is not bar L meet S_ell")
    rho_l1 = {g[2] for g in l1}
    if rho_l1 != {k for k in l0 if kn.tau(k) == 1}:
        raise AssertionError("rho(L1) is not L0 meet mu_m")
    return len(l0m)


def triple_of(kn, elements):
    """Decompose a subgroup of Aut(K_n) into its defining triple."""
    l0 = frozenset(kn.rho(g) for g in elements)
    l1 = frozenset(g for g in elements if kn.tau(kn.rho(g)) == 1)
    bar_l = frozenset(kn.pi(g) for g in elements)
    s = _check_triple_identities(kn, l0, l1, bar_l)
    r = len(l0)
    if r != s * math.gcd(r, kn.m):
        raise AssertionError("character order violates r = s * gcd(r, m)")
    return TripleSpec(kn.q, kn.n, r, s, l0, l1, bar_l)


def group_from_triple(kn, spec):
    """Rebuild a subgroup of Aut(K_n) from a triple, by coset representatives."""
    l0, l1, bar_l = spec.l0, spec.l1, spec.bar_l
    s = _check_triple_identities(kn, l0, l1, bar_l)
    if s != spec.s or len(l0) != spec.r:
        raise ValueError("triple spec is inconsistent with its own data")
    center_part = {g for g in l1 if (g[0], g[1]) == (1, 0)}
    wanted = {(1, 0, k) for k in l0 if kn.tau(k) == 1}
    if center_part != wanted:
        raise ValueError("L1 does not meet the central kernel in L0 meet mu_m")
    # eta: canonical generator of the cyclic group L0; zeta^k has order N / gcd(k, N)
    r = spec.r
    gens = [k for k in sorted(l0) if kn.N // math.gcd(k, kn.N) == r]
    if not gens:
        raise ValueError("L0 has no generator of order r")
    eta = gens[0]
    reps = [kn.identity]
    for i in range(1, s):
        target = i * eta % kn.N
        tau = kn.tau(target)
        found = next(
            ((a, c, target) for a, c, _ in kn.ml.s_ell if (a, c, tau) in bar_l), None
        )
        if found is None:
            raise AssertionError("no coset representative with the prescribed character")
        reps.append(found)
    out = set()
    for rep in reps:
        for g in l1:
            out.add(kn.compose(rep, g))
    if len(out) != s * len(l1):
        raise AssertionError("coset products collide")
    # certify the reconstruction
    if {kn.pi(g) for g in out} != set(bar_l):
        raise AssertionError("reconstructed group has wrong image in M_ell")
    if {kn.rho(g) for g in out} != set(l0):
        raise AssertionError("reconstructed group has wrong character image")
    if {g for g in out if kn.tau(kn.rho(g)) == 1} != set(l1):
        raise AssertionError("reconstructed group has wrong L1")
    _certify_closed(kn, out)
    return out


def _certify_closed(kn, elements):
    """Check closure under composition: exhaustively when small, sampled when big."""
    els = list(elements)
    eset = set(elements)
    if len(els) <= 256:
        pairs = ((a, b) for a in els for b in els)
    else:
        rng = random.Random(0xC105ED)
        pairs = ((rng.choice(els), rng.choice(els)) for _ in range(512))
    for a, b in pairs:
        if kn.compose(a, b) not in eset:
            raise AssertionError("reconstructed set is not closed under composition")
