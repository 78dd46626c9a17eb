"""Exact genus and orbit-count formulas for Hermitian curve quotients.

Two kinds of closed-form data live here:

* per-family pairs (genus, orbit count) for the quotient of the Hermitian
  curve by a chord-stabilizer subgroup, where the orbit count is the number
  of orbits of the subgroup on the rational curve points, and
* lifting rules turning such a pair into the genus of the matching Galois
  subfield of the second generalized GK function field.

All arithmetic is exact rational arithmetic.  Every function validates its
parameter constraints and raises ValueError when a combination is
inconsistent, or when an expression that has to be an integer is not one.
"""

from fractions import Fraction
from math import gcd

from sympy import divisors, factorint


def prime_power(q):
    """Split a prime power q = p^h into (p, h)."""
    fact = factorint(q)
    if q < 2 or len(fact) != 1:
        raise ValueError("q must be a prime power, got %r" % (q,))
    ((p, h),) = fact.items()
    return p, h


def _as_count(x, what):
    """Reduce an exact rational to a nonnegative int, rejecting anything else."""
    x = Fraction(x)
    if x.denominator != 1 or x < 0:
        raise ValueError("%s must be a nonnegative integer, got %s" % (what, x))
    return int(x)


def _check_divisor(d, n, what):
    if d < 1 or n % d != 0:
        raise ValueError("%s must divide %d, got %r" % (what, n, d))


def hermitian_genus(q):
    """Genus of the Hermitian curve over the field with q^2 elements."""
    return q * (q - 1) // 2


def m_of(q, n):
    """Degree (q^n + 1)/(q + 1) of the cyclic cover used throughout."""
    if n < 1 or n % 2 == 0:
        raise ValueError("n must be odd and positive, got %r" % (n,))
    prime_power(q)
    return (q**n + 1) // (q + 1)


def kn_genus(q, n):
    """Genus of the second generalized GK function field itself."""
    return lift_genus(q, n, hermitian_genus(q), q**3 + 1, 1)


def genus_upper_bound(q, n):
    """Largest genus any subfield can have: the bound q'(q' - 1)/2 at q' = q^n."""
    return q**n * (q**n - 1) // 2


def group_order_bound(q, n):
    """Order of the full automorphism group, q (q^2 - 1)(q^n + 1)."""
    return q * (q * q - 1) * (q**n + 1)


# ---------------------------------------------------------------------------
# Lifting rules.
#
# A subgroup of the big automorphism group projects onto a chord-stabilizer
# subgroup of the Hermitian curve and meets the central cyclic kernel of
# order m in a subgroup of some order t.  Fixed-field genera then satisfy
#
#     2 g - 2 = (m/t) (2 g_quot - 2) + N (m/t - 1),
#
# with N the orbit count of the projected group on the rational curve
# points.  When the projected group has order prime to the characteristic
# the orbit count drops out and the genus depends only on g_quot and the
# group order.
# ---------------------------------------------------------------------------


def lift_genus(q, n, quot_genus, n_orbits, cm_order):
    """Genus of the subfield determined by (quot_genus, n_orbits) and kernel part cm_order."""
    m = m_of(q, n)
    _check_divisor(cm_order, m, "cm_order")
    ratio = m // cm_order
    two_g = 2 + ratio * (2 * quot_genus - 2) + n_orbits * (ratio - 1)
    return _as_count(Fraction(two_g, 2), "lifted genus")


def lift_genus_tame(q, n, quot_genus, group_order, cm_order):
    """Lifted genus for a projected group of order prime to the characteristic."""
    p, _ = prime_power(q)
    if group_order % p == 0:
        raise ValueError("tame lift needs a group order prime to %d" % p)
    m = m_of(q, n)
    _check_divisor(cm_order, m, "cm_order")
    ratio = m // cm_order
    extra = Fraction((q * q - 1) * (q + 1) * (ratio - 1), 2 * group_order)
    return _as_count(quot_genus + extra, "lifted genus")


def n_orbits_tame(q, group_order, quot_genus):
    """Orbit count on rational curve points forced by a tame quotient genus.

    Obtained by equating the two lifting rules above: for a group of order
    prime to the characteristic,

        N * order = (q - 1)(q + 1)^2 - order * (2 g_quot - 2).
    """
    p, _ = prime_power(q)
    if group_order % p == 0:
        raise ValueError("orbit identity needs a group order prime to %d" % p)
    total = (q - 1) * (q + 1) ** 2 - group_order * (2 * quot_genus - 2)
    return _as_count(Fraction(total, group_order), "orbit count")


def admissible_cm_orders(q, n, s):
    """Kernel-intersection orders t guaranteed by the direct construction.

    Here s is the order of the image of the projected group under the
    determinant-like character onto the cyclic group of order q + 1.  The
    returned t are the divisors of m with s * t dividing q^n + 1 and
    gcd(s * t, m) = t; each one is realized by building a lift around a
    cyclic scalar group of order s * t.  Given t | m, the last condition
    is equivalent to gcd(s, m/t) = 1, so every t returned here carries the
    full completeness guarantee.
    """
    m = m_of(q, n)
    return [t for t in candidate_cm_orders(q, n, s) if gcd(s * t, m) == t]


def candidate_cm_orders(q, n, s):
    """Kernel-intersection orders t compatible with the counting constraints.

    Relaxation of admissible_cm_orders: only t | m and s * t | q^n + 1 are
    required, which is what the order bookkeeping of a lifted subgroup
    forces on its own.  Candidates with gcd(s, m/t) = 1 coincide with the
    admissible set and are certainly realized; the remaining candidates are
    reported for reference tables but carry no construction guarantee.
    """
    m = m_of(q, n)
    _check_divisor(s, q + 1, "s")
    big = q**n + 1
    return [int(d) for d in sorted(divisors(m)) if big % (s * int(d)) == 0]


# ---------------------------------------------------------------------------
# Families for even q.  Throughout, w is the order of the intersection with
# the central cyclic subgroup of order q + 1 acting trivially on the chord.
# ---------------------------------------------------------------------------


def _even_qhw(q, w):
    p, h = prime_power(q)
    if p != 2:
        raise ValueError("this family needs even q, got q=%d" % q)
    _check_divisor(w, q + 1, "w")
    return h


def elementary_abelian_quotient(q, f, w):
    """Product of an elementary abelian group of order 2^f with the central C_w."""
    h = _even_qhw(q, w)
    if not 1 <= f <= h:
        raise ValueError("f must satisfy 1 <= f <= %d, got %r" % (h, f))
    pf = 2**f
    g = Fraction((q + 1) * (q - w - pf) + w * (pf + 1), 2 * pf * w)
    n1 = Fraction(q, pf) + 1
    n2 = Fraction(q * (q * q - 1), pf * w)
    return _as_count(g, "genus"), _as_count(n1 + n2, "orbit count")


def sl2_two_quotient(q, w):
    """Product of a symmetric group on three letters with the central C_w."""
    h = _even_qhw(q, w)
    if h % 2 == 0:
        # Order-3 elements split over the base field, and 3 divides q - 1,
        # so 3 cannot divide w.
        g = Fraction(q * q - w * q - 3 * q + 4 * w - 4, 12 * w)
        n = Fraction(q + 8, 6) + Fraction(q * (q - 1) * (q + 1), 6 * w)
    elif w % 3 != 0:
        g = Fraction((q + 1) * (q - w - 4) + 9 * w, 12 * w)
        n = Fraction(q + 4, 6) + Fraction(q**3 - q, 6 * w)
    else:
        g = Fraction((q + 1) * (q - w - 8) + 9 * w, 12 * w)
        n = (
            Fraction(q + 4, 6)
            + Fraction((q + 1) * (q * q - q - 2), 6 * w)
            + Fraction(q + 1, w)
        )
    return _as_count(g, "genus"), _as_count(n, "orbit count")


def sl2_subfield_quotient_even(q, f, w):
    """Product of a subfield SL(2, 2^f) with the central C_w, for f dividing h."""
    h = _even_qhw(q, w)
    if f <= 1 or h % f != 0:
        raise ValueError("f must be a divisor of %d larger than 1, got %r" % (h, f))
    pf = 2**f
    if (h // f) % 2 == 1:
        a = gcd(pf + 1, w)
        num = (q + 1) * (q - w - pf * (pf - 1) * a - pf) + (pf + 1) * w * (
            pf * pf - pf + 1
        )
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


def dihedral_quotient_even(q, t, w):
    """Product of a dihedral group of order 2t, t dividing q - 1, with C_w."""
    _even_qhw(q, w)
    _check_divisor(t, q - 1, "t")
    g = Fraction(q * q - q * w - q * t + w * t + w - t - 1, 4 * t * w)
    n = Fraction(q - 1 + 3 * t, 2 * t) + Fraction(q * (q - 1) * (q + 1), 2 * t * w)
    return _as_count(g, "genus"), _as_count(n, "orbit count")


def alt5_quotient_even(q, w):
    """Product of an alternating group on five letters with C_w, h even."""
    h = _even_qhw(q, w)
    if h % 2 != 0:
        raise ValueError("this family needs h even, got q=%d" % q)
    if (q - 1) % 5 == 0:
        delta = w
    elif w % 5 == 0:
        delta = q + 1
    else:
        delta = 0
    g = Fraction((q + 1) * (q - w - 16) + 65 * w - 48 * delta, 120 * w)
    if (q - 1) % 5 == 0:
        n = 2 + Fraction(q - 16, 60) + Fraction(q * (q - 1) * (q + 1), 60 * w)
    elif w % 5 != 0:
        n = 1 + Fraction(q - 4, 60) + Fraction(q * (q - 1) * (q + 1), 60 * w)
    else:
        n = 1 + Fraction(q - 4, 60) + Fraction(q + 1, w) * (Fraction(q * q - q - 12, 60) + 1)
    return _as_count(g, "genus"), _as_count(n, "orbit count")


def alt4_quotient_even(q, w):
    """Product of an alternating group on four letters with C_w, h even."""
    h = _even_qhw(q, w)
    if h % 2 != 0:
        raise ValueError("this family needs h even, got q=%d" % q)
    g = Fraction(q * q - q * w + 4 * w - 3 * q - 4, 24 * w)
    n = Fraction(q + 20, 12) + Fraction(q * (q - 1) * (q + 1), 12 * w)
    return _as_count(g, "genus"), _as_count(n, "orbit count")


def elation_semidirect_quotient(q, f, d, w):
    """Product of E_{2^f} extended by a cyclic C_d with the central C_w.

    The cyclic factor has order d dividing gcd(2^f - 1, q - 1) and acts
    on the elation group without nontrivial fixed vectors.
    """
    h = _even_qhw(q, w)
    if not 1 <= f <= h:
        raise ValueError("f must satisfy 1 <= f <= %d, got %r" % (h, f))
    pf = 2**f
    if d <= 1 or gcd(pf - 1, q - 1) % d != 0:
        raise ValueError("d must divide gcd(2^f - 1, q - 1) and exceed 1, got %r" % (d,))
    g = Fraction((q + 1) * (q - w - pf) + w * (pf + 1), 2 * pf * d * w)
    n = Fraction(q - pf, pf * d) + 2 + Fraction(q * (q * q - 1), pf * d * w)
    return _as_count(g, "genus"), _as_count(n, "orbit count")


def triangle_quotient_even(q, t, w):
    """Group of order 2tw stabilizing a self-polar triangle, t and w dividing q + 1."""
    _even_qhw(q, w)
    _check_divisor(t, q + 1, "t")
    a = gcd(t, w)
    g = Fraction((q + 1) * (q - 2 * a - w - t + 1) + 3 * t * w, 4 * t * w)
    n = (
        1
        + Fraction(q - t + 1, 2 * t)
        + Fraction((q + 1) * a, t * w)
        + Fraction((q + 1) ** 2 * (q - 2), 2 * t * w)
    )
    return _as_count(g, "genus"), _as_count(n, "orbit count")


# ---------------------------------------------------------------------------
# Families for q = 1 mod 4.  Here w is the order of the intersection with
# the odd central factor of order (q + 1)/2.
# ---------------------------------------------------------------------------


def _odd_qhw(q, w):
    p, h = prime_power(q)
    if q % 4 != 1:
        raise ValueError("this family needs q = 1 mod 4, got q=%d" % q)
    _check_divisor(w, (q + 1) // 2, "w")
    return p, h


def sl2_five_quotient_char3(q, w):
    """Product of SL(2,5) with the central C_w, in characteristic three."""
    p, _ = _odd_qhw(q, w)
    if p != 3:
        raise ValueError("this family needs characteristic 3, got q=%d" % q)
    if (q * q - 1) % 5 != 0:
        raise ValueError("q^2 - 1 must be divisible by 5, got q=%d" % q)
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


def sl2_subfield_quotient(q, k, w):
    """Product of a subfield SL(2, p^k) with the central C_w, for k dividing h."""
    p, h = _odd_qhw(q, w)
    if k < 1 or h % k != 0:
        raise ValueError("k must divide %d, got %r" % (h, k))
    pk = p**k
    r = h // k
    g2 = gcd(r, 2)
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
        + (gcd(w, pk + 1) - 1) * pk * (pk - 1) * (q + 1) * (2 - g2)
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
            + Fraction((q + 1) * gcd(pk + 1, w), (pk + 1) * w)
            + Fraction((q * q - q - pk * (pk - 1)) * (q + 1), pk * (pk - 1) * (pk + 1) * w)
        )
    return _as_count(g, "genus"), _as_count(n, "orbit count")


def sl2_split_ext_quotient(q, k, w):
    """Subfield SL(2, p^k) doubled by a split torus normalizer, times C_w.

    The extending element squares to a generator of the split torus of the
    subfield group, so the extension has twice its order.  Needs h/k even.
    """
    p, h = _odd_qhw(q, w)
    if k < 1 or h % k != 0 or (h // k) % 2 != 0:
        raise ValueError("k must divide %d with even quotient, got %r" % (h, k))
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


def unitary_pm_quotient(q, k, w, orbit_variant="adopted"):
    """Subfield SL(2, p^k) extended by a determinant minus-one element, times C_w.

    Needs h/k odd.  The orbit count has a rejected variant kept only so the
    consistency suite can demonstrate its failure; see ERRATA.
    """
    p, h = _odd_qhw(q, w)
    if k < 1 or h % k != 0 or (h // k) % 2 != 1:
        raise ValueError("k must divide %d with odd quotient, got %r" % (h, k))
    pk = p**k
    a = gcd(pk + 1, w)
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
    if orbit_variant == "adopted":
        fixed_term = Fraction((q + 1) * a, (pk + 1) * w)
    elif orbit_variant == "rejected":
        fixed_term = Fraction((q + 1) * a, w)
    else:
        raise ValueError("unknown orbit_variant %r" % (orbit_variant,))
    n = (
        1
        + Fraction(q - pk, pk * (pk - 1) * (pk + 1))
        + fixed_term
        + Fraction((q * q - q - pk * (pk - 1)) * (q + 1), 2 * pk * (pk + 1) * (pk - 1) * w)
    )
    return _as_count(g, "genus"), _as_count(n, "orbit count")


def point_stabilizer_quotient(q, mu, u):
    """Group of order mu * p^u fixing a rational curve point.

    The p-part is elementary abelian of order p^u inside the elation group
    of the point, normalized by a cyclic group of order mu dividing q^2 - 1.
    Valid for every characteristic; u = 0 gives the tame cyclic case.
    """
    p, h = prime_power(q)
    _check_divisor(mu, q * q - 1, "mu")
    if not 0 <= u <= h:
        raise ValueError("u must satisfy 0 <= u <= %d, got %r" % (h, u))
    d = gcd(q + 1, mu)
    g = Fraction((q + 1 - d) * (p ** (h - u) - 1), 2 * mu)
    n = (
        Fraction(q * (q * q - 1), p**u * mu)
        + 2
        + Fraction(d * (q - p**u), p**u * mu)
    )
    return _as_count(g, "genus"), _as_count(n, "orbit count")


def sl2_five_orbit_count_rejected(q, w):
    """Rejected orbit-count variant for the 5 | (q^2 - 1) branches; see ERRATA."""
    p, _ = _odd_qhw(q, w)
    if p != 3 or w % 5 == 0:
        raise ValueError("the rejected variant applies only for p = 3 and 5 not dividing w")
    head = Fraction(q + 99, 60) if (q - 1) % 5 == 0 else Fraction(q + 51, 60)
    n = head + Fraction(q * (q - 1) * (q + 1), 15 * w)
    return _as_count(n, "orbit count")


def sl2_two_orbit_count_rejected(q, w):
    """Rejected orbit-count variant for the h odd, 3 | w branch; see ERRATA."""
    h = _even_qhw(q, w)
    if h % 2 == 0 or w % 3 != 0:
        raise ValueError("the rejected variant applies only for h odd and 3 | w")
    n = Fraction(q + 4, 6) + Fraction((q + 1) * (q * q - q - 2), w) + Fraction(q + 1, w)
    return _as_count(n, "orbit count")


# Rejected near-miss expressions, retained so tests can demonstrate that
# they contradict the brute-force orbit counts.  Each entry records the
# closed form, the catalog family it serves, the adopted form, and a witness
# (q and the instance parameters) where the variants disagree.
ERRATA = {
    "sl2_two_orbit_count": {
        "family": "sl2_two_quotient, branch h odd with 3 | w",
        "catalog_family": "sl2_two",
        "adopted": "middle orbit term (q + 1)(q^2 - q - 2) / (6 w)",
        "rejected": "middle orbit term (q + 1)(q^2 - q - 2) / w",
        "witness": {"q": 8, "w": 9, "adopted_n": 12, "rejected_n": 57},
    },
    "unitary_pm_orbit_count": {
        "family": "unitary_pm_quotient",
        "catalog_family": "unitary_pm",
        "adopted": "fixed-set orbit term (q + 1) gcd(p^k + 1, w) / ((p^k + 1) w)",
        "rejected": "fixed-set orbit term (q + 1) gcd(p^k + 1, w) / w",
        "witness": {"q": 9, "k": 2, "w": 1, "adopted_n": 2, "rejected_n": 11},
    },
    "sl2_five_orbit_count": {
        "family": "sl2_five_quotient_char3, branches with 5 not dividing w",
        "catalog_family": "sl2_five",
        "adopted": "long orbit term (q^3 - q) / (120 w)",
        "rejected": "long orbit term (q^3 - q) / (15 w)",
        "witness": {"q": 9, "w": 1, "adopted_n": 7, "rejected_n": 49},
    },
}
