"""Exact genus and orbit-count formulas for Hermitian curve quotients.

Two kinds of closed-form data live here:

* per-family pairs (genus, orbit count) for the quotient of the Hermitian
  curve by a chord-stabilizer subgroup, where the orbit count is the number
  of orbits of the subgroup on the rational curve points, and
* lifting rules turning such a pair into the genus of the matching Galois
  subfield of the second generalized GK function field.

All arithmetic is exact: rational, except that the lifting rules stay in
integers and build a Fraction only to report a bad genus.  Every function
validates its parameter constraints and raises ValueError when a combination
is inconsistent, or when an expression that has to be an integer is not one.

The small-integer number theory under both (primality, prime powers,
factoring, divisors, multiplicative orders) is plain-Python integer code
here too; gf, hermitian and catalog import it from this module.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

# Trial divisors, and the first 13 of them as Miller-Rabin bases.
_SMALL_PRIMES = tuple(n for n in range(2, 1000) if all(n % d for d in range(2, isqrt(n) + 1)))
_MR_BASES = _SMALL_PRIMES[:13]
# Miller-Rabin on the bases 2..41 is exact below this bound (Sorenson and
# Webster 2015); from it on is_prime runs strong BPSW (Baillie-Wagstaff 1980).
_MR_BOUND = 3317044064679887385961981
# Pollard-Brent iterations spent on one composite cofactor of m, and the
# number of steps whose differences share one gcd.
RHO_EFFORT = 2**16
_RHO_BATCH = 64
# Trial-division bound of the sympy.factorint(m, limit=FACTOR_LIMIT)
# fallback, made only when RHO_EFFORT leaves a cofactor of m composite;
# factorint scales its rho and p-1 effort to the limit too.  The budget
# bounds steps, not time: each step costs more as m grows, and
# `spectrum --q 2 --n 3001` runs past 75 s (ROADMAP item 9).  A cofactor
# above the limit that it leaves composite rejects (q, n).
FACTOR_LIMIT = 2**20


# ---------------------------------------------------------------------------
# Small-integer number theory: primality, factoring, divisors, orders.
# ---------------------------------------------------------------------------


def _iroot(n, k):
    """floor(n^(1/k)) for n >= 0 and k >= 1, by Newton's method from above."""
    if k == 1 or n < 2:
        return n
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _strong_probable_prime(n, a):
    """Whether the odd n > 2 passes the Miller-Rabin test to base a."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    x = pow(a, (n - 1) >> s, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a, n):
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas_probable_prime(n):
    """Whether the odd n > 2 passes the strong Lucas test with Selfridge's parameters.

    D is the first of 5, -7, 9, -11, ... with Jacobi symbol (D/n) = -1,
    P = 1 and Q = (1 - D)/4; n + 1 = d 2^s with d odd, and n passes when
    U_d = 0 or V_(d 2^r) = 0 (mod n) for some r < s.
    """
    if isqrt(n) ** 2 == n:
        return False
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0:
            return n == abs(D)
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    d = (n + 1) >> s
    # U_k, V_k, Q^k for k = 1, then k -> 2k and k -> k + 1 along the bits of d
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V = U + V, D * U + V
            U = (U + n if U & 1 else U) // 2 % n
            V = (V + n if V & 1 else V) // 2 % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def is_prime(n):
    """Whether the integer n is prime.

    Trial division, then Miller-Rabin to the bases 2..41, which is exact
    below _MR_BOUND; past it, strong BPSW, as in sympy.isprime.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 1000**2:
        return True
    if n < _MR_BOUND:
        return all(_strong_probable_prime(n, a) for a in _MR_BASES)
    return _strong_probable_prime(n, 2) and _strong_lucas_probable_prime(n)


def _pollard_brent(n, effort):
    """A proper factor of the odd composite n, or None once effort steps are spent.

    Brent's cycle search on x -> x^2 + c (mod n) for c = 1, 2, ..., with the
    gcd taken once per _RHO_BATCH steps; effort None never gives up.
    """
    spent = 0
    c = 0
    while True:
        c += 1
        y, r, acc, g = 2, 1, 1, 1
        while g == 1:
            if effort is not None and spent >= effort:
                return None
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    acc = acc * (x - y) % n
                g = gcd(acc, n)
                k += _RHO_BATCH
            spent += r + k
            r *= 2
        if g == n:
            # the batch met a multiple of n: step through it one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


def _perfect_power(n):
    """(r, k) with n = r^k and k prime, or None, for n free of primes below 1000."""
    for k in _SMALL_PRIMES:
        if 1000**k >= n:
            break
        r = _iroot(n, k)
        if r**k == n:
            return r, k
    return None


def _factor(n, effort=None):
    """(factors, left): the primes {p: e} found in n >= 1, and the composite rest.

    Trial division by the primes below 1000, then a perfect-power check and
    Pollard-Brent with effort steps on each cofactor; left is the product of
    the cofactors that stay composite, 1 when effort is None.
    """
    factors = {}

    def add(p, e):
        factors[p] = factors.get(p, 0) + e

    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            add(p, e)
    left = 1
    stack = [(n, 1)] if n > 1 else []
    while stack:
        c, e = stack.pop()
        if is_prime(c):
            add(c, e)
            continue
        power = _perfect_power(c)
        if power is not None:
            stack.append((power[0], e * power[1]))
            continue
        d = _pollard_brent(c, effort)
        if d is None:
            left *= c**e
        else:
            stack += [(d, e), (c // d, e)]
    return dict(sorted(factors.items())), left


def prime_factors(n):
    """The prime factorization of n >= 1 as {p: e}, primes increasing."""
    return _factor(n)[0]


def _divisors_of_factorization(factors):
    divs = [1]
    for p, e in factors.items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def divisors(n):
    """The divisors of n >= 1 in increasing order."""
    return _divisors_of_factorization(prime_factors(n))


def multiplicative_order(a, n):
    """The least e >= 1 with a^e = 1 (mod n), for a prime to n >= 1."""
    if gcd(a, n) != 1:
        raise ValueError("%r is not a unit modulo %r" % (a, n))
    order = 1
    for p, e in prime_factors(n).items():
        order *= (p - 1) * p ** (e - 1)
    for p in prime_factors(order):
        while order % p == 0 and pow(a, order // p, n) == 1:
            order //= p
    return order


@lru_cache(maxsize=None)
def prime_power(q):
    """Split a prime power q = p^h into (p, h).

    q is a prime power exactly when, for some h <= log2(q), its integer
    h-th root is prime and its h-th power is q, so q itself is never
    factored.
    """
    for h in range(1, max(q, 1).bit_length()):
        p = _iroot(q, h)
        if p**h == q and is_prime(p):
            return p, h
    raise ValueError("q must be a prime power, got %r" % (q,))


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
    if two_g % 2 == 0 and two_g >= 0:
        return two_g // 2
    return _as_count(Fraction(two_g, 2), "lifted genus")


def lift_genus_tame(q, n, quot_genus, group_order, cm_order):
    """Lifted genus for a projected group of order prime to the characteristic."""
    p, _ = prime_power(q)
    if group_order % p == 0:
        raise ValueError("tame lift needs a group order prime to %d" % p)
    m = m_of(q, n)
    _check_divisor(cm_order, m, "cm_order")
    ratio = m // cm_order
    num, den = (q * q - 1) * (q + 1) * (ratio - 1), 2 * group_order
    genus, rem = divmod(quot_genus * den + num, den)
    if rem == 0 and genus >= 0:
        return genus
    return _as_count(quot_genus + Fraction(num, den), "lifted genus")


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
    _check_divisor(s, q + 1, "s")
    big = q**n + 1
    return [d for d in divisors_of_m(q, n) if big % (s * d) == 0]


@lru_cache(maxsize=None)
def divisors_of_m(q, n):
    """The divisors of m = (q^n + 1)/(q + 1) in increasing order.

    m is factored once per (q, n): Pollard-Brent with RHO_EFFORT steps per
    cofactor, then, only if that leaves a cofactor composite, sympy.factorint
    within FACTOR_LIMIT.  A cofactor that this budget leaves composite
    raises ValueError instead of factoring on.
    """
    m = m_of(q, n)
    fact, left = _factor(m, RHO_EFFORT)
    if left > 1:
        from sympy import factorint  # the only sympy import of the package

        fact = factorint(m, limit=FACTOR_LIMIT)
        for f in fact:
            if f > FACTOR_LIMIT and not is_prime(f):
                raise ValueError(
                    "cannot factor m = (q^n+1)/(q+1) for q=%d, n=%d: a %d-bit "
                    "cofactor is left composite by the factoring budget"
                    % (q, n, f.bit_length())
                )
    return tuple(_divisors_of_factorization(fact))


# ---------------------------------------------------------------------------
# Families for even q.  Throughout, w is the order of the intersection with
# the central cyclic subgroup of order q + 1 acting trivially on the chord.
#
# One closed form serves each recipe the catalog builds with, not each family
# name.  The elation families (elementary_abelian, elation_semidirect, and
# alt4 = E_4 extended by C_3) take point_stabilizer_quotient below, valid in
# every characteristic, with mu = d w and u = f.  The subfield families
# sl2_two (SL(2, 2) = S_3), alt5 (SL(2, 4) = A_5) and sl2_subfield take
# sl2_subfield_quotient_even with f = 1, 2 and k.
# ---------------------------------------------------------------------------


def _even_qhw(q, w):
    p, h = prime_power(q)
    if p != 2:
        raise ValueError("this family needs even q, got q=%d" % q)
    _check_divisor(w, q + 1, "w")
    return h


def sl2_subfield_quotient_even(q, f, w):
    """Product of a subfield SL(2, 2^f) with the central C_w, for f dividing h."""
    h = _even_qhw(q, w)
    if f < 1 or h % f != 0:
        raise ValueError("f must be a positive divisor of %d, got %r" % (h, f))
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
# the odd central factor of order (q + 1)/2.  The split-torus extension is
# the sl2_subfield recipe plus one element; its closed form reads
# sl2_subfield_quotient.
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
    Its quotient is exactly (g/2, N/2 + 1), (g, N) = sl2_subfield_quotient:
    by Riemann-Hurwitz the double cover between the two quotients branches
    at exactly two points, two orbits of rational points, and pairs the rest.
    """
    _, h = _odd_qhw(q, w)
    if k < 1 or h % k != 0 or (h // k) % 2 != 0:
        raise ValueError("k must divide %d with even quotient, got %r" % (h, k))
    g, n = sl2_subfield_quotient(q, k, w)
    return _as_count(Fraction(g, 2), "genus"), _as_count(Fraction(n, 2) + 1, "orbit count")


def unitary_pm_quotient(q, k, w):
    """Subfield SL(2, p^k) extended by a determinant minus-one element, times C_w.

    Needs h/k odd.
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
    n = (
        1
        + Fraction(q - pk, pk * (pk - 1) * (pk + 1))
        + Fraction((q + 1) * a, (pk + 1) * w)
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


# Rejected near-miss expressions, recorded so tests can demonstrate that
# they contradict the brute-force orbit counts.  Each entry records the
# closed form, the catalog family it serves, the adopted form, and a witness
# (q and the instance parameters) where the variants disagree.
ERRATA = {
    "sl2_two_orbit_count": {
        "family": "sl2_subfield_quotient_even at f = 1, branch h/f odd with 3 | w",
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
