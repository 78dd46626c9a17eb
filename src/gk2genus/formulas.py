"""Exact genus and orbit-count formulas for Hermitian curve quotients.

quotient_data gives the genus of the quotient of the Hermitian curve by a
chord-stabilizer subgroup, and the subgroup's orbit count on the rational
curve points, from its order and census; each catalog family's closed form
is its census in closed form.  Lifting rules turn such a pair into the
genus of the matching Galois subfield of the second generalized GK function
field.

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
    """Reduce an int or Fraction to a nonnegative int, rejecting anything else."""
    if x.denominator != 1 or x.numerator < 0:
        raise ValueError("%s must be a nonnegative integer, got %s" % (what, x))
    return x.numerator


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
    return lift_genus_by_degree(quot_genus, n_orbits, m // cm_order)


def lift_genus_by_degree(quot_genus, n_orbits, ratio):
    """lift_genus for the cover degree ratio = m / cm_order, which the caller checked."""
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
# Quotient data from a census: the count of a subgroup H's nonidentity
# elements of each fixed-point type (mlgroup.MlContext.classify).  By
# Riemann-Hurwitz with Hilbert's different formula (Stichtenoth, Thm 3.8.7)
# and Burnside's lemma on the q^3 + 1 rational points,
#
#     2 g(H_q) - 2 = |H| (2 g_bar - 2) + sum_(sigma != 1) i(sigma),
#     N |H| = q^3 + 1 + sum_(sigma != 1) fix(sigma),
#
# fix(sigma) counting sigma's fixed points, all rational, and i(sigma) summing
# its different exponents at them.  Each closed form below is its family's
# census in the family's parameters; w is the order of its intersection with
# the central cyclic group fixing the chord pointwise, of order q + 1 at even
# q and (q + 1)/2 at q = 1 (mod 4).
# ---------------------------------------------------------------------------


def element_types(q):
    """{type tag: (fixed rational points, different exponent sum)} of M_ell's element types.

    Homologies (A) fix their axis's q + 1 points, B2 two, B1 none; elations (C)
    fix their center with exponent q + 2, elations times homologies (E) tamely.
    """
    return {"A": (q + 1, q + 1), "B1": (0, 0), "B2": (2, 2), "C": (1, q + 2), "E": (1, 1)}


def quotient_data(q, order, census):
    """Exact Fractions (g_bar, N) for a group of this order and census {tag: count}.

    Nothing is checked: a list of elements that is no group gives fractions.
    """
    types = element_types(q)
    fixed = sum(types[tag][0] * k for tag, k in census.items())
    different = sum(types[tag][1] * k for tag, k in census.items())
    # g_bar = 1 + (2 g(H_q) - 2 - different) / (2 |H|), as one fraction
    return (Fraction(2 * order + 2 * hermitian_genus(q) - 2 - different, 2 * order),
            Fraction(q**3 + 1 + fixed, order))


def _census_form(q, order, census):
    """The integral (g_bar, N) of a closed census, which must count all order - 1 elements."""
    if sum(census.values()) != order - 1:
        raise ValueError("a census of order %d must count %d elements" % (order, order - 1))
    g, n = quotient_data(q, order, census)
    return _as_count(g, "genus"), _as_count(n, "orbit count")


def _qhw(q, w, even=False):
    """(p, h) of q = p^h, checking that q is even (or 1 mod 4) and w divides the central order."""
    p, h = prime_power(q)
    if p != 2 and (even or q % 4 != 1):
        raise ValueError("q=%d: this family needs q even%s" % (q, "" if even else " or 1 mod 4"))
    _check_divisor(w, q + 1 if p == 2 else (q + 1) // 2, "w")
    return p, h


def point_stabilizer_quotient(q, mu, u):
    """Group of order mu * p^u fixing a rational curve point, in every characteristic.

    An elation group of order p^u (C), normalized by a torus C_mu, mu | q^2 - 1,
    of d - 1 homologies, d = gcd(mu, q + 1), and B2 elements; u = 0 is the
    tame cyclic case.  The rest are conjugate into C_mu or elations by homologies (E).
    """
    p, h = prime_power(q)
    _check_divisor(mu, q * q - 1, "mu")
    if not 0 <= u <= h:
        raise ValueError("u must satisfy 0 <= u <= %d, got %r" % (h, u))
    d, pu = gcd(q + 1, mu), p**u
    census = {"A": d - 1, "B2": pu * (mu - d), "C": pu - 1, "E": (d - 1) * (pu - 1)}
    return _census_form(q, pu * mu, census)


def _sl2_census(q, k, w):
    """(P, h/k, order, census) of SL(2, P) x C_w for P = p^k, k dividing h.

    With z = |Z(SL(2, P))| = gcd(2, q - 1), the zw - 1 central elements are
    homologies, the P^2 - 1 unipotents elations (C), their central multiples
    E.  The P(P + 1)(P - 1 - z)/2 split semisimple s, times c in C_w, are B2.
    The P(P - 1)(P + 1 - z)/2 non-split s have eigenvalues x, 1/x in
    mu_(P+1): inside GF(q) for h/k even (B2), inside mu_(q+1) for h/k odd,
    where s c is B1 unless c x = 1, a homology: P(P - 1) for each of the
    a - 1 elements c != 1 of C_w in mu_(P+1), a = gcd(w, P + 1).
    """
    p, h = _qhw(q, w)
    if k < 1 or h % k != 0:
        raise ValueError("k must be a positive divisor of %d, got %r" % (h, k))
    P, z = p**k, gcd(2, q - 1)
    central, nonsplit = z * w - 1, w * P * (P - 1) * (P + 1 - z) // 2
    census = {"A": central, "B2": w * P * (P + 1) * (P - 1 - z) // 2,
              "C": P * P - 1, "E": central * (P * P - 1)}
    if (h // k) % 2 == 0:
        census["B2"] += nonsplit
    else:
        homologies = (gcd(w, P + 1) - 1) * P * (P - 1)
        census["A"] += homologies
        census["B1"] = nonsplit - homologies
    return P, h // k, P * (P * P - 1) * w, census


def sl2_subfield_quotient(q, k, w):
    """Product of a subfield SL(2, p^k), k dividing h, with the central C_w, at either parity."""
    return _census_form(q, *_sl2_census(q, k, w)[2:])


def sl2_split_ext_quotient(q, k, w):
    """Subfield SL(2, p^k) doubled by a split torus normalizer, times C_w; needs odd q, h/k even.

    The extending element squares to a generator of the split torus.  Its
    coset, times C_w, has eigenvalues c x, c/x with x != +-1 in GF(p^2k),
    inside GF(q): all B2.
    """
    P, r, order, census = _sl2_census(q, k, w)
    if P % 2 == 0 or r % 2:
        raise ValueError("k must divide h with even quotient at odd q, got q=%d, k=%r" % (q, k))
    census["B2"] += order
    return _census_form(q, 2 * order, census)


def unitary_pm_quotient(q, k, w):
    """Subfield SL(2, p^k) extended by a determinant minus-one element, times C_w; needs h/k odd.

    Then SL(2, P) = SU(2, P) for P = p^k, mu_(P+1) lies in mu_(q+1), and the
    group is the determinant +-1 part of GU(2, P) inside GU(2, q), times C_w.
    A determinant -1 element of GU(2, P) has eigenvalues {x, -1/x}, in
    mu_(P+1) for (P + 1)/2 pairs of P(P - 1) elements each, half the coset,
    and else off mu_(q+1), swapped by x -> x^(-q): B2.  Times c in C_w, the
    first half is B1 but for the homologies of pair {1/c, -c}, for each of
    the a = gcd(w, P + 1) elements c of C_w in mu_(P+1).  The catalog builds
    only k = h: at h/k >= 3 (q = 125, 729, ...) no group checks this census.
    """
    P, r, order, census = _sl2_census(q, k, w)
    if P % 2 == 0 or r % 2 == 0:
        raise ValueError("k must divide h with odd quotient at odd q, got q=%d, k=%r" % (q, k))
    homologies = gcd(w, P + 1) * P * (P - 1)
    census["A"] += homologies
    census["B1"] += order // 2 - homologies
    census["B2"] += order // 2
    return _census_form(q, 2 * order, census)


def sl2_five_quotient_char3(q, w):
    """Product of SL(2, 5) with the central C_w, in characteristic three.

    -1 and C_w give 2w - 1 homologies; the 20 elements of order 3 are
    elations, with 20 (2w - 1) central multiples E; the 30 of order 4 have
    eigenvalues +-sqrt(-1) in GF(q): B2.  The 48 of order 5 or 10 are B2
    when 5 | q - 1; otherwise their eigenvalues lie in mu_(q+1), and they
    are B1 but for the 48 homologies c x = 1 that 5 | w allows.
    """
    p, _ = _qhw(q, w)
    if p != 3 or (q * q - 1) % 5 != 0:
        raise ValueError("this family needs characteristic 3 and 5 | q^2 - 1, got q=%d" % q)
    census = {"A": 2 * w - 1, "B2": 30 * w, "C": 20, "E": 20 * (2 * w - 1)}
    if (q - 1) % 5 == 0:
        census["B2"] += 48 * w
    else:
        homologies = 48 if w % 5 == 0 else 0
        census["A"] += homologies
        census["B1"] = 48 * w - homologies
    return _census_form(q, 120 * w, census)


def dihedral_quotient_even(q, t, w):
    """Dihedral group of order 2t, t | q - 1, times C_w, at even q.

    The w - 1 central elements are homologies, the t reflections elations.
    """
    _qhw(q, w, even=True)
    _check_divisor(t, q - 1, "t")
    census = {"A": w - 1, "B2": (t - 1) * w, "C": t, "E": t * (w - 1)}
    return _census_form(q, 2 * t * w, census)


def triangle_quotient_even(q, t, w):
    """Group of order 2tw stabilizing a self-polar triangle, t and w dividing q + 1, at even q.

    The t swap involutions are elations.  Of the diagonal part C_t x C_w,
    w - 1 elements fix the chord pointwise and 2 (gcd(t, w) - 1) one of the
    other two sides: homologies; the rest are B1.
    """
    _qhw(q, w, even=True)
    _check_divisor(t, q + 1, "t")
    homologies = w - 1 + 2 * (gcd(t, w) - 1)
    census = {"A": homologies, "B1": t * w - 1 - homologies, "C": t, "E": t * (w - 1)}
    return _census_form(q, 2 * t * w, census)


# Rejected near-miss orbit counts, recorded so tests can show that they
# contradict the brute-force orbit counts.  Each entry names the closed form
# and the catalog family it serves, the adopted count, the rejected one, and a
# witness (q and the instance parameters) where the two disagree.  The adopted
# count is the N that quotient_data gives from the closed form's census; the
# rejected one is that count written out as a polynomial with one wrong term,
# the term both strings quote.
ERRATA = {
    "sl2_two_orbit_count": {
        "family": "sl2_subfield_quotient at k = 1, h odd and 3 | w",
        "catalog_family": "sl2_two",
        "adopted": "N of the census of SL(2, 2) x C_w, whose middle orbit term is "
                   "(q + 1)(q^2 - q - 2) / (6 w)",
        "rejected": "middle orbit term (q + 1)(q^2 - q - 2) / w",
        "witness": {"q": 8, "w": 9, "adopted_n": 12, "rejected_n": 57},
    },
    "unitary_pm_orbit_count": {
        "family": "unitary_pm_quotient",
        "catalog_family": "unitary_pm",
        "adopted": "N of the census of the determinant +-1 part of GU(2, p^k) times C_w, whose "
                   "fixed-set orbit term is (q + 1) gcd(p^k + 1, w) / ((p^k + 1) w)",
        "rejected": "fixed-set orbit term (q + 1) gcd(p^k + 1, w) / w",
        "witness": {"q": 9, "k": 2, "w": 1, "adopted_n": 2, "rejected_n": 11},
    },
    "sl2_five_orbit_count": {
        "family": "sl2_five_quotient_char3, 5 not dividing w",
        "catalog_family": "sl2_five",
        "adopted": "N of the census of SL(2, 5) x C_w, whose long orbit term is "
                   "(q^3 - q) / (120 w)",
        "rejected": "long orbit term (q^3 - q) / (15 w)",
        "witness": {"q": 9, "w": 1, "adopted_n": 7, "rejected_n": 49},
    },
}
