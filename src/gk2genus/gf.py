"""Exact arithmetic in small finite fields GF(p^k).

Elements are plain int codes, with no element object: the code of
c0 + c1*x + ... is sum(ci * p^i).  Every canonical choice (modulus,
primitive element) uses one rule: smallest candidate in
coefficient-lex order, coefficients compared low-degree first.  Fields
have at most 2^15 elements, and every field is tabled at construction:
exp/log arrays over the canonical generator make mul/inv/pow/order O(1)
lookups, and a Zech-logarithm array (log(1 + g^i) for each i) makes
add/neg lookups too at odd p; at p = 2 addition is XOR.  A field of at
most 1024 elements also gives its dense product and sum tables,
flat_tables: two flat 2-byte array("H") tables, each allocated once and
filled row by row in place, the sums read from the product rows by the
same Zech rule.  Contexts are singletons per (p, k), created via make_field.

numpy is loaded on first use, not at import: formula mode, catalog listings
and argument rejections never touch a numpy table, so they never load it.
This module holds the package's one numpy handle, np; hermitian and mlgroup
take it from here.
"""

from __future__ import annotations

import importlib.util
import itertools
import sys
from array import array
from functools import lru_cache
from math import gcd

from .formulas import is_prime, prime_factors


def _lazy_numpy():
    """numpy, executed on its first attribute access (the LazyLoader recipe).

    An already imported numpy is returned unchanged.  Otherwise the module is
    registered in sys.modules unexecuted, and a missing numpy raises
    ModuleNotFoundError here, as the plain import would.  Other modules must
    use `from .gf import np`: a plain `import numpy` finds the lazy module in
    sys.modules and reads its __spec__, which executes it at once.  LazyLoader
    is not thread-safe on first access before Python 3.12; the package is
    single-threaded.
    """
    if "numpy" in sys.modules:
        return sys.modules["numpy"]
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


np = _lazy_numpy()

_CARD_LIMIT = 2**15
_NP_TABLE_LIMIT = 1024


def _coeffs_of(code, p, k):
    out = []
    for _ in range(k):
        code, r = divmod(code, p)
        out.append(r)
    return tuple(out)


def _code_of(coeffs, p):
    code = 0
    for c in reversed(coeffs):
        code = code * p + c
    return code


def _poly_rem(poly, modulus, p):
    # little-endian coefficient list poly reduced mod modulus (monic), in place
    k = len(modulus) - 1
    for i in range(len(poly) - 1, k - 1, -1):
        c = poly[i]
        if c:
            for j in range(k):
                poly[i - k + j] = (poly[i - k + j] - c * modulus[j]) % p
    return poly[:k] + [0] * (k - len(poly))


def _poly_mul_mod(a, b, modulus, p):
    # little-endian coefficient lists, reduced mod modulus (monic)
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    return _poly_rem(prod, modulus, p)


def _is_irreducible(coeffs, p):
    """Whether the monic coeffs has no monic factor of degree <= half its own."""
    k = len(coeffs) - 1
    for d in range(1, k // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            if not any(_poly_rem(list(coeffs), tail + (1,), p)):
                return False
    return True


class FieldCtx:
    """Arithmetic context for GF(p^k): canonical modulus, generator, tables."""

    def __init__(self, p, k, _token=None):
        if _token is not _MAKE_TOKEN:
            raise TypeError("use make_field(p, k)")
        self.p = p
        self.k = k
        self.card = p**k
        self.modulus = self._find_modulus()
        self.gen_code = self._find_primitive()
        self._build_tables(self.gen_code)

    def __repr__(self):
        return "GF(%d^%d)" % (self.p, self.k) if self.k > 1 else "GF(%d)" % self.p

    # -- construction -------------------------------------------------

    def _find_modulus(self):
        p, k = self.p, self.k
        for tail in itertools.product(range(p), repeat=k):
            coeffs = tail + (1,)
            if _is_irreducible(coeffs, p):
                return coeffs
        raise AssertionError("no irreducible polynomial found")

    def _iter_codes_lex(self):
        p, k = self.p, self.k
        for tup in itertools.product(range(p), repeat=k):
            yield _code_of(tup, p)

    def _find_primitive(self):
        n = self.card - 1
        primes = prime_factors(n)
        for code in self._iter_codes_lex():
            if code == 0:
                continue
            if all(self._pow_slow(code, n // r) != 1 for r in primes):
                return code
        raise AssertionError("no primitive element found")

    def _build_tables(self, gen):
        # exp[i] = g^i, log[g^i] = i, and zech[i] = log(1 + g^i), None where
        # g^i = -1.  Adding 1 changes only the constant digit of a code.
        p = self.p
        n = self.card - 1
        exp = [1] * n
        log = [0] * self.card
        c = 1
        for i in range(1, n):
            c = self._mul_slow(c, gen)
            exp[i] = c
        for i, c in enumerate(exp):
            log[c] = i
        self._n = n
        self._exp = exp
        self._log = log
        self._zech = [None if c == p - 1 else log[c - c % p + (c + 1) % p] for c in exp]

    # -- scalar ops on codes -------------------------------------------------

    def add(self, a, b):
        if self.p == 2:
            return a ^ b
        if a == 0:
            return b
        if b == 0:
            return a
        # a + b = a * (1 + b/a)
        log = self._log
        la = log[a]
        z = self._zech[(log[b] - la) % self._n]
        if z is None:
            return 0
        return self._exp[(la + z) % self._n]

    def neg(self, a):
        if self.p == 2 or a == 0:
            return a
        # -1 = g^(n/2) at odd p
        return self._exp[(self._log[a] + self._n // 2) % self._n]

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def _mul_slow(self, a, b):
        p, k = self.p, self.k
        prod = _poly_mul_mod(
            list(_coeffs_of(a, p, k)), list(_coeffs_of(b, p, k)), self.modulus, p
        )
        return _code_of(prod, p)

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % self._n]

    def _pow_slow(self, a, e):
        n = self.card - 1
        e %= n
        out = 1
        base = a
        while e:
            if e & 1:
                out = self._mul_slow(out, base)
            base = self._mul_slow(base, base)
            e >>= 1
        return out

    def pow(self, a, e):
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("0 has no negative powers")
            return 0 if e else 1
        return self._exp[(self._log[a] * e) % self._n]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self._exp[-self._log[a] % self._n]

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def order_of(self, a):
        """Multiplicative order of a nonzero code: n / gcd(log a, n)."""
        if a == 0:
            raise ValueError("0 has no multiplicative order")
        return self._n // gcd(self._log[a], self._n)

    # -- vectorized tables (small fields only) --------------------------------

    def _np_logs(self):
        """(exp, log) as int64 arrays."""
        return np.array(self._exp, dtype=np.int64), np.array(self._log, dtype=np.int64)

    def flat_tables(self):
        """(mul, add): the card x card product and sum tables, by code, as flat
        array("H") tables indexed a * card + b; tabled codes are below 1024.

        Each buffer is allocated once and filled row by row through a numpy
        view, so no temporary outgrows a row.  a*b = exp[log a + log b], with
        exp doubled so the sum needs no % n, and a + b = a*(1 + b/a) is read
        from the finished product rows: adding 1 changes only the constant
        digit of a code.
        """
        card = self.card
        if card > _NP_TABLE_LIMIT:
            raise ValueError("field too large for dense tables")
        mul, add = array("H", [0]) * card**2, array("H", [0]) * card**2
        M = np.frombuffer(mul, dtype=np.uint16).reshape(card, card)
        A = np.frombuffer(add, dtype=np.uint16).reshape(card, card)
        exp, log = self._np_logs()
        exp, nz = np.concatenate((exp, exp)), log[1:]
        for a in range(1, card):
            M[a, 1:] = exp.take(log[a] + nz)
        codes = np.arange(card)
        one_plus = codes - codes % self.p + (codes + 1) % self.p
        A[0] = codes
        for a in range(1, card):
            A[a] = M[a].take(one_plus.take(M[self.inv(a)]))
        return mul, add

    def np_pow_vec(self, e):
        """card int32 vector of e-th powers, by code; 0 maps to 0 when e < 0."""
        exp, log = self._np_logs()
        vec = np.zeros(self.card, dtype=np.int32)
        vec[0] = self.pow(0, e) if e >= 0 else 0
        vec[1:] = exp[(log[1:] * e) % self._n]
        return vec


_MAKE_TOKEN = object()


@lru_cache(maxsize=None)
def make_field(p, k):
    """Singleton GF(p^k) context with the canonical modulus and generator."""
    if not is_prime(p):
        raise ValueError("p must be prime, got %r" % (p,))
    if k < 1:
        raise ValueError("k must be >= 1")
    if p**k > _CARD_LIMIT:
        raise ValueError("field too large: p^k > 2^15")
    return FieldCtx(p, k, _token=_MAKE_TOKEN)


def roots_of_unity(ctx, d):
    """The cyclic group of d-th roots of unity as codes, [1, z, z^2, ...] with z canonical."""
    n = ctx.card - 1
    if d < 1 or n % d:
        raise ValueError("%d does not divide |F*| = %d" % (d, n))
    z = ctx.pow(ctx.gen_code, n // d)
    out = [1]
    for _ in range(d - 1):
        out.append(ctx.mul(out[-1], z))
    return out

