"""Exact arithmetic in small finite fields GF(p^k).

Elements are integer codes: the code of c0 + c1*x + ... is sum(ci * p^i).
Every canonical choice (modulus, primitive element, embedding root) uses
one rule: smallest candidate in coefficient-lex order, coefficients
compared low-degree first.  Fields small enough to table get exp/log
arrays, so mul/inv/pow are O(1) lookups; bigger fields fall back to
polynomial arithmetic.  Contexts are singletons per (p, k), created via
make_field.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np
from sympy import factorint, isprime
from sympy import GF as _sympy_GF
from sympy import Poly as _sympy_Poly
from sympy.abc import x as _sympy_x

_CARD_LIMIT = 2**40
_TABLE_LIMIT = 2**15
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


def _poly_mul_mod(a, b, modulus, p):
    # little-endian coefficient lists, reduced mod modulus (monic)
    k = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    for i in range(len(prod) - 1, k - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(k + 1):
                prod[i - k + j] = (prod[i - k + j] - c * modulus[j]) % p
    return prod[:k] + [0] * (k - len(prod))


def _is_irreducible(coeffs, p):
    return _sympy_Poly(list(reversed(coeffs)), _sympy_x, domain=_sympy_GF(p)).is_irreducible


class FieldCtx:
    """Arithmetic context for GF(p^k): canonical modulus, generator, tables."""

    def __init__(self, p, k, _token=None):
        if _token is not _MAKE_TOKEN:
            raise TypeError("use make_field(p, k)")
        self.p = p
        self.k = k
        self.card = p**k
        self.modulus = self._find_modulus()
        self.zero_code = 0
        self.one_code = 1
        self._exp = None
        self._log = None
        self.gen_code = self._find_primitive()
        self._np_cache = {}

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
        if n == 1:
            return 1
        primes = list(factorint(n))
        for code in self._iter_codes_lex():
            if code == 0:
                continue
            if all(self._pow_slow(code, n // r) != 1 for r in primes):
                if self.card <= _TABLE_LIMIT:
                    self._build_tables(code)
                return code
        raise AssertionError("no primitive element found")

    def _build_tables(self, gen):
        n = self.card - 1
        exp = [1] * n
        log = [0] * self.card
        c = 1
        for i in range(1, n):
            c = self._mul_slow(c, gen)
            exp[i] = c
        for i, c in enumerate(exp):
            log[c] = i
        self._exp = exp
        self._log = log

    # -- scalar ops on codes -------------------------------------------------

    def add(self, a, b):
        p = self.p
        if p == 2:
            return a ^ b
        out = 0
        mult = 1
        while a or b:
            a, ra = divmod(a, p)
            b, rb = divmod(b, p)
            out += ((ra + rb) % p) * mult
            mult *= p
        return out

    def neg(self, a):
        p = self.p
        if p == 2:
            return a
        out = 0
        mult = 1
        while a:
            a, ra = divmod(a, p)
            out += (-ra % p) * mult
            mult *= p
        return out

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
        if self._exp is not None:
            n = self.card - 1
            return self._exp[(self._log[a] + self._log[b]) % n]
        return self._mul_slow(a, b)

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
        if self._exp is not None:
            n = self.card - 1
            return self._exp[(self._log[a] * e) % n]
        return self._pow_slow(a, e)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        if self._exp is not None:
            n = self.card - 1
            return self._exp[(n - self._log[a]) % n]
        return self._pow_slow(a, self.card - 2)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def frob(self, a, q0):
        """a -> a^q0 for q0 a power of p (the subfield-order Frobenius)."""
        e = q0
        ok = e >= 1
        while e > 1 and e % self.p == 0:
            e //= self.p
        if not ok or e != 1:
            raise ValueError("q0 must be a power of %d" % self.p)
        return self.pow(a, q0)

    def order_of(self, a):
        """Multiplicative order of a nonzero code."""
        if a == 0:
            raise ValueError("0 has no multiplicative order")
        n = self.card - 1
        order = n
        for r, e in factorint(n).items():
            for _ in range(e):
                if self.pow(a, order // r) == 1:
                    order //= r
                else:
                    break
        return order

    # -- element constructors -------------------------------------------------

    def elem(self, value):
        if isinstance(value, FFElem):
            if value.ctx is not self:
                raise ValueError("element from a different field")
            return value
        if isinstance(value, tuple):
            if len(value) > self.k or any(not (0 <= c < self.p) for c in value):
                raise ValueError("bad coefficient tuple")
            value = _code_of(value, self.p)
        if not (0 <= value < self.card):
            raise ValueError("code out of range")
        return FFElem(self, value)

    @property
    def zero(self):
        return FFElem(self, 0)

    @property
    def one(self):
        return FFElem(self, 1)

    @property
    def gen(self):
        return FFElem(self, self.gen_code)

    def elements(self):
        """All field elements in coefficient-lex order."""
        return [FFElem(self, c) for c in self._iter_codes_lex()]

    def lex_key(self, code):
        return _coeffs_of(code, self.p, self.k)

    # -- vectorized tables (small fields only) --------------------------------

    def np_mul_table(self):
        """card x card int32 table of products, by code."""
        if "mul" not in self._np_cache:
            if self.card > _NP_TABLE_LIMIT:
                raise ValueError("field too large for dense tables")
            n = self.card - 1
            log = np.array(self._log, dtype=np.int64)
            exp = np.array(self._exp, dtype=np.int64)
            nz = log[1:]
            tab = np.zeros((self.card, self.card), dtype=np.int32)
            tab[1:, 1:] = exp[(nz[:, None] + nz[None, :]) % n].astype(np.int32)
            self._np_cache["mul"] = tab
        return self._np_cache["mul"]

    def np_add_table(self):
        if "add" not in self._np_cache:
            if self.card > _NP_TABLE_LIMIT:
                raise ValueError("field too large for dense tables")
            codes = np.arange(self.card, dtype=np.int64)
            if self.p == 2:
                tab = (codes[:, None] ^ codes[None, :]).astype(np.int32)
            else:
                tab = np.zeros((self.card, self.card), dtype=np.int64)
                mult = 1
                rest_a = codes.copy()
                rest_b = codes.copy()
                for _ in range(self.k):
                    da = rest_a % self.p
                    db = rest_b % self.p
                    tab += ((da[:, None] + db[None, :]) % self.p) * mult
                    rest_a //= self.p
                    rest_b //= self.p
                    mult *= self.p
                tab = tab.astype(np.int32)
            self._np_cache["add"] = tab
        return self._np_cache["add"]

    def np_inv_vec(self):
        if "inv" not in self._np_cache:
            vec = np.zeros(self.card, dtype=np.int32)
            for c in range(1, self.card):
                vec[c] = self.inv(c)
            self._np_cache["inv"] = vec
        return self._np_cache["inv"]

    def np_pow_vec(self, e):
        key = ("pow", e)
        if key not in self._np_cache:
            vec = np.zeros(self.card, dtype=np.int32)
            vec[0] = self.pow(0, e) if e >= 0 else 0
            for c in range(1, self.card):
                vec[c] = self.pow(c, e)
            self._np_cache[key] = vec
        return self._np_cache[key]


class FFElem:
    """A finite field element: a context reference plus an integer code."""

    __slots__ = ("ctx", "code")

    def __init__(self, ctx, code):
        self.ctx = ctx
        self.code = code

    @property
    def coeffs(self):
        return _coeffs_of(self.code, self.ctx.p, self.ctx.k)

    def _other(self, other):
        if isinstance(other, FFElem):
            if other.ctx is not self.ctx:
                raise ValueError("mixed field contexts")
            return other.code
        if isinstance(other, int):
            return other % self.ctx.p
        return NotImplemented

    def __add__(self, other):
        c = self._other(other)
        if c is NotImplemented:
            return NotImplemented
        return FFElem(self.ctx, self.ctx.add(self.code, c))

    __radd__ = __add__

    def __sub__(self, other):
        c = self._other(other)
        if c is NotImplemented:
            return NotImplemented
        return FFElem(self.ctx, self.ctx.sub(self.code, c))

    def __rsub__(self, other):
        c = self._other(other)
        if c is NotImplemented:
            return NotImplemented
        return FFElem(self.ctx, self.ctx.sub(c, self.code))

    def __neg__(self):
        return FFElem(self.ctx, self.ctx.neg(self.code))

    def __mul__(self, other):
        c = self._other(other)
        if c is NotImplemented:
            return NotImplemented
        return FFElem(self.ctx, self.ctx.mul(self.code, c))

    __rmul__ = __mul__

    def __truediv__(self, other):
        c = self._other(other)
        if c is NotImplemented:
            return NotImplemented
        return FFElem(self.ctx, self.ctx.div(self.code, c))

    def __rtruediv__(self, other):
        c = self._other(other)
        if c is NotImplemented:
            return NotImplemented
        return FFElem(self.ctx, self.ctx.div(c, self.code))

    def __pow__(self, e):
        return FFElem(self.ctx, self.ctx.pow(self.code, e))

    def frobenius_q(self, q0):
        return FFElem(self.ctx, self.ctx.frob(self.code, q0))

    def order(self):
        return self.ctx.order_of(self.code)

    def __eq__(self, other):
        if isinstance(other, FFElem):
            return self.ctx is other.ctx and self.code == other.code
        if isinstance(other, int):
            return self.code == other % self.ctx.p
        return NotImplemented

    def __hash__(self):
        return hash((id(self.ctx), self.code))

    def __bool__(self):
        return self.code != 0

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                head = "" if c == 1 else str(c)
                terms.append("%su" % head if i == 1 else "%su^%d" % (head, i))
        return "+".join(reversed(terms)) if terms else "0"


_MAKE_TOKEN = object()


@lru_cache(maxsize=None)
def make_field(p, k):
    """Singleton GF(p^k) context with the canonical modulus and generator."""
    if not isprime(p):
        raise ValueError("p must be prime, got %r" % (p,))
    if k < 1:
        raise ValueError("k must be >= 1")
    if p**k > _CARD_LIMIT:
        raise ValueError("field too large: p^k > 2^40")
    return FieldCtx(p, k, _token=_MAKE_TOKEN)


def roots_of_unity(ctx, d):
    """The cyclic group of d-th roots of unity, [1, z, z^2, ...] with z canonical."""
    n = ctx.card - 1
    if d < 1 or n % d:
        raise ValueError("%d does not divide |F*| = %d" % (d, n))
    z = ctx.pow(ctx.gen_code, n // d)
    out = [ctx.one]
    c = 1
    for _ in range(d - 1):
        c = ctx.mul(c, z)
        out.append(FFElem(ctx, c))
    return out


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
    r = min(roots, key=sup.lex_key)
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


def embed(elt, sup):
    """Embed an FFElem into the bigger field sup along the canonical root."""
    table = embed_codes(elt.ctx, sup)
    return FFElem(sup, table[elt.code])
