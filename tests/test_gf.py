"""Field context construction, canonical choices, arithmetic axioms."""

import itertools
import random

import pytest
from sympy import GF as sympy_GF
from sympy import Poly, totient
from sympy.abc import x

from gk2genus.gf import _code_of, _coeffs_of, embed, embed_codes, make_field, roots_of_unity


def test_gf4_canonical():
    F4 = make_field(2, 2)
    assert F4.modulus == (1, 1, 1)  # x^2 + x + 1
    u = F4.gen
    assert sorted(e.code for e in F4.elements()) == [0, 1, 2, 3]
    assert u * (u + 1) == F4.one


def test_modulus_is_lex_smallest_irreducible():
    for p, k in [(2, 3), (2, 6), (3, 2), (5, 2), (7, 2), (13, 2), (5, 3)]:
        F = make_field(p, k)
        mod_poly = Poly(list(reversed(F.modulus)), x, domain=sympy_GF(p))
        assert mod_poly.is_irreducible
        # every lex-smaller monic candidate must be reducible
        for tail in itertools.product(range(p), repeat=k):
            if tail + (1,) == F.modulus:
                break
            assert not Poly(list(reversed(tail + (1,))), x, domain=sympy_GF(p)).is_irreducible


def test_primitive_is_lex_smallest_of_max_order():
    for p, k in [(2, 2), (2, 4), (3, 2), (5, 2)]:
        F = make_field(p, k)
        n = F.card - 1
        assert F.order_of(F.gen_code) == n
        for e in F.elements():
            if e.code == F.gen_code:
                break
            assert e.code == 0 or e.order() < n


def test_field_axioms_random():
    rng = random.Random(7)
    for p, k in [(2, 6), (5, 2), (3, 3), (13, 2)]:
        F = make_field(p, k)
        els = F.elements()
        for _ in range(200):
            a, b, c = (rng.choice(els) for _ in range(3))
            assert (a + b) * c == a * c + b * c
            assert (a * b) * c == a * (b * c)
            assert a - a == F.zero
            if b.code:
                assert (a / b) * b == a
                assert b * b**-1 == F.one if False else (b / b) == F.one
            assert a ** F.card == a  # Frobenius fixed field


def test_order_statistics():
    # number of elements of each multiplicative order d is totient(d)
    F = make_field(7, 2)
    counts = {}
    for e in F.elements():
        if e.code:
            counts[e.order()] = counts.get(e.order(), 0) + 1
    for d, cnt in counts.items():
        assert (F.card - 1) % d == 0
        assert cnt == int(totient(d))


def test_roots_of_unity():
    F64 = make_field(2, 6)
    r9 = roots_of_unity(F64, 9)
    assert len(r9) == 9 and r9[0] == F64.one
    assert sum(1 for z in r9 if z.order() == 9) == 6  # totient(9)
    r21 = roots_of_unity(F64, 21)
    # intersection of the two cyclic groups is the gcd-order group
    inter = set(z.code for z in r9) & set(z.code for z in r21)
    assert inter == set(z.code for z in roots_of_unity(F64, 3))
    with pytest.raises(ValueError):
        roots_of_unity(F64, 5)


def test_embed_is_ring_hom():
    F4 = make_field(2, 2)
    F64 = make_field(2, 6)
    for a in F4.elements():
        for b in F4.elements():
            assert embed(a + b, F64) == embed(a, F64) + embed(b, F64)
            assert embed(a * b, F64) == embed(a, F64) * embed(b, F64)
    assert embed(F4.one, F64) == F64.one


def test_embed_canonical_root_and_orders():
    F4 = make_field(2, 2)
    F64 = make_field(2, 6)
    img = embed(F4.gen, F64)
    # image of x is a root of the small modulus, and the lex-smallest one
    mod = F4.modulus
    acc = F64.zero
    for coeff in reversed(mod):
        acc = acc * img + coeff
    assert acc == F64.zero
    other_roots = [
        e for e in F64.elements() if sum((e**i) * c for i, c in enumerate(mod)) == F64.zero
    ]
    assert img.code == min(other_roots, key=lambda e: F64.lex_key(e.code)).code
    F25 = make_field(5, 2)
    F56 = make_field(5, 6)
    for t in F25.elements():
        if t.code:
            assert embed(t, F56).order() == t.order()


def test_embed_frobenius_compat():
    F9 = make_field(3, 2)
    F81 = make_field(3, 4)
    for t in F9.elements():
        assert embed(t.frobenius_q(3), F81) == embed(t, F81).frobenius_q(3)


def test_embed_transitivity():
    F4 = make_field(2, 2)
    F16 = make_field(2, 4)
    F256 = make_field(2, 8)
    via = [embed(embed(a, F16), F256).code for a in F4.elements()]
    direct = [embed(a, F256).code for a in F4.elements()]
    conjugated = [embed(a * a, F256).code for a in F4.elements()]
    # both are ring embeddings of GF(4); they agree or differ by the GF(4) conjugation
    assert via == direct or via == conjugated


def test_make_field_guards():
    with pytest.raises(ValueError):
        make_field(4, 2)
    with pytest.raises(ValueError):
        make_field(2, 0)
    with pytest.raises(ValueError):
        make_field(2, 64)
    with pytest.raises(ValueError):
        make_field(2, 16)
    with pytest.raises(ValueError):
        make_field(3, 10)
    with pytest.raises(ValueError):
        embed_codes(make_field(2, 2), make_field(2, 5))
    with pytest.raises(ValueError):
        embed_codes(make_field(2, 2), make_field(3, 2))


def test_pow_and_frob():
    F8 = make_field(2, 3)
    for e in F8.elements():
        assert e**0 == F8.one or e.code == 0
        assert e.frobenius_q(2) == e * e
        assert e.frobenius_q(8) == e
    with pytest.raises(ValueError):
        F8.gen.frobenius_q(3)
    with pytest.raises(ZeroDivisionError):
        F8.zero / F8.zero


def _digitwise(F, a, b, sign=1):
    """Coefficient-wise a + sign * b mod p, the definition of field addition."""
    pairs = zip(_coeffs_of(a, F.p, F.k), _coeffs_of(b, F.p, F.k))
    return _code_of([(x + sign * y) % F.p for x, y in pairs], F.p)


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (3, 2), (5, 2), (3, 4), (13, 2), (5, 4)])
def test_tabled_addition_matches_coefficients_on_every_pair(p, k):
    F = make_field(p, k)
    codes = range(F.card)
    table = F.np_add_table()
    assert table.shape == (F.card, F.card)
    for a in codes:
        sums = [_digitwise(F, a, b) for b in codes]
        assert [F.add(a, b) for b in codes] == sums
        assert table[a].tolist() == sums
        assert [F.sub(a, b) for b in codes] == [_digitwise(F, a, b, -1) for b in codes]
        assert F.neg(a) == _digitwise(F, 0, a, -1)


@pytest.mark.parametrize("p,k", [(2, 12), (5, 6)])
def test_tabled_addition_matches_coefficients_on_sampled_pairs(p, k):
    F = make_field(p, k)
    rng = random.Random(p * 1000 + k)
    for _ in range(200_000):
        a, b = rng.randrange(F.card), rng.randrange(F.card)
        assert F.add(a, b) == _digitwise(F, a, b)
        assert F.sub(a, b) == _digitwise(F, a, b, -1)
        assert F.neg(a) == _digitwise(F, 0, a, -1)


def test_prime_field_tables():
    for p in (2, 3):
        F = make_field(p, 1)
        for a in range(p):
            for b in range(p):
                assert F.mul(a, b) == a * b % p
            for e in range(-2, 5):
                if a or e >= 0:
                    assert F.pow(a, e) == pow(a, e, p)
            if a:
                assert F.mul(a, F.inv(a)) == 1 and F.inv(a) == pow(a, -1, p)
        with pytest.raises(ZeroDivisionError):
            F.inv(0)


@pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (3, 2), (5, 2), (13, 2)])
def test_dense_tables_match_scalar_ops(p, k):
    F = make_field(p, k)
    codes = range(F.card)
    mul = F.np_mul_table()
    for a in codes:
        assert mul[a].tolist() == [F.mul(a, b) for b in codes]
    for e in (-1, 0, 2, 5):
        assert F.np_pow_vec(e).tolist() == [F.pow(c, e) if c or e >= 0 else 0 for c in codes]
