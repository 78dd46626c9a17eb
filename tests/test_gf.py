"""Field context construction, canonical choices, arithmetic axioms."""

import itertools
import random
import sys
import tracemalloc

import numpy
import pytest
from sympy import ZZ, factorint, isprime, totient
from sympy.polys.galoistools import gf_irreducible_p, gf_pow_mod

import gk2genus
from gk2genus import gf, hermitian, mlgroup
from gk2genus.gf import _code_of, _coeffs_of, make_field, roots_of_unity
from reference import embed_codes, lex_key


def test_gf4_canonical():
    F4 = make_field(2, 2)
    assert F4.modulus == (1, 1, 1)  # x^2 + x + 1
    u = F4.gen_code
    assert sorted(F4._iter_codes_lex()) == [0, 1, 2, 3]
    assert F4.mul(u, F4.add(u, 1)) == 1


# every field with at most 1024 elements, and two at the 2^15 cap
FIELD_SIZES = [(p, k) for p in range(2, 1025) if isprime(p)
               for k in range(1, 11) if p**k <= 1024] + [(2, 15), (181, 2)]


def test_modulus_is_lex_smallest_irreducible():
    for p, k in FIELD_SIZES:
        F = make_field(p, k)
        assert gf_irreducible_p(list(reversed(F.modulus)), p, ZZ), (p, k)
        # every lex-smaller monic candidate must be reducible
        for tail in itertools.product(range(p), repeat=k):
            if tail + (1,) == F.modulus:
                break
            assert not gf_irreducible_p(list(reversed(tail + (1,))), p, ZZ), (p, k, tail)


def test_primitive_is_lex_smallest_of_max_order():
    # orders by sympy's polynomial powers modulo the modulus, not by the tables
    for p, k in FIELD_SIZES:
        F = make_field(p, k)
        n = F.card - 1
        modulus = list(reversed(F.modulus))

        def is_primitive(code):
            g = list(reversed(_coeffs_of(code, p, k)))
            return all(gf_pow_mod(g, n // r, modulus, p, ZZ) != [1] for r in factorint(n))

        assert is_primitive(F.gen_code), (p, k)
        for code in F._iter_codes_lex():
            if code == F.gen_code:
                break
            assert code == 0 or not is_primitive(code), (p, k, code)


def test_field_axioms_random():
    rng = random.Random(7)
    for p, k in [(2, 6), (5, 2), (3, 3), (13, 2)]:
        F = make_field(p, k)
        els = list(F._iter_codes_lex())
        for _ in range(200):
            a, b, c = (rng.choice(els) for _ in range(3))
            assert F.mul(F.add(a, b), c) == F.add(F.mul(a, c), F.mul(b, c))
            assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
            assert F.sub(a, a) == 0
            if b:
                assert F.mul(F.div(a, b), b) == a
                assert F.mul(b, F.inv(b)) == 1
            assert F.pow(a, F.card) == a  # Frobenius fixed field


def test_order_statistics():
    # number of elements of each multiplicative order d is totient(d)
    F = make_field(7, 2)
    counts = {}
    for a in range(1, F.card):
        counts[F.order_of(a)] = counts.get(F.order_of(a), 0) + 1
    for d, cnt in counts.items():
        assert (F.card - 1) % d == 0
        assert cnt == int(totient(d))


@pytest.mark.parametrize("p,k", [(2, 4), (3, 2), (5, 2), (7, 2), (2, 6)])
def test_order_of_matches_the_definition(p, k):
    # the smallest e >= 1 with a^e = 1, found by repeated multiplication
    F = make_field(p, k)
    for a in range(1, F.card):
        e, power = 1, a
        while power != 1:
            e, power = e + 1, F.mul(power, a)
        assert F.order_of(a) == e
    with pytest.raises(ValueError):
        F.order_of(0)


def test_roots_of_unity():
    F64 = make_field(2, 6)
    r9 = roots_of_unity(F64, 9)
    assert all(type(z) is int for z in r9)
    assert len(r9) == 9 and r9[0] == 1
    assert sum(1 for z in r9 if F64.order_of(z) == 9) == 6  # totient(9)
    r21 = roots_of_unity(F64, 21)
    # intersection of the two cyclic groups is the gcd-order group
    assert set(r9) & set(r21) == set(roots_of_unity(F64, 3))
    with pytest.raises(ValueError):
        roots_of_unity(F64, 5)


def test_embed_is_ring_hom():
    F4 = make_field(2, 2)
    F64 = make_field(2, 6)
    emb = embed_codes(F4, F64)
    for a in F4._iter_codes_lex():
        for b in F4._iter_codes_lex():
            assert emb[F4.add(a, b)] == F64.add(emb[a], emb[b])
            assert emb[F4.mul(a, b)] == F64.mul(emb[a], emb[b])
    assert emb[1] == 1


def test_embed_canonical_root_and_orders():
    F4 = make_field(2, 2)
    F64 = make_field(2, 6)
    img = embed_codes(F4, F64)[F4.gen_code]
    # image of x is a root of the small modulus, and the lex-smallest one
    mod = F4.modulus

    def mod_at(e):
        acc = 0
        for i, c in enumerate(mod):
            acc = F64.add(acc, F64.mul(F64.pow(e, i), c))
        return acc

    assert mod_at(img) == 0
    other_roots = [e for e in F64._iter_codes_lex() if mod_at(e) == 0]
    assert img == min(other_roots, key=lambda e: lex_key(F64, e))
    F25 = make_field(5, 2)
    F56 = make_field(5, 6)
    emb = embed_codes(F25, F56)
    for t in range(1, F25.card):
        assert F56.order_of(emb[t]) == F25.order_of(t)


def test_embed_frobenius_compat():
    F9 = make_field(3, 2)
    F81 = make_field(3, 4)
    emb = embed_codes(F9, F81)
    for t in F9._iter_codes_lex():
        assert emb[F9.pow(t, 3)] == F81.pow(emb[t], 3)


def test_embed_transitivity():
    F4 = make_field(2, 2)
    F16 = make_field(2, 4)
    F256 = make_field(2, 8)
    e4_16, e16_256, e4_256 = embed_codes(F4, F16), embed_codes(F16, F256), embed_codes(F4, F256)
    via = [e16_256[e4_16[a]] for a in F4._iter_codes_lex()]
    direct = [e4_256[a] for a in F4._iter_codes_lex()]
    conjugated = [e4_256[F4.mul(a, a)] for a in F4._iter_codes_lex()]
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
    for e in range(F8.card):
        assert F8.pow(e, 0) == 1
        assert F8.pow(e, 2) == F8.mul(e, e)
        assert F8.pow(e, 8) == e
    with pytest.raises(ZeroDivisionError):
        F8.div(0, 0)


def _digitwise(F, a, b, sign=1):
    """Coefficient-wise a + sign * b mod p, the definition of field addition."""
    pairs = zip(_coeffs_of(a, F.p, F.k), _coeffs_of(b, F.p, F.k))
    return _code_of([(x + sign * y) % F.p for x, y in pairs], F.p)


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (3, 2), (5, 2), (3, 4), (13, 2), (5, 4)])
def test_tabled_addition_matches_coefficients_on_every_pair(p, k):
    F = make_field(p, k)
    codes = range(F.card)
    _, table = F.flat_tables()
    assert len(table) == F.card**2 and table.typecode == "H"
    for a in codes:
        sums = [_digitwise(F, a, b) for b in codes]
        assert [F.add(a, b) for b in codes] == sums
        assert table[a * F.card : (a + 1) * F.card].tolist() == sums
        assert [F.sub(a, b) for b in codes] == [_digitwise(F, a, b, -1) for b in codes]
        assert F.neg(a) == _digitwise(F, 0, a, -1)


def test_flat_sums_are_xor_in_characteristic_two():
    F = make_field(2, 10)
    codes = numpy.arange(F.card, dtype=numpy.uint16)
    add = numpy.frombuffer(F.flat_tables()[1], dtype=numpy.uint16).reshape(F.card, F.card)
    for a in range(F.card):
        assert numpy.array_equal(add[a], codes ^ a), a


def test_flat_tables_refuse_a_field_past_the_dense_bound():
    for p, k in ((2, 11), (3, 7), (5, 5)):
        with pytest.raises(ValueError, match="field too large for dense tables"):
            make_field(p, k).flat_tables()


@pytest.mark.parametrize("p,k", [(5, 4), (3, 6), (2, 10)])
def test_flat_tables_are_built_in_their_final_buffers(p, k):
    # no temporary outgrows a row; card x card int64 index arrays and a
    # numpy -> bytes -> array copy of each table peak at 4.5-7.3x
    F = make_field(p, k)
    tracemalloc.start()
    try:
        mul, add = F.flat_tables()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table_bytes = mul.itemsize * len(mul) + add.itemsize * len(add)
    assert table_bytes == 4 * F.card**2
    assert peak <= 1.1 * table_bytes, peak / table_bytes


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
    mul, _ = F.flat_tables()
    assert len(mul) == F.card**2 and mul.typecode == "H"
    for a in codes:
        assert mul[a * F.card : (a + 1) * F.card].tolist() == [F.mul(a, b) for b in codes]
    for e in (-1, 0, 2, 5):
        assert F.np_pow_vec(e).tolist() == [F.pow(c, e) if c or e >= 0 else 0 for c in codes]


def test_package_exports_resolve():
    for name in gk2genus.__all__:
        assert hasattr(gk2genus, name), name


def test_every_module_shares_the_one_numpy_handle():
    assert gf.np is hermitian.np is mlgroup.np is sys.modules["numpy"] is numpy
    # an already imported numpy is returned unchanged
    assert gf._lazy_numpy() is numpy
