"""Tests for the closed-form genus and orbit-count formulas."""

import random
from collections import Counter
from fractions import Fraction
from math import gcd, isqrt

import pytest
from sympy import divisors as sympy_divisors
from sympy import factorint, isprime, n_order, primerange
from sympy.ntheory.primetest import is_strong_lucas_prp

from gk2genus import formulas as fm
from gk2genus.catalog import enumerate_instances
from gk2genus.engine import spectrum
from gk2genus.golden import GOLDEN_ROWS
from reference import (
    dihedral_quotient_even_direct,
    genus_upper_bound,
    kn_genus,
    lift_genus_fraction,
    lift_genus_tame_fraction,
    n_orbits_tame,
    point_stabilizer_quotient_direct,
    sl2_five_orbit_count_rejected,
    sl2_five_quotient_char3_direct,
    sl2_split_ext_quotient_direct,
    sl2_subfield_quotient_direct,
    sl2_two_orbit_count_rejected,
    triangle_quotient_even_direct,
    unitary_pm_orbit_count_rejected,
    unitary_pm_quotient_direct,
)

# each public closed form of formulas, and its (g_bar, N) polynomials written out
DIRECT_FORMS = {
    "point_stabilizer_quotient": point_stabilizer_quotient_direct,
    "sl2_subfield_quotient": sl2_subfield_quotient_direct,
    "sl2_split_ext_quotient": sl2_split_ext_quotient_direct,
    "unitary_pm_quotient": unitary_pm_quotient_direct,
    "sl2_five_quotient_char3": sl2_five_quotient_char3_direct,
    "dihedral_quotient_even": dihedral_quotient_even_direct,
    "triangle_quotient_even": triangle_quotient_even_direct,
}


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def closed_form(family, q, **params):
    """genus_orbits() of the one catalog instance with these parameters."""
    (inst,) = [inst for inst in enumerate_instances(q)
               if inst.family == family and inst.param_dict == params]
    return inst.genus_orbits()


def has_instance(family, q, **params):
    return any(inst.family == family and inst.param_dict == params
               for inst in enumerate_instances(q))


def test_prime_power_and_basic_invariants():
    assert fm.prime_power(8) == (2, 3)
    assert fm.prime_power(25) == (5, 2)
    with pytest.raises(ValueError):
        fm.prime_power(12)
    assert fm.hermitian_genus(4) == 6
    assert fm.hermitian_genus(9) == 36
    assert fm.m_of(4, 5) == 205
    assert fm.m_of(2, 3) == 3
    with pytest.raises(ValueError):
        fm.m_of(4, 2)


def test_total_field_genus():
    # The n = 3 member recovers the classical values of its family.
    assert kn_genus(2, 3) == 10
    assert kn_genus(3, 3) == 99
    assert kn_genus(5, 3) == 1450
    # Trivial subgroup: no quotient at all, ratio m, full orbit count.
    q, n = 4, 5
    g = fm.lift_genus(q, n, fm.hermitian_genus(q), q**3 + 1, 1)
    assert g == kn_genus(q, n)
    assert g <= genus_upper_bound(q, n)


def test_lift_genus_known_chains():
    # Elementary abelian pair of order 2 at q = 4 lifts to 72 through the
    # kernel subgroup of order 41.
    g_quot, n_orb = closed_form("elementary_abelian", 4, f=1, w=1)
    assert (g_quot, n_orb) == (2, 33)
    assert fm.lift_genus(4, 5, g_quot, n_orb, 41) == 72
    # A tame group of order 5 with quotient genus 2 lifts to 1532, and the
    # tame rule must agree with the generic rule fed by the orbit identity.
    n_orb = n_orbits_tame(4, 5, 2)
    assert n_orb == 13
    assert fm.lift_genus(4, 5, 2, 13, 1) == 1532
    assert fm.lift_genus_tame(4, 5, 2, 5, 1) == 1532


def test_lift_tame_matches_generic_rule():
    # For tame orders the two lifting routes agree for every admissible
    # kernel order, whatever the quotient genus.
    for q, n in [(2, 3), (4, 5), (5, 3), (9, 7)]:
        m = fm.m_of(q, n)
        p, _ = fm.prime_power(q)
        for order in [1, 3, 5, 7, 15, 21]:
            if order % p == 0:
                continue
            for g_quot in [0, 1, 2, 5]:
                total = (q - 1) * (q + 1) ** 2 - order * (2 * g_quot - 2)
                if total <= 0 or total % order != 0:
                    continue
                n_orb = n_orbits_tame(q, order, g_quot)
                for t in divisors(m):
                    try:
                        lifted = fm.lift_genus(q, n, g_quot, n_orb, t)
                    except ValueError:
                        with pytest.raises(ValueError):
                            fm.lift_genus_tame(q, n, g_quot, order, t)
                        continue
                    assert lifted == fm.lift_genus_tame(q, n, g_quot, order, t)


def test_integer_lifts_match_the_fraction_lifts_on_every_golden_and_formula_record():
    for q, n in sorted(GOLDEN_ROWS) + [(2**20, 3), (2**20, 5), (2**20, 7)]:
        p, _ = fm.prime_power(q)
        for rec in spectrum(q, n).records:
            args = (q, n, rec.g_bar, rec.n_orbits, rec.t)
            assert fm.lift_genus(*args) == lift_genus_fraction(*args) == rec.genus
            assert fm.lift_genus_by_degree(rec.g_bar, rec.n_orbits, rec.m_over_t) == rec.genus
            if rec.bar_order % p:
                args = (q, n, rec.g_bar, rec.bar_order, rec.t)
                assert fm.lift_genus_tame(*args) == lift_genus_tame_fraction(*args) == rec.genus


def test_lift_genus_keeps_its_checks_around_the_degree_core():
    # m = 205 at (4, 5): a kernel order that does not divide it is refused
    with pytest.raises(ValueError, match="cm_order must divide 205, got 3"):
        fm.lift_genus(4, 5, 0, 1, 3)
    # m is odd, so only a half-integral g_bar makes 2g odd: 2 + 5 * (-1) + 1 * 4 at m/t = 5
    half = Fraction(1, 2)
    for lift in (lambda: fm.lift_genus(4, 5, half, 1, 41), lambda: fm.lift_genus_by_degree(half, 1, 5)):
        with pytest.raises(ValueError, match="lifted genus must be a nonnegative integer, got 1/2"):
            lift()
    with pytest.raises(ValueError, match="lifted genus must be a nonnegative integer, got -2"):
        fm.lift_genus_by_degree(0, 0, 3)


def _same_outcome(lift, reference, *args):
    """Both return the same int, or both raise ValueError with the same text.

    Returns the kind of outcome: "int" or the reason the reference gave.
    """
    try:
        expected = reference(*args)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            lift(*args)
        assert str(info.value) == str(exc), args
        text = str(exc)
        if "got -" in text:
            return "negative"
        return "non-integral" if "/" in text.rsplit("got", 1)[-1] else text.split(" ", 1)[0]
    got = lift(*args)
    assert got == expected and type(got) is int, args
    return "int"


def test_integer_lifts_match_the_fraction_lifts_on_a_random_grid():
    rng = random.Random(20181)
    seen = Counter()
    for _ in range(4000):
        q = rng.choice((2, 3, 4, 5, 8, 9, 13, 16, 25, 27, 2**20))
        n = rng.choice((1, 3, 5, 7))
        # mostly divisors of m, and now and then a kernel order that is none
        t = rng.choice(fm.divisors_of_m(q, n)) if rng.random() < 0.9 else rng.randint(1, 12)
        # m is odd, so with t | m only a half-integral quotient genus makes 2g odd
        g_bar = rng.randint(-4, 40) if rng.random() < 0.75 else Fraction(rng.randint(-9, 81), 2)
        lift = _same_outcome(fm.lift_genus, lift_genus_fraction,
                             q, n, g_bar, rng.randint(0, 60), t)
        tame = _same_outcome(fm.lift_genus_tame, lift_genus_tame_fraction,
                             q, n, g_bar, rng.randint(1, 240), t)
        seen["lift", lift] += 1
        seen["tame", tame] += 1
    # odd 2g (non-integral), negative genera and bad arguments all occur, on both rules
    for rule in ("lift", "tame"):
        for kind in ("int", "non-integral", "negative", "cm_order"):
            assert seen[rule, kind] > 0, (rule, kind, seen)
    assert seen["tame", "tame"] > 0


def test_admissible_cm_orders():
    assert fm.admissible_cm_orders(4, 5, 1) == [1, 5, 41, 205]
    assert fm.admissible_cm_orders(4, 5, 5) == [5, 205]
    assert fm.admissible_cm_orders(2, 3, 3) == [3]
    # When 3 divides both m and q + 1 the small kernel orders drop out.
    assert fm.admissible_cm_orders(5, 3, 3) == [3, 21]
    # Coprime m and q + 1 make every divisor of m admissible for every s.
    for s in divisors(4 + 1):
        assert fm.admissible_cm_orders(4, 7, s) == divisors(fm.m_of(4, 7))


def test_is_prime_matches_sympy_below_2e5():
    for n in range(2 * 10**5):
        assert fm.is_prime(n) == isprime(n), n


@pytest.mark.parametrize("bits", [60, 90, 100, 140, 200])
def test_is_prime_matches_sympy_on_random_odd_integers(bits):
    rng = random.Random(bits)
    for _ in range(300):
        n = rng.getrandbits(bits) | 1 << (bits - 1) | 1
        assert fm.is_prime(n) == isprime(n), n


def test_is_prime_rejects_strong_pseudoprimes_to_the_first_prime_bases():
    # each fools Miller-Rabin on the first 4, 9, 12 and 13 prime bases; the
    # last is the bound from which BPSW takes over
    for n, bases in ((3215031751, 4), (3825123056546413051, 9),
                     (318665857834031151167461, 12), (3317044064679887385961981, 13)):
        assert all(fm._strong_probable_prime(n, a) for a in fm._MR_BASES[:bases])
        assert not fm.is_prime(n) and not isprime(n)
    assert fm._MR_BOUND == 3317044064679887385961981


def test_is_prime_accepts_the_97_bit_factor_of_m_at_2p20_n7():
    f = 84179842077657862011867889681
    assert f.bit_length() == 97 and fm.m_of(2**20, 7) % f == 0
    assert fm.is_prime(f) and isprime(f)


def test_strong_lucas_test_matches_sympy():
    # the small strong Lucas pseudoprimes 5459, 5777, 10877, ... are in range
    for n in range(5, 10**5, 2):
        if isqrt(n) ** 2 != n:
            assert fm._strong_lucas_probable_prime(n) == is_strong_lucas_prp(n), n


def test_divisors_and_orders_match_sympy():
    for n in range(1, 5001):
        assert fm.divisors(n) == sympy_divisors(n), n
    rng = random.Random(40)
    for _ in range(200):
        n = rng.getrandbits(40) | 1 << 39
        assert fm.divisors(n) == sympy_divisors(n), n
    for n in range(2, 400):
        for a in range(1, 60):
            if gcd(a, n) == 1:
                assert fm.multiplicative_order(a, n) == n_order(a, n), (a, n)
    with pytest.raises(ValueError):
        fm.multiplicative_order(6, 9)


def test_prime_power_takes_integer_roots():
    assert fm.prime_power(2**20) == (2, 20)
    assert fm.prime_power(3**12) == (3, 12)
    assert fm.prime_power(2**127 - 1) == (2**127 - 1, 1)
    assert fm.prime_power((2**61 - 1) ** 3) == (2**61 - 1, 3)
    for q in (-4, 0, 1, 6, 12, 36, (2**61 - 1) * (2**31 - 1)):
        with pytest.raises(ValueError, match="q must be a prime power"):
            fm.prime_power(q)


def test_divisors_of_m_falls_back_when_rho_leaves_a_composite_cofactor():
    # m(13, 29) has 43- and 44-bit prime factors that RHO_EFFORT does not split
    m = fm.m_of(13, 29)
    assert fm._factor(m, fm.RHO_EFFORT)[1] > 1
    assert list(fm.divisors_of_m(13, 29)) == sympy_divisors(m)


def test_divisors_of_m_match_sympy_on_the_pinned_rows():
    rows = [(4, 5), (4, 7), (5, 3), (5, 5), (5, 7), (9, 7), (13, 5), (25, 3)]
    rows += [(2**20, n) for n in (3, 5, 7)]
    for q, n in rows:
        assert list(fm.divisors_of_m(q, n)) == sympy_divisors(fm.m_of(q, n))


def test_elementary_abelian_quotient_values():
    assert closed_form("elementary_abelian", 4, f=1, w=1) == (2, 33)
    assert closed_form("elementary_abelian", 4, f=2, w=1) == (0, 17)
    assert closed_form("elementary_abelian", 4, f=1, w=5) == (0, 9)
    # no elation group of order 2^f > q, and no central order w outside q + 1
    assert not has_instance("elementary_abelian", 4, f=3, w=1)
    assert not has_instance("elementary_abelian", 4, f=1, w=3)
    with pytest.raises(ValueError):
        fm.point_stabilizer_quotient(4, 1, 3)


def test_sl2_two_quotient_values():
    assert closed_form("sl2_two", 4, w=1) == (0, 12)
    assert closed_form("sl2_two", 4, w=5) == (0, 4)
    assert closed_form("sl2_two", 8, w=1) == (3, 86)
    assert closed_form("sl2_two", 8, w=3) == (0, 32)
    assert closed_form("sl2_two", 8, w=9) == (0, 12)


def test_sl2_two_rejected_variant_disagrees():
    info = fm.ERRATA["sl2_two_orbit_count"]
    q, w = info["witness"]["q"], info["witness"]["w"]
    _, adopted = fm.sl2_subfield_quotient(q, 1, w)
    rejected = sl2_two_orbit_count_rejected(q, w)
    assert adopted == info["witness"]["adopted_n"]
    assert rejected == info["witness"]["rejected_n"]
    assert adopted != rejected
    # The rejected count is impossible: summing fixed points, the identity
    # contributes q^3 + 1 + q^3 - q and every other element at most q + 1,
    # which caps the orbit count well below the rejected value.
    order = 6 * w
    points = 2 * q**3 + 1 - q
    assert rejected * order > points + (order - 1) * (q + 1)
    assert adopted * order <= points + (order - 1) * (q + 1)


def test_dihedral_quotient_even_values():
    assert fm.dihedral_quotient_even(4, 3, 1) == (0, 12)
    assert fm.dihedral_quotient_even(4, 3, 5) == (0, 4)
    # t = 1 degenerates to the elementary abelian family with f = 1.
    for q in [4, 8, 16]:
        for w in divisors(q + 1):
            assert fm.dihedral_quotient_even(q, 1, w) == closed_form(
                "elementary_abelian", q, f=1, w=w
            )


def test_alt5_matches_subfield_family():
    # alt5 is SL(2, 4): the subfield family at k = 2
    for q in [4, 16, 64, 256]:
        for w in divisors(q + 1):
            assert closed_form("alt5", q, w=w) == fm.sl2_subfield_quotient(q, 2, w)


def test_alt4_matches_elation_semidirect():
    # alt4 is E_4 extended by C_3
    assert closed_form("alt4", 4, w=1) == (0, 7)
    for q in [4, 16, 64]:
        for w in divisors(q + 1):
            assert closed_form("alt4", q, w=w) == closed_form(
                "elation_semidirect", q, f=2, d=3, w=w
            )


def test_point_stabilizer_subsumes_even_families():
    # With mu = w the point stabilizer family reproduces the elementary
    # abelian one, and with mu = d w the semidirect one.
    for q in [4, 8, 16]:
        _, h = fm.prime_power(q)
        for w in divisors(q + 1):
            for f in range(1, h + 1):
                assert fm.point_stabilizer_quotient(q, w, f) == closed_form(
                    "elementary_abelian", q, f=f, w=w
                )
                for d in divisors(gcd(2**f - 1, q - 1)):
                    if d > 1:
                        assert fm.point_stabilizer_quotient(q, d * w, f) == closed_form(
                            "elation_semidirect", q, f=f, d=d, w=w
                        )


def test_point_stabilizer_quotient_values():
    # Cyclic tame case u = 0: full torus order q^2 - 1 gives genus 0.
    assert fm.point_stabilizer_quotient(9, 80, 0) == (0, 12)
    g, _ = fm.point_stabilizer_quotient(9, 1, 0)
    assert g == fm.hermitian_genus(9)
    with pytest.raises(ValueError):
        fm.point_stabilizer_quotient(9, 7, 0)
    with pytest.raises(ValueError):
        fm.point_stabilizer_quotient(9, 1, 3)


def test_sl2_subfield_quotient_values():
    assert fm.sl2_subfield_quotient(25, 1, 1) == (0, 132)
    assert fm.sl2_subfield_quotient(9, 1, 1) == (0, 32)
    # k = h reproduces the full special subgroup acting with two orbits on
    # the curve points, one on each short orbit of the chord stabilizer.
    g, n = fm.sl2_subfield_quotient(9, 2, 1)
    assert (g, n) == (0, 2)


def test_sl2_split_ext_quotient_values():
    assert fm.sl2_split_ext_quotient(9, 1, 1) == (0, 17)
    g, n = fm.sl2_split_ext_quotient(25, 1, 1)
    assert g == 0 and n > 0


def test_sl2_split_ext_quotient_matches_direct_form():
    # The census form equals the split extension's written-out polynomial at
    # every q = 1 (mod 4) up to 2^20, k | h with h/k even, and w | (q + 1)/2.
    # h/k even makes q = p^h an odd square, so q = 1 (mod 4) holds by itself.
    checked = 0
    for p in primerange(3, 2**10):
        h = 2
        while p**h <= 2**20:
            q = p**h
            for k in divisors(h):
                if (h // k) % 2 == 0:
                    for w in sympy_divisors((q + 1) // 2):
                        assert fm.sl2_split_ext_quotient(q, k, w) == (
                            sl2_split_ext_quotient_direct(q, k, w)
                        ), (q, k, w)
                        checked += 1
            h += 2
    assert checked > 1000


def test_unitary_pm_quotient_values_and_erratum():
    assert fm.unitary_pm_quotient(9, 2, 1) == (0, 2)
    info = fm.ERRATA["unitary_pm_orbit_count"]
    q, k, w = info["witness"]["q"], info["witness"]["k"], info["witness"]["w"]
    _, adopted = fm.unitary_pm_quotient(q, k, w)
    rejected = unitary_pm_orbit_count_rejected(q, k, w)
    assert adopted == info["witness"]["adopted_n"]
    assert rejected == info["witness"]["rejected_n"]
    # The group contains the full special subgroup, which already acts
    # transitively on both short orbits, so more than two orbits is absurd.
    assert adopted == 2
    assert rejected > 2


def test_sl2_five_quotient_char3_values():
    assert fm.sl2_five_quotient_char3(9, 1) == (0, 7)
    assert fm.sl2_five_quotient_char3(9, 5) == (0, 3)
    with pytest.raises(ValueError):
        fm.sl2_five_quotient_char3(13, 1)
    with pytest.raises(ValueError):
        fm.sl2_five_quotient_char3(5, 1)


def test_sl2_five_erratum():
    info = fm.ERRATA["sl2_five_orbit_count"]
    q, w = info["witness"]["q"], info["witness"]["w"]
    _, adopted = fm.sl2_five_quotient_char3(q, w)
    rejected = sl2_five_orbit_count_rejected(q, w)
    assert adopted == info["witness"]["adopted_n"]
    assert rejected == info["witness"]["rejected_n"]
    # The rejected long-orbit term forgets the order of the special linear
    # factor, so it overcounts whenever the group is nontrivial.
    assert rejected > adopted


def test_triangle_quotient_even_values():
    # t = 1 collapses onto the elementary abelian family with f = 1 since
    # the swap involution is an elation when the characteristic is two.
    for q in [4, 8, 16]:
        for w in divisors(q + 1):
            assert fm.triangle_quotient_even(q, 1, w) == closed_form(
                "elementary_abelian", q, f=1, w=w
            )
    g, n = fm.triangle_quotient_even(4, 5, 5)
    assert g == 0 and n == 3


def test_family_parameter_validation():
    with pytest.raises(ValueError):
        fm.sl2_subfield_quotient(7, 1, 1)
    with pytest.raises(ValueError):
        fm.sl2_subfield_quotient(8, 2, 1)
    with pytest.raises(ValueError):
        fm.sl2_subfield_quotient(4, 0, 1)
    # C_5 does not normalize an elation group of order 4 at q = 4
    assert not has_instance("elation_semidirect", 4, f=2, d=5, w=1)
    with pytest.raises(ValueError):
        fm.sl2_subfield_quotient(13, 2, 1)
    with pytest.raises(ValueError):
        fm.sl2_split_ext_quotient(9, 2, 1)
    with pytest.raises(ValueError):
        fm.unitary_pm_quotient(9, 1, 1)
    with pytest.raises(ValueError):
        fm.unitary_pm_quotient(8, 3, 1)


# q = 1 (mod 4) prime powers below this bound join the closed-form sweep.
SWEEP_ODD_BOUND = 2000


def test_every_even_family_is_integral_in_range(monkeypatch):
    # Every wild catalog instance at every even q up to 2^20, and at the
    # q = 1 (mod 4) prime powers below SWEEP_ODD_BOUND, has an integral closed
    # form equal to its written-out polynomial; and between them they call
    # every public closed form in formulas, so none is left unreachable and
    # no family loses its dispatch.
    called = set()

    def checked(name, form):
        def wrapper(*args):
            called.add(name)
            closed = form(*args)
            assert closed == DIRECT_FORMS[name](*args), (name, args)
            return closed
        return wrapper

    forms = {name for name, fn in vars(fm).items()
             if "_quotient" in name and not name.startswith("_") and callable(fn)}
    assert forms == set(DIRECT_FORMS)
    for name in forms:
        monkeypatch.setattr(fm, name, checked(name, getattr(fm, name)))
    odd = [q for q in range(5, SWEEP_ODD_BOUND, 4) if len(factorint(q)) == 1]
    swept = 0
    for q in [2**h for h in range(1, 21)] + odd:
        for inst in enumerate_instances(q, include_tame=False):
            closed = inst.genus_orbits()
            assert closed is not None, inst.label()
            assert all(type(x) is int and x >= 0 for x in closed), inst.label()
            swept += 1
    assert swept > 20000
    assert called == forms


def test_every_odd_family_is_integral_in_range():
    # each closed form equals its written-out polynomial, the point
    # stabilizers at every (mu, u), realized or not
    def same(name, *args):
        assert getattr(fm, name)(*args) == DIRECT_FORMS[name](*args), (name, args)

    for q in [5, 9, 13, 25, 29, 49]:
        p, h = fm.prime_power(q)
        for w in divisors((q + 1) // 2):
            for k in divisors(h):
                same("sl2_subfield_quotient", q, k, w)
                if (h // k) % 2 == 0:
                    same("sl2_split_ext_quotient", q, k, w)
                else:
                    same("unitary_pm_quotient", q, k, w)
            if p == 3 and (q * q - 1) % 5 == 0:
                same("sl2_five_quotient_char3", q, w)
        for mu in divisors(q * q - 1):
            for u in range(0, h + 1):
                try:
                    expected = DIRECT_FORMS["point_stabilizer_quotient"](q, mu, u)
                except ValueError:
                    # Non-integral orbit counts mark combinations that no
                    # actual subgroup realizes; they are filtered upstream.
                    with pytest.raises(ValueError):
                        fm.point_stabilizer_quotient(q, mu, u)
                else:
                    assert fm.point_stabilizer_quotient(q, mu, u) == expected
