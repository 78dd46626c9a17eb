"""Tests for the curve automorphism group M_ell and the tower group."""

import math
import random
from collections import Counter

import pytest

from gk2genus.mlgroup import (
    DetPreimage,
    Subgroup,
    closure,
    group_from_triple,
    kn_context,
    ml_context,
    triple_of,
)


def test_group_axioms_random():
    rng = random.Random(5)
    for q in (3, 4, 5):
        ctx = ml_context(q).structure()
        els = [ctx.random_element(rng) for _ in range(30)]
        for g in els:
            assert ctx.is_element(g)
            assert ctx.compose(g, ctx.inverse(g)) == ctx.identity
            assert ctx.compose(ctx.inverse(g), g) == ctx.identity
            assert ctx.compose(g, ctx.identity) == g
        for _ in range(60):
            g1, g2, g3 = rng.choice(els), rng.choice(els), rng.choice(els)
            left = ctx.compose(ctx.compose(g1, g2), g3)
            right = ctx.compose(g1, ctx.compose(g2, g3))
            assert left == right
            assert ctx.is_element(ctx.compose(g1, g2))


def test_element_count_and_det():
    for q in (2, 3, 4):
        ctx = ml_context(q)
        els = list(ctx.iter_elements())
        assert len(els) == (q**3 - q) * (q + 1) == ctx.order
        assert len(set(els)) == len(els)
        dets = {ctx.det_rho(g) for g in els}
        assert dets == ctx.mu_set
        sl = [g for g in els if ctx.det_rho(g) == 1]
        assert len(sl) == q**3 - q


def test_standard_subgroups():
    for q in (2, 3, 4, 5, 8, 9):
        ctx = ml_context(q).structure()
        assert len(ctx.s_ell) == q**3 - q
        assert len(ctx.z_elements) == q + 1
        assert len(ctx.e_q) == q
        assert len(ctx.torus) == q * q - 1
        assert len(ctx.wcoset) == q * q - 1
        assert ctx.order_of(ctx.torus_gen) == q * q - 1
        # Z is central: commutes with everything we try
        rng = random.Random(q)
        for _ in range(20):
            g = ctx.random_element(rng)
            assert ctx.compose(g, ctx.z_gen) == ctx.compose(ctx.z_gen, g)
        # Z fixes every chord point
        for pt in ctx.pts.points[: q + 1]:
            assert ctx.apply(ctx.z_gen, pt) == pt
        # S_ell is closed and normal under a few random conjugations
        for u in ctx.s_ell_gens:
            assert u in ctx.s_ell_set
        for _ in range(20):
            g = ctx.random_element(rng)
            s = rng.choice(ctx.s_ell)
            conj = ctx.compose(ctx.compose(g, s), ctx.inverse(g))
            assert conj in ctx.s_ell_set


def test_s_ell_generators_generate():
    for q in (2, 3, 4, 5, 8, 9):
        ctx = ml_context(q).structure()
        cl = closure(ctx.s_ell_gens, ctx.compose, ctx.identity)
        assert cl == set(ctx.s_ell_set)


def test_beta_and_z1_odd_q():
    for q in (5, 9, 13):
        ctx = ml_context(q).structure()
        assert ctx.det_rho(ctx.beta) == ctx.F.neg(1)
        assert ctx.compose(ctx.beta, ctx.beta) == ctx.identity
        assert len(ctx.z1_elements) == (q + 1) // 2
        # beta normalizes S_ell
        for s in ctx.s_ell[:50]:
            conj = ctx.compose(ctx.compose(ctx.beta, s), ctx.beta)
            assert conj in ctx.s_ell_set


def test_classification_total_small_q():
    expected_tags = {"A", "B1", "B2", "C", "E"}
    for q in (2, 3, 4):
        ctx = ml_context(q)
        seen = Counter()
        for g in ctx.iter_elements():
            if g == ctx.identity:
                continue
            rec = ctx.classify(g)
            seen[rec.tag] += 1
            assert rec.tag in expected_tags
            assert rec.fix_h == ctx.count_fixed_brute(g)
        assert sum(seen.values()) == ctx.order - 1


def test_classification_order_constraints():
    rng = random.Random(17)
    for q in (4, 5, 9):
        ctx = ml_context(q).structure()
        p = ctx.p
        for _ in range(120):
            g = ctx.random_element(rng)
            if g == ctx.identity:
                continue
            rec = ctx.classify(g)
            o = ctx.order_of(g)
            if rec.tag == "A":
                assert (q + 1) % o == 0
            elif rec.tag == "B1":
                assert (q + 1) % o == 0
            elif rec.tag == "B2":
                assert (q * q - 1) % o == 0 and (q + 1) % o != 0
            elif rec.tag == "C":
                assert o == p
            else:
                assert o % p == 0 and o != p and (q + 1) % (o // p) == 0


def test_fixed_points_match_brute_random():
    rng = random.Random(23)
    for q in (5, 8, 9, 13):
        ctx = ml_context(q).structure()
        for _ in range(60):
            g = ctx.random_element(rng)
            assert ctx.fixed_points_on_h(g) == ctx.count_fixed_brute(g)


def test_orbit_counts_known_groups():
    for q in (2, 3, 4, 5):
        ctx = ml_context(q).structure()
        assert ctx.orbit_counts([]) == (q + 1, q**3 - q)
        assert ctx.orbit_counts(ctx.s_ell_gens + [ctx.z_gen]) == (1, 1)
        assert ctx.orbit_counts([ctx.z_gen]) == (q + 1, (q**3 - q) // (q + 1))


def test_orbit_counts_burnside_random():
    rng = random.Random(31)
    for q in (3, 4, 5):
        ctx = ml_context(q).structure()
        for _ in range(8):
            sub = ctx.random_subgroup(rng)
            n1, n2 = sub.orbit_counts()
            total = sum(ctx.fixed_points_on_h(g) for g in sub.elements)
            assert total % sub.order == 0
            assert n1 + n2 == total // sub.order


def test_tame_quotient_genus_known():
    ctx = ml_context(4).structure()
    # H_4 has genus 6; the center C_5 fixes the 5 chord points on the curve
    zsub = Subgroup.from_closure(ctx, [ctx.z_gen])
    assert ctx.tame_quotient_genus(zsub.elements) == 0
    tsub = Subgroup.from_closure(ctx, [ctx.torus_gen])
    assert tsub.order == 15
    assert ctx.tame_quotient_genus(tsub.elements) == 0
    with pytest.raises(ValueError):
        ctx.tame_quotient_genus(ctx.s_ell)  # wild: p divides the order


def test_tame_genus_matches_riemann_hurwitz_brute():
    rng = random.Random(41)
    for q in (3, 5):
        ctx = ml_context(q).structure()
        gh = q * (q - 1) // 2
        for _ in range(10):
            sub = ctx.random_subgroup(rng)
            if sub.order % ctx.p == 0:
                continue
            total = sum(ctx.count_fixed_brute(g) for g in sub.elements if g != ctx.identity)
            expect = 1 + (2 * gh - 2 - total) // (2 * sub.order)
            assert ctx.tame_quotient_genus(sub.elements) == expect


def test_closure_guard():
    ctx = ml_context(4).structure()
    with pytest.raises(ValueError):
        closure(ctx.s_ell_gens, ctx.compose, ctx.identity, maxsize=10)


def test_subgroup_det_preimage():
    ctx = ml_context(4).structure()
    sub = DetPreimage(ctx, ctx.s_ell_gens + [ctx.z_gen])
    assert sub.order == ctx.order
    assert sub.n_orbits() == 2
    rng = random.Random(3)
    for _ in range(30):
        assert ctx.random_element(rng) in sub


def test_det_preimage_requires_s_ell_generators():
    ctx = ml_context(5).structure()
    with pytest.raises(ValueError):
        DetPreimage(ctx, ctx.s_ell_gens[1:] + [ctx.z_gen])
    with pytest.raises(ValueError):
        DetPreimage(ctx, [ctx.z_gen, ctx.beta])


def test_det_image_and_center_intersection():
    ctx = ml_context(5).structure()
    sub = Subgroup.from_closure(ctx, [ctx.z_gen])
    assert sub.det_image_order() == 3  # det of the center generator is a square
    assert sub.z_intersection_order() == 6
    ssub = Subgroup.from_closure(ctx, ctx.s_ell_gens)
    assert ssub.det_image_order() == 1
    assert ssub.z_intersection_order() == 2  # -1 is the only central element in S_ell


def test_kn_group_order_and_pi():
    for (q, n) in ((2, 3), (2, 5), (4, 3)):
        kn = kn_context(q, n)
        els = list(kn.iter_elements())
        assert len(els) == (q**3 - q) * (q**n + 1)
        assert kn.m == (q**n + 1) // (q + 1)
        ims = {kn.pi(g) for g in els}
        assert len(ims) == kn.ml.order
        ker = {g for g in els if kn.pi(g) == kn.identity}
        assert ker == set(kn.c_m_elements())
        assert len(ker) == kn.m


def test_kn_pi_rho_homomorphisms():
    rng = random.Random(59)
    for (q, n) in ((2, 3), (4, 3)):
        kn = kn_context(q, n)
        els = list(kn.iter_elements())
        for _ in range(150):
            g1, g2 = rng.choice(els), rng.choice(els)
            g12 = kn.compose(g1, g2)
            assert kn.pi(g12) == kn.ml.compose(kn.pi(g1), kn.pi(g2))
            assert kn.rho(g12) == kn.FB.mul(kn.rho(g1), kn.rho(g2))
            assert kn.compose(g1, kn.inverse(g1)) == kn.identity


def test_triple_of_full_group():
    for (q, n) in ((2, 3), (2, 5), (4, 3)):
        kn = kn_context(q, n)
        full = set(kn.iter_elements())
        spec = triple_of(kn, full)
        assert spec.r == q**n + 1
        assert spec.s == q + 1
        assert spec.r == spec.s * math.gcd(spec.r, kn.m)
        assert len(spec.bar_l) == kn.ml.order
        assert len(spec.l1) == (q**3 - q) * kn.m


def test_triple_roundtrip_full_and_random():
    for (q, n) in ((2, 3), (2, 5), (4, 3)):
        kn = kn_context(q, n)
        full = set(kn.iter_elements())
        spec = triple_of(kn, full)
        assert group_from_triple(kn, spec) == full
    kn = kn_context(2, 5)
    els = list(kn.iter_elements())
    rng = random.Random(61)
    for _ in range(12):
        gens = [rng.choice(els), rng.choice(els)]
        sub = closure(gens, kn.compose, kn.identity)
        spec = triple_of(kn, sub)
        assert group_from_triple(kn, spec) == sub


def test_triple_character_identity():
    # r = s * gcd(r, m) for every cyclic character image
    kn = kn_context(2, 5)
    els = list(kn.iter_elements())
    rng = random.Random(67)
    for _ in range(15):
        sub = closure([rng.choice(els)], kn.compose, kn.identity)
        spec = triple_of(kn, sub)
        assert spec.r == spec.s * math.gcd(spec.r, kn.m)
