"""Tests for the curve automorphism group M_ell and the tower group."""

import itertools
import math
import random
from collections import Counter

import numpy as np
import pytest

from gk2genus.engine import _burnside_orbits
from gk2genus.formulas import prime_power
from gk2genus.gf import make_field, roots_of_unity
from gk2genus.golden import GOLDEN_ROWS
from gk2genus.mlgroup import DetPreimage, MlContext, Subgroup, closure, ml_context
from reference import (
    apply,
    classify_block,
    classify_by_field,
    compose_by_field,
    count_fixed_brute,
    embed_codes,
    group_from_triple,
    kn_context,
    random_element,
    random_subgroup,
    torus_elements,
    triple_of,
    type_table_by_eigenvectors,
    z_elements,
    z_intersection_order,
)

PRIME_POWERS_TO_32 = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32)


def test_group_axioms_random():
    rng = random.Random(5)
    # p = 2 adds by XOR, p = 3 by Zech logs; q = 32 has the largest tables
    for q in (2, 3, 4, 5, 9, 25, 27, 32):
        ctx = ml_context(q)
        els = [random_element(ctx, rng) for _ in range(30)]
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


@pytest.mark.parametrize("q", PRIME_POWERS_TO_32)
def test_tabled_product_and_type_lookup_match_the_field_calls(q):
    ctx = ml_context(q)
    rng = random.Random(q)
    # every element with a = 0 or c = 0, at a random determinant
    axes = [(a, c, rng.choice(ctx.mu)) for a, c, _ in ctx.s_ell if a == 0 or c == 0]
    assert len(axes) == 2 * (q + 1)
    els = [ctx.identity] + axes + [random_element(ctx, rng) for _ in range(40)]
    for g in els:
        h = ctx.inverse(g)
        assert ctx.is_element(h)
        assert compose_by_field(ctx, g, h) == compose_by_field(ctx, h, g) == ctx.identity
        assert ctx.compose(g, h) == ctx.compose(h, g) == ctx.identity
        assert ctx.compose(g, ctx.identity) == ctx.compose(ctx.identity, g) == g
        if g != ctx.identity:
            assert ctx.classify(g) == classify_by_field(ctx, g)
    for _ in range(300):
        g1, g2 = rng.choice(els), rng.choice(els)
        assert ctx.compose(g1, g2) == compose_by_field(ctx, g1, g2)


@pytest.mark.parametrize("q", [2, 9, 32])
def test_dense_tables_are_read_only_two_byte_views_of_the_flat_tables(q):
    ctx = ml_context(q)
    for view, flat in ((ctx.MUL, ctx.mul_flat), (ctx.ADD, ctx.add_flat)):
        assert view.dtype == np.uint16
        assert view.shape == (ctx.card, ctx.card)
        assert np.shares_memory(view, flat)
        assert view.ravel().tolist() == flat.tolist()
        assert not view.flags.writeable
        with pytest.raises(ValueError):
            view[1, 1] = 0


def test_element_count_and_det():
    for q in (2, 3, 4):
        ctx = ml_context(q)
        els = list(ctx.iter_elements())
        assert len(els) == (q**3 - q) * (q + 1) == ctx.order
        assert len(set(els)) == len(els)
        dets = {g[2] for g in els}
        assert dets == set(ctx.mu)
        sl = [g for g in els if g[2] == 1]
        assert len(sl) == q**3 - q


def test_standard_subgroups():
    for q in (2, 3, 4, 5, 8, 9):
        ctx = ml_context(q)
        assert len(ctx.s_ell) == q**3 - q
        assert len(z_elements(ctx)) == q + 1
        assert len(torus_elements(ctx)) == q * q - 1
        assert ctx.order_of(ctx.torus_gen) == q * q - 1
        # Z is central: commutes with everything we try
        rng = random.Random(q)
        for _ in range(20):
            g = random_element(ctx, rng)
            assert ctx.compose(g, ctx.z_gen) == ctx.compose(ctx.z_gen, g)
        # Z fixes every chord point
        for pt in ctx.pts.points[: q + 1]:
            assert apply(ctx, ctx.z_gen, pt) == pt
        # S_ell is closed and normal under a few random conjugations
        s_ell = set(ctx.s_ell)
        for u in ctx.s_ell_gens:
            assert u in s_ell
        for _ in range(20):
            g = random_element(ctx, rng)
            s = rng.choice(ctx.s_ell)
            conj = ctx.compose(ctx.compose(g, s), ctx.inverse(g))
            assert conj in s_ell


def test_standard_subgroups_match_their_definitions():
    for q in (2, 3, 4, 5, 8, 9, 13):
        ctx = ml_context(q)
        R0, R1 = ctx.R0, ctx.R1
        torus, wcoset, e_q, e_r1 = set(), set(), set(), set()
        for g in ctx.iter_elements():
            r0, r1 = apply(ctx, g, R0), apply(ctx, g, R1)
            if (r0, r1) == (R0, R1):
                torus.add(g)
            if (r0, r1) == (R1, R0):
                wcoset.add(g)
            if g[2] == 1 and ctx.power(g, ctx.p) == ctx.identity:
                if r0 == R0:
                    e_q.add(g)
                if r1 == R1:
                    e_r1.add(g)
        assert set(torus_elements(ctx)) == torus
        F, units = ctx.F, range(1, ctx.card)
        anti = {ctx.frame_element(((0, al), (F.neg(F.pow(al, -q)), 0))) for al in units}
        assert anti == wcoset
        upper = {ctx.frame_element(((1, b), (0, 1))) for b in units if ctx.frobq[b] == b}
        assert upper | {ctx.identity} == e_q
        lower = {ctx.frame_element(((1, 0), (b, 1))) for b in units if ctx.frobq[b] == b}
        assert lower | {ctx.identity} == e_r1
        assert ctx.swap in wcoset
        assert ctx.swap != ctx.identity and ctx.compose(ctx.swap, ctx.swap) == ctx.identity
        # it inverts the torus elements of order dividing q - 1
        rot = ctx.power(ctx.torus_gen, q + 1)
        swapped = ctx.compose(ctx.compose(ctx.swap, rot), ctx.swap)
        assert swapped == ctx.inverse(rot)


def test_s_ell_generators_generate():
    for q in (2, 3, 4, 5, 8, 9):
        ctx = ml_context(q)
        cl = closure(ctx.s_ell_gens, ctx.compose, ctx.identity)
        assert cl == set(ctx.s_ell)


@pytest.mark.parametrize("q", PRIME_POWERS_TO_32)
def test_s_ell_generators_are_the_standard_sl2_generators(q):
    ctx = ml_context(q)
    assert ctx.s_ell_gens == ctx.sl2_gens(ctx.h)
    assert len(ctx.s_ell_gens) == ctx.h + 1


@pytest.mark.parametrize("q", [q for q in PRIME_POWERS_TO_32 if prime_power(q)[1] > 1])
def test_standard_sl2_generators_of_each_proper_subfield(q):
    ctx = ml_context(q)
    for k in range(1, ctx.h):
        if ctx.h % k == 0:
            els = closure(ctx.sl2_gens(k), ctx.compose, ctx.identity)
            assert len(els) == ctx.p**k * (ctx.p ** (2 * k) - 1)
            assert all(g[2] == 1 for g in els)


def test_beta_and_z1_odd_q():
    for q in (5, 9, 13):
        ctx = ml_context(q)
        assert ctx.beta[2] == ctx.F.neg(1)
        assert ctx.compose(ctx.beta, ctx.beta) == ctx.identity
        assert len(ctx.z1_elements) == (q + 1) // 2
        # beta normalizes S_ell
        s_ell = set(ctx.s_ell)
        for s in ctx.s_ell[:50]:
            conj = ctx.compose(ctx.compose(ctx.beta, s), ctx.beta)
            assert conj in s_ell


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
            assert rec.fix_h == count_fixed_brute(ctx, g)
        assert sum(seen.values()) == ctx.order - 1


def test_classification_order_constraints():
    # every nonidentity element: fix_h alone cannot tell C from E
    for q in (3, 4, 5, 7, 8, 9):
        ctx = ml_context(q)
        p = ctx.p
        for g in ctx.iter_elements():
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


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32])
def test_type_table_matches_the_chord_block(q):
    # every prime power q <= 32, the whole domain of MlContext: the eigenvalue
    # rule against the eigenvector geometry, key by key
    ctx = ml_context(q)
    assert len(ctx._types) == q * q + 2 * q
    assert ctx._types == type_table_by_eigenvectors(ctx)
    if q <= 13:
        elements = ctx.iter_elements()
    elif q in (16, 25):
        rng = random.Random(q)
        elements = (random_element(ctx, rng) for _ in range(20000))
    else:
        elements = ()
    for g in elements:
        if g != ctx.identity:
            assert ctx.classify(g) == classify_block(ctx, g), g


@pytest.mark.parametrize("q", [2, 9])
def test_identity_has_no_type_and_fixes_every_point(q):
    ctx = ml_context(q)
    with pytest.raises(ValueError):
        ctx.classify(ctx.identity)
    # the census leaves the identity out, and the Burnside average counts it
    # as fixing every point: the trivial group has q^3 + 1 orbits
    trivial = Subgroup.from_closure(ctx, [])
    assert trivial.census == Counter()
    assert _burnside_orbits(trivial) == q**3 + 1


def test_fixed_points_match_brute_random():
    rng = random.Random(23)
    for q in (5, 8, 9, 13):
        ctx = ml_context(q)
        for _ in range(60):
            g = random_element(ctx, rng)
            if g != ctx.identity:
                rec = ctx.classify(g)
                assert rec.fix_h == ctx.fix_h[rec.tag] == count_fixed_brute(ctx, g)


def test_orbit_counts_known_groups():
    for q in (2, 3, 4, 5):
        ctx = ml_context(q)
        assert ctx.orbit_counts([]) == (q + 1, q**3 - q)
        assert ctx.orbit_counts(ctx.s_ell_gens + [ctx.z_gen]) == (1, 1)
        assert ctx.orbit_counts([ctx.z_gen]) == (q + 1, (q**3 - q) // (q + 1))


def _bfs_orbit_counts(ctx, gens):
    """(chord orbits, affine orbits) by breadth-first search over perm_of."""
    perms = [ctx.perm_of(g).tolist() for g in gens]
    n, nch = len(ctx.pts), ctx.pts.chord_count
    seen = [False] * n
    counts = [0, 0]
    for start in range(n):
        if seen[start]:
            continue
        counts[start >= nch] += 1
        seen[start] = True
        frontier = [start]
        while frontier:
            nxt = []
            for i in frontier:
                for P in perms:
                    j = P[i]
                    if not seen[j]:
                        seen[j] = True
                        nxt.append(j)
            frontier = nxt
    return tuple(counts)


def test_perm_of_matches_apply():
    rng = random.Random(17)
    for q in (4, 9):
        ctx = ml_context(q)
        index = {pt: i for i, pt in enumerate(ctx.pts.points)}
        for _ in range(5):
            g = random_element(ctx, rng)
            expected = [index[apply(ctx, g, pt)] for pt in ctx.pts.points]
            assert ctx.perm_of(g).tolist() == expected


def test_orbit_counts_match_bfs_on_catalog_instances():
    from gk2genus.catalog import enumerate_instances, instantiate

    for q in (4, 5, 9, 13):
        ctx = ml_context(q)
        for inst in enumerate_instances(q):
            gens = instantiate(inst).gens
            assert ctx.orbit_counts(gens) == _bfs_orbit_counts(ctx, gens), inst.label()


def _catalog_generator_lists(q):
    from gk2genus.catalog import enumerate_instances, instantiate

    return [instantiate(inst).gens for inst in enumerate_instances(q)]


def test_orbit_counts_match_bfs_on_random_generators_at_q25():
    ctx = ml_context(25)
    # the memoized cycle labels of the catalog generators must not leak into
    # the counts of other generator lists
    for gens in _catalog_generator_lists(25):
        ctx.orbit_counts(gens)
    rng = random.Random(41)
    for _ in range(24):
        gens = [random_element(ctx, rng) for _ in range(rng.randint(1, 3))]
        assert ctx.orbit_counts(gens) == _bfs_orbit_counts(ctx, gens)


def test_orbit_counts_run_perm_of_once_per_distinct_generator():
    ctx = MlContext(13)
    # a fresh context's memo holds the structure search's generators
    ctx._cycle_heads.clear()
    calls = Counter()
    perm_of = ctx.perm_of

    def counted(g):
        calls[g] += 1
        return perm_of(g)

    ctx.perm_of = counted
    gen_lists = _catalog_generator_lists(13)
    first = [ctx.orbit_counts(gens) for gens in gen_lists]
    distinct = {g for gens in gen_lists for g in gens}
    assert sum(len(gens) for gens in gen_lists) > len(distinct)
    assert set(calls) == distinct and sum(calls.values()) == len(distinct)
    calls.clear()
    assert [ctx.orbit_counts(gens) for gens in gen_lists] == first
    assert not calls


def test_orbit_counts_do_not_depend_on_the_order_the_memo_fills():
    gen_lists = _catalog_generator_lists(13)
    forward = [ml_context(13).orbit_counts(gens) for gens in gen_lists]
    ctx = MlContext(13)
    ctx._cycle_heads.clear()
    backward = [ctx.orbit_counts(gens) for gens in reversed(gen_lists)]
    assert backward[::-1] == forward


@pytest.mark.parametrize("q", (4, 9, 25, 32))
def test_orbit_counts_start_from_the_first_generators_labels(q):
    ctx = ml_context(q)
    rng = random.Random(q)
    one, z, torus, swap = ctx.identity, ctx.z_gen, ctx.torus_gen, ctx.swap
    u, g = ctx.s_ell_gens[-1], random_element(ctx, rng)
    # each list's counts do not depend on its order, so one search per set
    gen_sets = [
        [one, torus],  # the identity first: its labels are the points
        [z, torus],
        [torus, ctx.power(torus, 2)],  # the second merges nothing
        [torus, one, z],  # nor do the identity and the center
        [torus, swap, torus],  # a repeated generator
        [z, u, swap],
        [one, z, torus, swap],
        [torus, ctx.power(torus, 3), u, u],
        [g, z, swap, one],
    ]
    for gens in gen_sets:
        ctx.orbit_counts(gens)
    snapshot = {h: heads.copy() for h, heads in ctx._cycle_heads.items()}
    seen = set()
    for gens in gen_sets:
        expected = _bfs_orbit_counts(ctx, gens)
        for perm in itertools.permutations(gens):
            assert ctx.orbit_counts(list(perm)) == expected, perm
        seen.add(expected)
    assert len(seen) >= 3  # not every set is transitive
    for gens in gen_sets[2:4]:
        assert ctx.orbit_counts(gens) == ctx.orbit_counts([torus])
    assert ctx.orbit_counts([one]) == ctx.orbit_counts([]) == (q + 1, q**3 - q)
    assert ctx._cycle_heads.keys() == snapshot.keys()
    for h, heads in ctx._cycle_heads.items():
        assert np.array_equal(heads, snapshot[h])


def test_memoized_cycle_labels_are_read_only_two_byte_arrays():
    for q in (13, 32):
        ctx = ml_context(q)
        # the largest context, q = 32, has 32,769 points: every label fits 2 bytes
        for gens in ([ctx.torus_gen], ctx.s_ell_gens + [ctx.torus_gen]):
            assert ctx.orbit_counts(gens) == _bfs_orbit_counts(ctx, gens)
        assert len(ctx._cycle_heads) >= len(ctx.s_ell_gens) + 1
        for heads in ctx._cycle_heads.values():
            assert (heads.dtype.kind, heads.itemsize) == ("u", 2)
            assert heads.shape == (len(ctx.pts),)
            assert not heads.flags.writeable
            with pytest.raises(ValueError):
                heads[0] = 1


def test_orbit_counts_on_the_longest_cycles_and_on_no_generators():
    q = 25
    ctx = ml_context(q)
    # the torus generator has order q^2 - 1 = 624 and cycles of that length
    assert ctx.orbit_counts([ctx.torus_gen]) == _bfs_orbit_counts(ctx, [ctx.torus_gen])
    assert ctx.orbit_counts([]) == (q + 1, q**3 - q)


def test_orbit_counts_burnside_random():
    rng = random.Random(31)
    for q in (3, 4, 5):
        ctx = ml_context(q)
        for _ in range(8):
            sub = random_subgroup(ctx, rng)
            n1, n2 = sub.orbit_counts()
            assert sub.census.total() == sub.order - 1
            total = len(ctx.pts) + sum(ctx.fix_h[tag] * k for tag, k in sub.census.items())
            assert total % sub.order == 0
            assert n1 + n2 == total // sub.order


def test_tame_quotient_genus_known():
    ctx = ml_context(4)
    # H_4 has genus 6; the center C_5 fixes the 5 chord points on the curve
    zsub = Subgroup.from_closure(ctx, [ctx.z_gen])
    assert ctx.tame_quotient_genus(zsub.census) == 0
    tsub = Subgroup.from_closure(ctx, [ctx.torus_gen])
    assert tsub.order == 15
    assert ctx.tame_quotient_genus(tsub.census) == 0
    with pytest.raises(ValueError):
        ctx.tame_quotient_genus(ctx.census(ctx.s_ell))  # wild: p divides the order


def test_tame_genus_matches_riemann_hurwitz_brute():
    rng = random.Random(41)
    for q in (3, 5):
        ctx = ml_context(q)
        gh = q * (q - 1) // 2
        for _ in range(10):
            sub = random_subgroup(ctx, rng)
            if sub.order % ctx.p == 0:
                continue
            total = sum(count_fixed_brute(ctx, g) for g in sub.elements if g != ctx.identity)
            expect = 1 + (2 * gh - 2 - total) // (2 * sub.order)
            assert ctx.tame_quotient_genus(sub.census) == sub.tame_genus() == expect


class _CountingContext(MlContext):
    """MlContext that counts its compose and inverse calls."""

    calls = Counter()

    def compose(self, g1, g2):
        self.calls["compose"] += 1
        return super().compose(g1, g2)

    def inverse(self, g):
        self.calls["inverse"] += 1
        return super().inverse(g)


@pytest.mark.parametrize("q", [4, 5, 9])
def test_power_is_repeated_compose_at_one_product_per_bit(q):
    ctx = _CountingContext(q)
    ref = ml_context(q)
    elation = ref.sl2_gens(1)[0]
    gens = [ref.torus_gen, elation, ref.compose(ref.torus_gen, elation)]
    for g in gens:
        order = ref.order_of(g)
        acc = ref.identity  # g^e as e-fold compose
        for e in range(2 * order + 1):
            ctx.calls.clear()
            assert ctx.power(g, e) == acc, (g, e)
            # one squaring per bit above the lowest set bit, one product per
            # further set bit
            cost = e.bit_length() + bin(e).count("1") - 2 if e else 0
            assert ctx.calls == Counter({"compose": cost} if cost else {}), (g, e)
            if e:
                ctx.calls.clear()
                inv = ctx.power(g, -e)
                assert ctx.calls["inverse"] == 1
                assert inv == ref.power(ref.inverse(g), e) == ref.inverse(acc)
            acc = ref.compose(acc, g)
        ctx.calls.clear()
        ctx.power(g, 2)
        assert ctx.calls["compose"] == 1


def test_closure_guard():
    ctx = ml_context(4)
    with pytest.raises(ValueError):
        closure(ctx.s_ell_gens, ctx.compose, ctx.identity, maxsize=10)


def _bfs_closure(gens, mul, identity):
    """Reference closure: multiply every generator by every boundary element."""
    els = {identity, *gens}
    bdy = list(els)
    while bdy:
        new = []
        for A in gens:
            for B in bdy:
                C = mul(A, B)
                if C not in els:
                    els.add(C)
                    new.append(C)
        bdy = new
    return els


def _closure_cases():
    """(name, compose, identity, generator lists) over M_ell and the tower group.

    Each context gets seeded lists of 1-4 generators, among them a duplicate,
    the identity, and a generator already inside the span of the ones before.
    """
    rng = random.Random(83)
    contexts = [("M_ell q=%d" % q, ml_context(q)) for q in (2, 3, 4, 5, 7, 8, 9)]
    contexts += [("K_n q=%d n=%d" % qn, kn_context(*qn)) for qn in ((2, 3), (5, 3))]
    cases = []
    for name, ctx in contexts:
        els = list(ctx.iter_elements())

        def pick():
            return rng.choice(els)

        g1, g2 = pick(), pick()
        lists = [
            [g1],
            [g1, g1],
            [ctx.identity],
            [ctx.identity, g2, g1],
            [g1, g2, ctx.compose(g2, g1)],
            [g1, ctx.compose(g1, g1), g2, g1],
        ]
        lists += [[pick() for _ in range(rng.randint(1, 4))] for _ in range(4)]
        cases.append((name, ctx.compose, ctx.identity, lists))
    return cases


def test_closure_matches_the_breadth_first_reference():
    ctx = ml_context(4)
    assert closure([], ctx.compose, ctx.identity) == {ctx.identity}
    for name, mul, identity, lists in _closure_cases():
        for gens in lists:
            expected = _bfs_closure(gens, mul, identity)
            assert closure(gens, mul, identity) == expected, (name, gens)


def test_closure_guard_raises_exactly_past_maxsize():
    # the bound is exact, so catalog.instantiate's bound stops a wrong recipe
    # early instead of closing a larger group
    for name, mul, identity, lists in _closure_cases():
        for gens in lists:
            order = len(_bfs_closure(gens, mul, identity))
            assert len(closure(gens, mul, identity, maxsize=order)) == order
            with pytest.raises(ValueError, match="closure exceeded %d" % (order - 1)):
                closure(gens, mul, identity, maxsize=order - 1)


def test_subgroup_det_preimage():
    ctx = ml_context(4)
    sub = DetPreimage(ctx, ctx.s_ell_gens + [ctx.z_gen])
    assert sub.order == ctx.order
    assert sub.n_orbits() == 2
    rng = random.Random(3)
    for _ in range(30):
        assert random_element(ctx, rng) in sub


def test_det_preimage_requires_s_ell_generators():
    ctx = ml_context(5)
    with pytest.raises(ValueError):
        DetPreimage(ctx, ctx.s_ell_gens[1:] + [ctx.z_gen])
    with pytest.raises(ValueError):
        DetPreimage(ctx, [ctx.z_gen, ctx.beta])


def test_det_image_and_center_intersection():
    ctx = ml_context(5)
    sub = Subgroup.from_closure(ctx, [ctx.z_gen])
    assert sub.det_image_order() == 3  # det of the center generator is a square
    assert z_intersection_order(sub) == 6
    ssub = Subgroup.from_closure(ctx, ctx.s_ell_gens)
    assert ssub.det_image_order() == 1
    assert z_intersection_order(ssub) == 2  # -1 is the only central element in S_ell


def test_kn_group_order_and_pi():
    for (q, n) in ((2, 3), (2, 5), (4, 3)):
        kn = kn_context(q, n)
        els = list(kn.iter_elements())
        assert len(els) == (q**3 - q) * (q**n + 1)
        assert kn.m == (q**n + 1) // (q + 1)
        ims = {kn.pi(g) for g in els}
        assert len(ims) == kn.ml.order
        ker = {g for g in els if kn.pi(g) == kn.ml.identity}
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
            assert kn.rho(g12) == (kn.rho(g1) + kn.rho(g2)) % kn.N
            assert kn.compose(g1, kn.inverse(g1)) == kn.identity


@pytest.mark.parametrize("q, n", [(2, 3), (2, 5), (4, 3), (5, 3)])
def test_kn_exponents_match_the_field_model(q, n):
    # the field model: xi in mu_(q^n+1) inside GF(q^(2n)), and pi takes xi to
    # xi^m pulled back along the canonical embedding of GF(q^2)
    kn = kn_context(q, n)
    F2 = kn.ml.F
    FB = make_field(F2.p, F2.k * n)
    emb = embed_codes(F2, FB)
    N = q**n + 1
    zeta = next(
        z for z in roots_of_unity(FB, N)
        if FB.order_of(z) == N and FB.pow(z, kn.m) == emb[kn.ml.eps]
    )
    xi = 1
    for k in range(N):
        tau = kn.ml.mu[k % (q + 1)]
        assert FB.pow(xi, kn.m) == emb[tau]
        assert kn.pi((1, 0, k)) == (1, 0, tau)
        xi = FB.mul(xi, zeta)
    assert xi == 1


@pytest.mark.parametrize("q, n", sorted(GOLDEN_ROWS))
def test_kn_context_builds_at_every_golden_row(q, n):
    kn = kn_context(q, n)
    ml = kn.ml
    rng = random.Random(1000 * q + n)

    def random_element():
        a, c, _ = rng.choice(ml.s_ell)
        return (a, c, rng.randrange(kn.N))

    for _ in range(50):
        g1, g2 = random_element(), random_element()
        g12 = kn.compose(g1, g2)
        assert kn.pi(g12) == ml.compose(kn.pi(g1), kn.pi(g2))
        assert kn.rho(g12) == (kn.rho(g1) + kn.rho(g2)) % kn.N
        assert kn.compose(g1, kn.inverse(g1)) == kn.identity
    cm = kn.c_m_elements()
    assert len(set(cm)) == len(cm) == kn.m
    assert all(kn.pi(g) == ml.identity for g in cm)
    if (q, n) in ((4, 5), (5, 3)):
        for _ in range(3):
            sub = closure([random_element(), random_element()], kn.compose, kn.identity)
            spec = triple_of(kn, sub)
            assert group_from_triple(kn, spec) == sub


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
