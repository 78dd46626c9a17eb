"""Acceptance gate: one pass/fail line per criterion.

Each test prints an ACCEPTANCE verdict line and asserts it.  Criterion 1
is parameterized per reference row.  It requires every published genus to
be constructed except those that only an erratum's refuted quotient datum
reaches, and it checks that refutation itself: the (9, 7) row lists three
lifts of the rejected sl2_five orbit count (errata entry
sl2_five_orbit_count), so there the test requires exactly those three to be
missing, the witness group's own action to give the adopted count, the
fixed-point bound to rule out the rejected one, and every adopted lift to be
in the spectrum.  `gk2genus table` still replays the published rows verbatim
and reports (9, 7) as FAIL.
"""

import random
import time

import pytest

from gk2genus import formulas
from gk2genus.catalog import enumerate_instances, instantiate, s_of
from gk2genus.engine import check_table, spectrum
from gk2genus.golden import GOLDEN_ROWS
from gk2genus.mlgroup import closure, ml_context
from reference import (
    count_fixed_brute,
    group_from_triple,
    kn_context,
    n_orbits_tame,
    random_subgroup,
    sl2_five_orbit_count_rejected,
    sl2_two_orbit_count_rejected,
    triple_of,
    unitary_pm_orbit_count_rejected,
)

ORACLE_QS = (4, 8, 16, 5, 9, 13, 25)

ROW_BUDGET_SECONDS = {
    (4, 5): 120, (4, 7): 120, (5, 3): 120, (5, 5): 120, (5, 7): 120,
    (9, 7): 600, (13, 5): 600, (25, 3): 3600,
}


def _verdict(tag, ok, detail):
    print("ACCEPTANCE %s: %s  %s" % (tag, "PASS" if ok else "FAIL", detail))
    assert ok, "ACCEPTANCE %s FAILED: %s" % (tag, detail)


@pytest.fixture(scope="session")
def oracle_sweep():
    """(instance, closed_form, oracle_N, oracle_tame_genus) at every small q."""
    rows = []
    t0 = time.time()
    for q in ORACLE_QS:
        for inst in enumerate_instances(q):
            sub = instantiate(inst)
            closed = inst.genus_orbits()
            n_oracle = sub.n_orbits()
            g_oracle = sub.tame_genus() if inst.tame else None
            rows.append((inst, closed, n_oracle, g_oracle))
    return rows, time.time() - t0


# The erratum whose rejected orbit count some published genera lift, and
# the catalog family whose closed form it corrects.
ERRATUM = "sl2_five_orbit_count"
ERRATUM_FAMILY = formulas.ERRATA[ERRATUM]["catalog_family"]


def _erratum_lifts(q, n):
    """(refuted, adopted) lifts at (q, n) of the erratum's witness datum.

    Both are empty unless the erratum's witness lies at this q.  There the
    refutation is checked before anything is returned: the witness group's
    direct action gives the adopted orbit count, no fixed-point census can
    reach the rejected one, and every adopted lift is in the spectrum.
    Refuted lifts are the rejected-count lifts that differ from the adopted.
    """
    wit = formulas.ERRATA[ERRATUM]["witness"]
    if wit["q"] != q:
        return set(), []
    adopted_n, rejected_n = wit["adopted_n"], wit["rejected_n"]
    params = (("w", wit["w"]),)
    inst = next(
        i
        for i in enumerate_instances(q)
        if i.family == ERRATUM_FAMILY and i.params == params
    )
    sub = instantiate(inst)
    assert sub.n_orbits() == adopted_n, (inst.label(), sub.n_orbits())
    # a non-identity element fixes at most q + 1 of the q^3 + 1 points, so
    # Burnside caps the orbit count below the rejected value
    ctx = sub.ctx
    max_fix = max(ctx.classify(g).fix_h for g in sub.elements if g != ctx.identity)
    assert max_fix <= q + 1, (inst.label(), max_fix)
    n_bound = (q**3 + 1 + (sub.order - 1) * (q + 1)) // sub.order
    assert n_bound < rejected_n, (inst.label(), n_bound, rejected_n)
    rep = spectrum(q, n)
    recs = [
        rec
        for rec in rep.records
        if rec.family == ERRATUM_FAMILY and rec.params == params
    ]
    assert recs, "no %s records at (%d,%d)" % (inst.label(), q, n)
    refuted, adopted = set(), set()
    for rec in recs:
        good = formulas.lift_genus(q, n, rec.g_bar, adopted_n, rec.t)
        bad = formulas.lift_genus(q, n, rec.g_bar, rejected_n, rec.t)
        assert good in rep.genera, (inst.label(), rec.t, good)
        adopted.add(good)
        if bad != good:
            refuted.add(bad)
    return refuted, sorted(adopted)


@pytest.mark.parametrize("q,n", sorted(GOLDEN_ROWS))
def test_criterion_1_reference_row(q, n):
    t0 = time.time()
    chk = check_table(q, n, GOLDEN_ROWS[(q, n)])
    elapsed = time.time() - t0
    assert elapsed < ROW_BUDGET_SECONDS[(q, n)], "row (%d,%d) too slow" % (q, n)
    refuted, adopted = _erratum_lifts(q, n)
    expected_missing = refuted & set(chk.expected)
    detail = "row (%d,%d): %d/%d reference genera constructed in %.1fs" % (
        q, n, len(chk.hits), len(chk.expected), elapsed,
    )
    if chk.missing:
        detail += "; missing %s" % (list(chk.missing),)
    if expected_missing:
        wit = formulas.ERRATA[ERRATUM]["witness"]
        detail += (
            "; refuted %s: they lift the quotient datum of %s[q=%d,w=%d] with"
            " %d orbits, which fails the fixed-point bound, while its group"
            " action gives %d orbits (errata entry %s); the adopted lifts %s"
            " are in the spectrum"
            % (
                sorted(expected_missing), ERRATUM_FAMILY, q, wit["w"],
                wit["rejected_n"], wit["adopted_n"], ERRATUM, adopted,
            )
        )
    _verdict("1 (%d,%d)" % (q, n), set(chk.missing) == expected_missing, detail)


def test_criterion_2_spot_lift_witness():
    rep = spectrum(4, 5)
    recs = [
        rec
        for rec in rep.records
        if rec.genus == 72
        and rec.family == "elementary_abelian"
        and rec.params == (("f", 1), ("w", 1))
        and rec.t == 41
    ]
    ok = len(recs) == 1
    detail = "genus-72 record via elementary_abelian[f=1,w=1] at t=41"
    if ok:
        rec = recs[0]
        ok = (
            rec.g_bar == 2
            and rec.n_orbits == 33
            and rec.s == 1
            and rec.completeness == "genus-complete"
        )
        detail += " with g_bar=%d N=%d s=%d" % (rec.g_bar, rec.n_orbits, rec.s)
        # direct construction: the subgroup downstairs really has this data
        inst = [
            i
            for i in enumerate_instances(4)
            if i.family == "elementary_abelian" and i.params == (("f", 1), ("w", 1))
        ][0]
        sub = instantiate(inst)
        ok = ok and sub.order == 2 and sub.n_orbits() == 33
        ok = ok and formulas.lift_genus(4, 5, 2, 33, 41) == 72
        ok = ok and 41 in formulas.admissible_cm_orders(4, 5, 1)
        detail += "; direct construction confirms order 2 and 33 orbits"
    _verdict("2", ok, detail)


def test_criterion_3_formula_vs_oracle_orbits(oracle_sweep):
    rows, elapsed = oracle_sweep
    checked = mismatches = 0
    for inst, closed, n_oracle, _ in rows:
        if closed is None:
            continue
        checked += 1
        if closed[1] != n_oracle:
            mismatches += 1
    # the rejected near-miss variants must disagree with the oracle at their
    # recorded witnesses while the adopted forms agree
    refuted = 0
    by_label = {inst.label(): n for inst, _, n, _ in rows}
    n_two = by_label["sl2_two[q=8,w=9]"]
    assert sl2_two_orbit_count_rejected(8, 9) == 57 != n_two == 12
    refuted += 1
    n_upm = by_label["unitary_pm[q=9,k=2,w=1]"]
    assert unitary_pm_orbit_count_rejected(9, 2, 1) == 11 != n_upm == 2
    refuted += 1
    n_five = by_label["sl2_five[q=9,w=1]"]
    assert sl2_five_orbit_count_rejected(9, 1) == 49 != n_five == 7
    refuted += 1
    ok = mismatches == 0 and checked > 200 and refuted == 3 and elapsed < 1800
    _verdict(
        "3",
        ok,
        "%d closed-form orbit counts match the group action at q in %s"
        " (%.1fs); 3 rejected variants refuted at their witnesses"
        % (checked, list(ORACLE_QS), elapsed),
    )


def test_criterion_4_tame_genus_vs_oracle(oracle_sweep):
    rows, _ = oracle_sweep
    checked = mismatches = 0
    for inst, closed, _, g_oracle in rows:
        if not inst.tame or closed is None:
            continue
        checked += 1
        if closed[0] != g_oracle:
            mismatches += 1
    # only some tame families carry a closed-form genus; the rest are
    # covered by the orbit-averaging identity in criterion 5
    ok = mismatches == 0 and checked >= 40
    _verdict(
        "4",
        ok,
        "%d closed-form tame genera match the fixed-point census" % checked,
    )


def test_criterion_5_lift_identity_on_tame_instances(oracle_sweep):
    rows, _ = oracle_sweep
    checked = 0
    for inst, _, n_oracle, g_oracle in rows:
        if not inst.tame:
            continue
        n_identity = n_orbits_tame(inst.q, inst.order, g_oracle)
        assert n_identity == n_oracle, inst.label()
        s = s_of(inst)
        for n in (3, 5, 7):
            for t in formulas.admissible_cm_orders(inst.q, n, s):
                via_tame = formulas.lift_genus_tame(
                    inst.q, n, g_oracle, inst.order, t
                )
                via_orbits = formulas.lift_genus(
                    inst.q, n, g_oracle, n_identity, t
                )
                assert via_tame == via_orbits, (inst.label(), n, t)
                checked += 1
    _verdict(
        "5",
        checked > 1000,
        "tame and orbit-count lifts agree on %d (instance, n, t) triples"
        % checked,
    )


def test_criterion_6_triple_roundtrip():
    rng = random.Random(97)
    t0 = time.time()
    total = 0
    for q, n in ((2, 3), (2, 5), (4, 3)):
        kn = kn_context(q, n)
        els = list(kn.iter_elements())
        assert len(els) == q * (q * q - 1) * (q**n + 1)
        one = kn.rho(kn.identity)
        cm = set(kn.c_m_elements())
        sl_up = {g for g in els if kn.rho(g) == one}
        assert len(sl_up) == q**3 - q
        samples = [
            cm,
            sl_up,
            {kn.compose(a, b) for a in sl_up for b in cm},
            set(els),
        ]
        for _ in range(7 if q == 2 else 6):
            gens = [rng.choice(els), rng.choice(els)]
            samples.append(closure(gens, kn.compose, kn.identity))
        for sub in samples:
            spec = triple_of(kn, sub)
            rebuilt = group_from_triple(kn, spec)
            assert {kn.pi(g) for g in rebuilt} == {kn.pi(g) for g in sub}
            assert {kn.rho(g) for g in rebuilt} == {kn.rho(g) for g in sub}
            assert len(rebuilt & cm) == len(sub & cm)
            total += 1
    elapsed = time.time() - t0
    _verdict(
        "6",
        total == 32 and elapsed < 60,
        "%d subgroups round-trip through their (bar L, r, L_1) triple in %.1fs"
        % (total, elapsed),
    )


def test_criterion_7_structural_suites():
    rng = random.Random(101)
    t0 = time.time()
    classified = burnside = 0
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13):
        ctx = ml_context(q)
        assert ctx.order == (q**3 - q) * (q + 1)
        assert len(ctx.s_ell) == q**3 - q
        for g in ctx.iter_elements():
            if g == ctx.identity:
                continue
            rec = ctx.classify(g)
            assert rec.tag in {"A", "B1", "B2", "C", "E"}
            assert rec.fix_h == count_fixed_brute(ctx, g)
            classified += 1
        for _ in range(50):
            sub = random_subgroup(ctx, rng)
            fixed = sum(ctx.fix_h[tag] * k for tag, k in sub.census.items())
            fixed_total = len(ctx.pts) + fixed  # the identity fixes every point
            assert fixed_total % sub.order == 0
            n1, n2 = sub.orbit_counts()
            assert n1 + n2 == fixed_total // sub.order
            burnside += 1
    for q, n in ((2, 3), (2, 5), (4, 3)):
        kn = kn_context(q, n)
        assert len(list(kn.iter_elements())) == q * (q * q - 1) * (q**n + 1)
    elapsed = time.time() - t0
    _verdict(
        "7",
        burnside == 450,
        "%d elements classified with matching brute fixed-point counts;"
        " %d random subgroups pass the orbit-averaging identity;"
        " all three group orders check out in %.1fs" % (classified, burnside, elapsed),
    )


def test_criterion_8_integrality_sweep():
    checked = 0
    for q in (2, 4, 8, 16, 5, 9, 13, 25):
        for n in (3, 5, 7):
            rep = spectrum(q, n)
            bound = q**n * (q**n - 1) // 2
            for rec in rep.records:
                assert isinstance(rec.genus, int)
                assert 0 <= rec.genus <= bound, (q, n, rec.genus)
                checked += 1
    _verdict(
        "8",
        checked > 2000,
        "%d emitted genera are integers inside [0, q^n(q^n-1)/2]" % checked,
    )
