"""Tests for the spectrum engine and its reporting layer."""

import gc
import json
import weakref
from dataclasses import astuple
from math import gcd

import pytest

from gk2genus import engine, formulas
from gk2genus.catalog import RecipeError, enumerate_instances
from gk2genus.engine import (
    MismatchError,
    check_table,
    classify_elements,
    errata_report,
    quotient_table,
    spectrum,
    verify_all,
)
from gk2genus.golden import GOLDEN_ROWS
from gk2genus.mlgroup import MlContext, Subgroup, ml_context
from reference import kn_genus


def test_spectrum_contains_reference_genera_q5_n3():
    rep = spectrum(5, 3)
    assert set(GOLDEN_ROWS[(5, 3)]) <= set(rep.genera)
    assert rep.m == 21
    assert rep.mode == "oracle"


def test_spectrum_contains_reference_genus_q4_n5():
    rep = spectrum(4, 5)
    assert 204 in rep.genera
    assert set(GOLDEN_ROWS[(4, 5)]) <= set(rep.genera)


def test_spectrum_extremes_via_trivial_subgroup():
    rep = spectrum(5, 3)
    top = max(rep.genera)
    assert top == kn_genus(5, 3) == 1450
    wit = rep.witness_for(top)
    assert wit.bar_order == 1 and wit.t == 1
    # t = m collapses the kernel completely: the lift equals the quotient
    for rec in rep.records:
        if rec.t == rep.m:
            assert rec.genus == rec.g_bar
    assert rep.witness_for(formulas.hermitian_genus(5)) is not None
    assert min(rep.genera) == 0


def test_spectrum_genus_bounds():
    # necessary conditions on every lift of every golden row, with G = g(K_n)
    # and Q = q^n: the fixed field covers the quotient downstairs and is
    # covered by K_n (Riemann-Hurwitz), and it is maximal over GF(Q^2), which
    # bounds its genus by Ihara and Fuhrmann-Torres, then Korchmaros-Torres
    for q, n in sorted(GOLDEN_ROWS):
        rep = spectrum(q, n)
        upper, big_q = kn_genus(q, n), q**n
        fuhrmann_torres = (big_q - 1) ** 2 // 4
        korchmaros_torres = (big_q**2 - big_q + 4) // 6
        for rec in rep.records:
            g, label = rec.genus, rec.witness_label()
            assert 0 <= rec.g_bar <= g <= upper, label
            assert rec.group_order == rec.bar_order * rec.t
            assert rec.m_over_t * rec.t == rep.m
            assert 2 * upper - 2 >= rec.group_order * (2 * g - 2), label
            assert g <= fuhrmann_torres, label
            assert g == fuhrmann_torres or g <= korchmaros_torres, label


def test_completeness_tags():
    # gcd(q+1, n) = 1: every candidate t is coprime-compatible, all records
    # carry the construction guarantee
    rep = spectrum(4, 7)
    assert rep.complete
    assert {rec.completeness for rec in rep.records} == {"genus-complete"}
    # otherwise some candidates survive only the order bookkeeping
    rep = spectrum(4, 5)
    assert not rep.complete
    tags = {rec.completeness for rec in rep.records}
    assert tags == {"genus-complete", "constructed-only"}
    for rec in rep.records:
        expect = "genus-complete" if gcd(rec.s, rec.m_over_t) == 1 else (
            "constructed-only"
        )
        assert rec.completeness == expect
    # the tag is membership in formulas.admissible_cm_orders, row by row
    for q, n in sorted(GOLDEN_ROWS) + [(2**20, n) for n in (3, 5, 7)]:
        admissible = {}
        for rec in spectrum(q, n).records:
            if rec.s not in admissible:
                admissible[rec.s] = set(formulas.admissible_cm_orders(q, n, rec.s))
            expect = "genus-complete" if rec.t in admissible[rec.s] else "constructed-only"
            assert rec.completeness == expect, (q, n, rec.witness_label())


def test_unguaranteed_reference_values_are_flagged():
    # these reference genera have no coprime-compatible route, so every
    # witness is a bookkeeping candidate rather than a certified construction
    for (q, n), values in (((4, 5), (204,)), ((5, 3), (80, 160, 482))):
        rep = spectrum(q, n)
        for genus in values:
            assert rep.witness_for(genus).completeness == "constructed-only"


def test_spectrum_deterministic_serialization(cold_engine):
    first = spectrum(5, 3)
    js, cs = first.to_json(), first.to_csv()
    cold_engine()
    second = spectrum(5, 3)
    assert second is not first
    assert second.to_json() == js
    assert second.to_csv() == cs
    tree = json.loads(js)
    assert tree["schema"] == "gk2genus.spectrum/1"
    assert tree["genera"] == sorted(tree["genera"])
    assert cs.splitlines()[0] == "genus,witness"


def _plain(value):
    """Whether value is built from ints, strings, None and tuples alone."""
    if isinstance(value, tuple):
        return all(_plain(v) for v in value)
    return value is None or type(value) in (bool, int, str)


def test_no_subgroup_outlives_spectrum_or_verify_all(monkeypatch, cold_engine):
    # instantiate caches nothing, and neither do its callers: every subgroup
    # is built, used and dropped, and the cached quotient table keeps plain
    # data only
    refs = []
    real = engine.instantiate

    def tracked(inst):
        sub = real(inst)
        refs.append(weakref.ref(sub))
        return sub

    monkeypatch.setattr(engine, "instantiate", tracked)
    spectrum(5, 3)
    verify_all(5)
    gc.collect()
    assert refs and all(ref() is None for ref in refs)
    assert len(refs) == len(quotient_table(5)) == len(enumerate_instances(5))
    assert all(_plain(astuple(row)) for row in quotient_table(5))


def test_formula_mode_above_construction_bound():
    rep = spectrum(49, 3)
    assert rep.mode == "formula"
    assert not rep.complete
    assert rep.genera
    for rec in rep.records:
        assert rec.provenance == "formula"
        assert 0 <= rec.genus <= kn_genus(49, 3)


def test_check_table_pass_and_fail():
    good = check_table(5, 3, [10, 1450, 482])
    assert good.passed and not good.missing
    assert [genus for genus, _ in good.hits] == [10, 1450, 482]
    bad = check_table(5, 3, [1450, 999999])
    assert not bad.passed
    assert bad.missing == (999999,)
    assert bad.to_dict()["missing"] == [999999]
    with pytest.raises(ValueError):
        check_table(5, 3, [])


def test_the_quotient_table_certifies_each_instance_once_per_q(monkeypatch, cold_engine):
    calls = []
    real = engine.instantiate

    def counting(inst):
        calls.append(inst)
        return real(inst)

    monkeypatch.setattr(engine, "instantiate", counting)
    spectrum(4, 5)
    spectrum(4, 7)
    verify_all(4)
    assert len(calls) == 30 == len(set(calls)) == len(enumerate_instances(4))


def test_formula_mode_evaluates_each_closed_form_once_per_q(monkeypatch, cold_engine):
    calls = []
    for name, fn in list(vars(formulas).items()):
        if "_quotient" in name and not name.startswith("_") and callable(fn):
            def counting(*args, fn=fn):
                calls.append(args)
                return fn(*args)

            monkeypatch.setattr(formulas, name, counting)
    for n in (3, 5, 7):
        spectrum(2**20, n)
    assert len(calls) == 604 == len(enumerate_instances(2**20, include_tame=False))


def test_a_build_error_is_kept_as_text_and_refused_by_spectrum(monkeypatch, cold_engine):
    target = enumerate_instances(4)[3]
    real = engine.instantiate

    def failing(inst):
        if inst == target:
            raise RecipeError("recipe broke")
        return real(inst)

    monkeypatch.setattr(engine, "instantiate", failing)
    rep = verify_all(4)
    (row,) = [r for r in rep["checks"] if r["instance"] == target.label()]
    assert row["error"] == "RecipeError: recipe broke"
    assert rep["n_failures"] == 1 and not rep["passed"]
    with pytest.raises(MismatchError) as info:
        spectrum(4, 3)
    assert info.value.report["kind"] == "certification-error"
    assert info.value.report["instance"] == target.label()
    assert info.value.report["oracle"] == "RecipeError: recipe broke"
    # the row keeps the message, not the exception and its traceback
    assert all(_plain(astuple(r)) for r in quotient_table(4))


def test_a_tame_row_reports_its_genus_before_its_orbit_count(monkeypatch, cold_engine):
    # spectrum raises a row's first failure, in the order the checks always ran
    closed_form = formulas.point_stabilizer_quotient

    def torus_off_by_one(q, mu, u):
        genus, orbits = closed_form(q, mu, u)
        return (genus + 1, orbits + 1) if u == 0 else (genus, orbits)

    monkeypatch.setattr(formulas, "point_stabilizer_quotient", torus_off_by_one)
    with pytest.raises(MismatchError) as info:
        spectrum(4, 3)
    assert info.value.report["kind"] == "tame-genus"
    assert info.value.report["instance"].startswith("torus_cyclic[q=4,")


def test_verify_all_passes_at_small_q():
    rep = verify_all(4)
    assert rep["passed"] and not rep["rejected"]
    assert rep["n_failures"] == 0
    assert rep["n_instances"] == len(rep["checks"]) > 0
    for row in rep["checks"]:
        assert row["order_ok"] and row["s_ok"]


def test_verify_all_fails_a_fractional_burnside_average(monkeypatch, cold_engine):
    # an element of order 5 listed with the identity only is not a group:
    # its fixed points average 65/2, which no orbit count equals
    ctx = ml_context(4)
    g = (2, 4, 1)
    fake = Subgroup(ctx, [g], [ctx.identity, g])
    target = next(inst for inst in enumerate_instances(4) if inst.order == 2)
    real = engine.instantiate
    monkeypatch.setattr(
        engine, "instantiate", lambda inst: fake if inst == target else real(inst)
    )
    rep = verify_all(4)
    (row,) = [r for r in rep["checks"] if r["instance"] == target.label()]
    assert row["burnside_ok"] is False
    assert rep["passed"] is False


def test_a_non_group_element_list_fails_the_tame_orbit_identity(monkeypatch):
    # two B2 and four B1 elements with the identity at q = 5 are no group:
    # their tame genus 1 + (18 - 4)/14 = 2 is an integer, but their fixed
    # points average (126 + 4)/7 = 130/7, which no orbit count equals
    ctx = ml_context(5)
    by_tag = {"B1": [], "B2": []}
    for g in ctx.iter_elements():
        if g != ctx.identity:
            by_tag.get(ctx.classify(g).tag, []).append(g)
    elements = [ctx.identity] + by_tag["B2"][:2] + by_tag["B1"][:4]
    fake = Subgroup(ctx, elements[1:], elements)
    target = next(inst for inst in enumerate_instances(5) if inst.tame)
    monkeypatch.setattr(engine, "instantiate", lambda inst: fake)
    row = engine._certify(target)
    assert row.g_bar == 2
    assert row.mismatch == ("tame-orbit-identity", "130/7", row.n_orbits)
    assert dict(row.checks)["burnside_ok"] is False


def test_verify_all_rejections():
    rep = verify_all(7)
    assert rep["rejected"] and not rep["passed"]
    assert "q = 1 (mod 4)" in rep["reason"]
    rep = verify_all(49)
    assert rep["rejected"] and not rep["passed"]
    assert "49" in rep["reason"]


def test_classify_elements_totals():
    rep = classify_elements(2)
    assert rep["total"] == 17 == rep["group_order"] - 1
    rep = classify_elements(5)
    assert rep["total"] == 719
    assert rep["group_order"] == (5**3 - 5) * 6
    assert set(rep["counts"]) <= {"A", "B1", "B2", "C", "E"}


def test_a_subgroup_classifies_its_elements_once(monkeypatch):
    # tame genus twice and the Burnside average read one cached census
    ctx = ml_context(5)
    calls = []
    classify = MlContext.classify

    def counting(self, g):
        calls.append(g)
        return classify(self, g)

    monkeypatch.setattr(MlContext, "classify", counting)
    sub = Subgroup.from_closure(ctx, [ctx.torus_gen])
    assert sub.order == 24
    assert sub.tame_genus() == sub.tame_genus()
    assert engine._burnside_orbits(sub) == sub.n_orbits()
    assert len(calls) == sub.order - 1


def test_errata_report_entries():
    rep = errata_report()
    assert rep["schema"] == "gk2genus.errata/1"
    assert len(rep["entries"]) == 3
    for entry in rep["entries"].values():
        assert {"family", "catalog_family", "adopted", "rejected", "witness"} <= set(entry)
        # the witness names a catalog instance of the entry's family
        wit = entry["witness"]
        params = {k: v for k, v in wit.items() if k not in ("q", "adopted_n", "rejected_n")}
        assert any(
            inst.family == entry["catalog_family"] and inst.param_dict == params
            for inst in enumerate_instances(wit["q"])
        ), (entry["catalog_family"], wit)


def test_spectrum_witness_labels_unique_per_genus():
    rep = spectrum(4, 5)
    for genus in rep.genera:
        wit = rep.witness_for(genus)
        assert wit.genus == genus
        assert wit is min(
            (r for r in rep.records if r.genus == genus),
            key=lambda r: engine.witness_key(r.family, r.params, r.t),
        )


def _least_keyed(records):
    least = {}
    for rec in records:
        cur = least.get(rec.genus)
        key = engine.witness_key(rec.family, rec.params, rec.t)
        if cur is None or key < engine.witness_key(cur.family, cur.params, cur.t):
            least[rec.genus] = rec
    return least


def test_witness_is_the_least_keyed_record_whichever_is_read_first():
    # records are built lazily: witness_for and records must hand out one object per lift
    for q, n in ((4, 5), (5, 3), (13, 5)):
        spectrum.cache_clear()
        records_first = spectrum(q, n)
        spectrum.cache_clear()
        witness_first = spectrum(q, n)
        assert records_first is not witness_first
        least = _least_keyed(records_first.records)
        assert all(records_first.witness_for(g) is least[g] for g in records_first.genera)
        witnesses = {g: witness_first.witness_for(g) for g in witness_first.genera}
        least = _least_keyed(witness_first.records)
        assert witnesses == least and all(witnesses[g] is least[g] for g in least)


def test_check_table_builds_one_record_per_hit(cold_engine, monkeypatch):
    record, built = engine.GenusRecord, []

    def counted(*args):
        built.append(record(*args))
        return built[-1]

    monkeypatch.setattr(engine, "GenusRecord", counted)
    check = check_table(5, 3, GOLDEN_ROWS[(5, 3)] + (5,))
    check.to_dict()
    assert check.missing == (5,)
    assert [rec for _, rec in check.hits] == built and len(built) == len(GOLDEN_ROWS[(5, 3)])
