"""Tests for the spectrum engine and its reporting layer."""

import json
from math import gcd

import pytest

from gk2genus import formulas
from gk2genus.catalog import enumerate_instances
from gk2genus.engine import (
    check_table,
    classify_elements,
    errata_report,
    spectrum,
    verify_all,
)
from gk2genus.golden import GOLDEN_ROWS


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
    assert top == formulas.kn_genus(5, 3) == 1450
    wit = rep.witness_for(top)
    assert wit.bar_order == 1 and wit.t == 1
    # t = m collapses the kernel completely: the lift equals the quotient
    for rec in rep.records:
        if rec.t == rep.m:
            assert rec.genus == rec.g_bar
    assert rep.witness_for(formulas.hermitian_genus(5)) is not None
    assert min(rep.genera) == 0


def test_spectrum_genus_bounds():
    for (q, n) in ((4, 5), (5, 3), (5, 5)):
        rep = spectrum(q, n)
        upper = formulas.kn_genus(q, n)
        for rec in rep.records:
            assert 0 <= rec.genus <= upper
            assert rec.group_order == rec.bar_order * rec.t
            assert rec.m_over_t * rec.t == rep.m


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


def test_unguaranteed_reference_values_are_flagged():
    # these reference genera have no coprime-compatible route, so every
    # witness is a bookkeeping candidate rather than a certified construction
    for (q, n), values in (((4, 5), (204,)), ((5, 3), (80, 160, 482))):
        rep = spectrum(q, n)
        for genus in values:
            assert rep.witness_for(genus).completeness == "constructed-only"


def test_spectrum_deterministic_serialization():
    first = spectrum(5, 3)
    js, cs = first.to_json(), first.to_csv()
    spectrum.cache_clear()
    second = spectrum(5, 3)
    assert second.to_json() == js
    assert second.to_csv() == cs
    tree = json.loads(js)
    assert tree["schema"] == "gk2genus.spectrum/1"
    assert tree["genera"] == sorted(tree["genera"])
    assert cs.splitlines()[0] == "genus,witness"


def test_formula_mode_above_construction_bound():
    rep = spectrum(49, 3)
    assert rep.mode == "formula"
    assert not rep.complete
    assert rep.genera
    for rec in rep.records:
        assert rec.provenance == "formula"
        assert 0 <= rec.genus <= formulas.kn_genus(49, 3)


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


def test_verify_all_passes_at_small_q():
    rep = verify_all(4)
    assert rep["passed"] and not rep["rejected"]
    assert rep["n_failures"] == 0
    assert rep["n_instances"] == len(rep["checks"]) > 0
    for row in rep["checks"]:
        assert row["order_ok"] and row["s_ok"]


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
            key=lambda r: r.witness_key(),
        )
