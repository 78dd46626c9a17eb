"""Tests of the benchmark harness itself (not of gk2genus).

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import os

import pytest

import layertrace
import run
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
PINS = workloads.load_pins()


def _fake_spawn(ops_out):
    """A spawn() stand-in that reports the given per-operation results."""

    def spawn(root, env, args, timeout):
        report = {"setup_s": 0.5, "peak_rss_mb": 80.0, "provenance": {}}
        if "--probe" not in args:
            report["ops"] = [dict(r) for r in ops_out]
            report["wall_s"] = sum(r["seconds"] for r in ops_out)
        return report

    return spawn


def _table_result(text_suffix="", exit_code=1, error=None):
    pin = PINS["golden-table"]["table"]
    sha = pin["sha256"] if not text_suffix else workloads.digest(text_suffix)
    return {"name": "table", "exit": exit_code, "sha256": sha, "seconds": 1.0,
            "error": error}


@pytest.mark.parametrize(
    "result, failed",
    [
        (_table_result(), 0),
        (_table_result(text_suffix="perturbed"), 1),
        (_table_result(exit_code=0), 1),
        (_table_result(error="Traceback ..."), 1),
    ],
)
def test_perturbed_output_counts_in_fail_frac(monkeypatch, result, failed):
    monkeypatch.setattr(run, "spawn", _fake_spawn([result]))
    out = run.run_one(ROOT, "golden-table", 1, 0, False, lambda line: None)
    assert out["attempted"] == 1
    assert out["failed"] == failed
    assert out["correct"] is (failed == 0)
    assert set(out["metrics"]) == {"setup_s", "wall_s", "peak_rss_mb"}


def test_self_time_on_synthetic_span_tree():
    # root 0..10 has children a 1..4 and b 3..6 (overlapping), a has c 2..3
    spans = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("c", 2.0, 3.0, 1, 0),
        ("b", 3.0, 6.0, 0, 0),
    ]
    assert layertrace.self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 3.0])


def test_outermost_totals_count_nested_same_name_once():
    spans = [
        ("x", 0.0, 4.0, -1, 0),
        ("x", 1.0, 2.0, 0, 0),
        ("y", 2.0, 3.0, 0, 0),
        ("x", 2.5, 3.0, 2, 0),
        ("x", 5.0, 6.0, -1, 1),
    ]
    totals, calls = layertrace.outermost_totals(spans)
    assert totals["x"] == pytest.approx(5.0)
    assert calls["x"] == 4
    assert totals["y"] == pytest.approx(1.0)


def test_tracer_records_nesting(monkeypatch):
    ticks = iter([0.0, 1.0, 3.0, 4.0])
    monkeypatch.setattr(layertrace, "_perf", lambda: next(ticks))
    tracer = layertrace.Tracer()
    outer = tracer.open("outer")
    inner = tracer.open("inner")
    tracer.close(inner)
    tracer.close(outer)
    assert tracer.spans == [("outer", 0.0, 4.0, -1, -1), ("inner", 1.0, 3.0, 0, -1)]
    assert layertrace.self_times(tracer.spans) == pytest.approx([2.0, 2.0])


def test_seed_changes_census_list_only():
    for workload in ("golden-table", "formula-2p20"):
        assert workloads.ops_for(workload, 1, PINS) == workloads.ops_for(workload, 2, PINS)
    a = workloads.ops_for("census-q9", 1, PINS)
    b = workloads.ops_for("census-q9", 2, PINS)
    assert a != b
    assert a == workloads.ops_for("census-q9", 1, PINS)
    assert a[0] == b[0] == workloads.CLASSIFY_OP
    pool = PINS["census-q9"]["pool"]
    mix = {}
    for name, _, _ in a[1:]:
        cls = workloads.order_class(pool[int(name.split("-")[1])]["order"])
        mix[cls] = mix.get(cls, 0) + 1
    expected = workloads.census_mix(PINS["census-q9"]["draws"])
    assert mix == {cls: k for cls, k in expected.items() if k}


def test_census_mix_follows_draw_frequencies():
    # 36 draws: 24 full, 5 half, 7 small -> 8, 1.67 and 2.33 of 12
    assert workloads.census_mix({"full": 24, "half": 5, "small": 7}) == {
        "full": 8, "half": 2, "small": 2}
    assert workloads.census_mix({"full": 1, "half": 0, "small": 0}) == {
        "full": 12, "half": 0, "small": 0}


def test_install_wraps_every_import_site():
    from gk2genus import catalog, cli, engine, mlgroup

    originals = (catalog.instantiate, mlgroup.closure, engine.spectrum)
    tracer = layertrace.Tracer()
    layertrace.install(tracer)
    try:
        assert engine.instantiate is catalog.instantiate is not originals[0]
        assert catalog.closure is mlgroup.closure is not originals[1]
        assert cli.spectrum is engine.spectrum is not originals[2]
        assert engine.enumerate_instances is catalog.enumerate_instances
        assert engine.s_of is catalog.s_of
    finally:
        layertrace.uninstall()
    assert (catalog.instantiate, mlgroup.closure, engine.spectrum) == originals
    assert engine.instantiate is catalog.instantiate


def test_traced_outputs_match_pins():
    pool = PINS["census-q9"]["pool"]
    small = min(range(len(pool)), key=lambda i: pool[i]["order"])
    ops = [workloads.CLASSIFY_OP, ("subgroup-%d" % small, "census", pool[small]["gens"])]
    tracer = layertrace.Tracer()
    layertrace.install(tracer)
    try:
        results = [workloads.run_op(kind, arg) for _, kind, arg in ops]
    finally:
        layertrace.uninstall()
    for (name, _, _), (code, text) in zip(ops, results):
        result = {"name": name, "exit": code, "sha256": workloads.digest(text)}
        assert workloads.check("census-q9", result, PINS), name
    metrics = layertrace.layer_metrics(tracer)
    assert metrics["mlgroup.classify_calls"] == 7199 + pool[small]["order"] - 1
    assert metrics["mlgroup.closure_calls"] == 1
    assert metrics["mlgroup.closure_elements"] == pool[small]["order"]


def test_layer_metrics_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = {m["name"] for m in json.load(fh)["per_layer"]}
    produced = set(layertrace.layer_metrics(layertrace.Tracer()))
    produced |= {"trace.overhead_s", "ops.first_s"}
    assert produced == names
