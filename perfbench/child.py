"""One measured process: import the package, run a workload's operations, report.

Started by run.py with PYTHONPATH pointing at the checkout's src.  The
first statements import gk2genus.cli, so setup_s (spawn until that import
returns) covers the interpreter start and the package import and nothing of
the harness.  The report is one JSON line on stdout.

    python3 perfbench/child.py --spawned-at T --probe
    python3 perfbench/child.py --spawned-at T --workload W --seed N [--trace]
"""

import time

import gk2genus.cli  # the import timed as setup_s

IMPORTED_AT = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy  # noqa: E402
import sympy  # noqa: E402

import layertrace  # noqa: E402
import workloads  # noqa: E402


def provenance():
    return {
        "gk2genus_file": os.path.abspath(gk2genus.__file__),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sympy": sympy.__version__,
        "hashseed": os.environ.get("PYTHONHASHSEED"),
    }


def run_ops(ops, tracer=None):
    """Run every operation; an exception is recorded, not raised."""
    results = []
    for op_id, (name, kind, arg) in enumerate(ops):
        if tracer is not None:
            tracer.op = op_id
            idx = tracer.open("op")
        start = time.perf_counter()
        try:
            code, text = workloads.run_op(kind, arg)
            error = None
        except Exception:  # noqa: BLE001 - counted as a failed operation
            code, text = None, ""
            error = traceback.format_exc(limit=3)
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.close(idx)
        results.append({"name": name, "exit": code, "sha256": workloads.digest(text),
                        "seconds": seconds, "error": error})
    return results


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ns = ap.parse_args()

    report = {"setup_s": IMPORTED_AT - ns.spawned_at, "provenance": provenance()}
    if not ns.probe:
        ops = workloads.ops_for(ns.workload, ns.seed, workloads.load_pins())
        tracer = None
        if ns.trace:
            tracer = layertrace.Tracer()
            layertrace.install(tracer)
        results = run_ops(ops, tracer)
        report["ops"] = results
        report["wall_s"] = sum(r["seconds"] for r in results)
        if tracer is not None:
            layertrace.uninstall()
            report["layers"] = layertrace.layer_metrics(tracer)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
