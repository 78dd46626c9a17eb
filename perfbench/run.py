"""Cold-process benchmark of gk2genus, one workload per invocation.

    python3 perfbench/run.py --workload golden-table --seed 1 --seconds 46 --trace 0
    python3 perfbench/run.py --workload all --seconds 46

Run from the root of a checkout.  Every measurement is a fresh child
process (perfbench/child.py) started one at a time, single-threaded, with
PYTHONPATH=<checkout>/src, a fixed PYTHONHASHSEED and the BLAS/OpenMP thread
counts set to 1.  Children are started until the next one would end after
--seconds; the run reports medians over them:

    setup_s      spawn until `import gk2genus.cli` returns (probes and children)
    wall_s       the workload's operations in one cold process, setup excluded
    peak_rss_mb  peak resident set of the child process

Each operation's output is compared with its sha256 in perfbench/pins.json;
an operation that raises or differs counts as failed, and fail_frac =
failed / attempted is printed with the summary (the final JSON line carries
`attempted` and `failed`).  With --trace 1 the run alternates untraced and
traced children and reports the per-layer metrics of the traced ones plus
trace.overhead_s, the traced minus the untraced median wall time.
Metric names and units come from BENCHMARK.json at the checkout root.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  The exit code is 2 when the checkout has no
src/gk2genus, and 1 when no child process produced a usable report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
# an import-only probe before each workload child, so setup samples cover the
# whole run rather than its first seconds
PROBES_PER_CHILD = 1
HASHSEED = "0"
RUN_LIMIT_S = 170.0  # a whole invocation stays below this


class BenchError(RuntimeError):
    pass


def child_env(root):
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.path.join(root, "src"),
        PYTHONHASHSEED=HASHSEED,
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def spawn(root, env, args, timeout):
    """Run one child process to completion and return its JSON report."""
    cmd = [sys.executable, CHILD, "--spawned-at", repr(time.monotonic())] + args
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("child exceeded %.0f s: %s" % (timeout, " ".join(args)))
    if proc.returncode != 0 or not out.strip():
        raise BenchError("child exited %s: %s" % (proc.returncode, err.strip()[-2000:]))
    report = json.loads(out.strip().splitlines()[-1])
    expected_file = os.path.join(root, "src", "gk2genus", "__init__.py")
    if report["provenance"]["gk2genus_file"] != expected_file:
        raise BenchError("child imported %s, not the checkout's %s"
                         % (report["provenance"]["gk2genus_file"], expected_file))
    return report


def git_commit(root):
    """HEAD commit of the checkout, or None when it is not a git work tree."""
    # the ceiling stops git from finding a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_digest(root):
    """sha256 over the package sources, so a report names the code it measured."""
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "gk2genus")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0")
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def metric_specs(root):
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return bench["end_to_end"], bench["per_layer"]


def _median(values):
    return statistics.median(values) if values else 0.0


def measure(root, workload, seed, seconds, trace, log):
    """Run probes and children for one workload; return the aggregate."""
    start = time.monotonic()
    env = child_env(root)
    pins = workloads.load_pins()
    n_ops = len(workloads.ops_for(workload, seed, pins))

    def remaining():
        return RUN_LIMIT_S - (time.monotonic() - start)

    deadline = start + seconds
    setups = []
    plain, traced = [], []
    took = {False: [], True: []}
    attempted = failed = 0
    errors = []
    while True:
        use_trace = trace and len(plain) > len(traced)
        est = _median(took[use_trace]) or _median(took[False])
        enough = plain and (traced or not trace)
        if (enough and time.monotonic() + est > deadline) or remaining() < est:
            break
        args = ["--workload", workload, "--seed", str(seed)] + (["--trace"] if use_trace else [])
        t0 = time.monotonic()
        for _ in range(PROBES_PER_CHILD):
            setups.append(spawn(root, env, ["--probe"], remaining())["setup_s"])
        attempted += n_ops
        try:
            report = spawn(root, env, args, remaining())
        except BenchError as exc:
            # a crashed or hung child fails all its operations and ends the run
            failed += n_ops
            errors.append(str(exc))
            log("  child failed: %s" % exc)
            break
        took[use_trace].append(time.monotonic() - t0)
        setups.append(report["setup_s"])
        for result in report["ops"]:
            if not workloads.check(workload, result, pins):
                failed += 1
                log("  output mismatch in %s: %s" % (result["name"], result.get("error") or
                                                     "sha256 %s" % result["sha256"]))
        (traced if use_trace else plain).append(report)
    return {"setups": setups, "plain": plain, "traced": traced,
            "attempted": attempted, "failed": failed, "errors": errors}


def summarize(agg):
    """End-to-end and per-layer values from one measure() aggregate."""
    plain, traced = agg["plain"], agg["traced"]
    walls = [r["wall_s"] for r in plain]
    e2e = {
        "setup_s": _median(agg["setups"]),
        "wall_s": _median(walls),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in plain]),
    }
    layers = {}
    if traced:
        for key in traced[0]["layers"]:
            layers[key] = _median([r["layers"][key] for r in traced])
        layers["trace.overhead_s"] = _median([r["wall_s"] for r in traced]) - e2e["wall_s"]
    layers["ops.first_s"] = _median([r["ops"][0]["seconds"] for r in plain])
    return e2e, layers


def later_ops_median(plain):
    """Median time of the operations after the first, over untraced children."""
    return _median([op["seconds"] for r in plain for op in r["ops"][1:]])


def _spread(values):
    if len(values) < 2:
        return "n=%d" % len(values)
    return "n=%d min %.4g max %.4g" % (len(values), min(values), max(values))


def provenance_line(root, agg):
    reports = agg["plain"] + agg["traced"]
    prov = reports[0]["provenance"] if reports else {}
    return ("  provenance: gk2genus=%s commit=%s src_sha256=%s nproc=%d cpu_count=%s "
            "python=%s numpy=%s sympy=%s PYTHONHASHSEED=%s"
            % (prov.get("gk2genus_file"), git_commit(root), src_digest(root)[:16],
               len(os.sched_getaffinity(0)), os.cpu_count(), prov.get("python"),
               prov.get("numpy"), prov.get("sympy"), prov.get("hashseed")))


def run_one(root, workload, seed, seconds, trace, log):
    e2e_specs, layer_specs = metric_specs(root)
    agg = measure(root, workload, seed, seconds, trace, log)
    if not agg["plain"]:
        raise BenchError("no child produced a report: %s" % "; ".join(agg["errors"]))
    if trace and not agg["traced"]:
        raise BenchError("no traced child produced a report")
    e2e, layers = summarize(agg)
    fail_frac = agg["failed"] / agg["attempted"]
    log("%s seed=%d trace=%d: %d untraced + %d traced children, %d setup samples"
        % (workload, seed, int(trace), len(agg["plain"]), len(agg["traced"]),
           len(agg["setups"])))
    log(provenance_line(root, agg))
    samples = {"setup_s": agg["setups"], "wall_s": [r["wall_s"] for r in agg["plain"]],
               "peak_rss_mb": [r["peak_rss_mb"] for r in agg["plain"]]}
    for spec in e2e_specs:
        log("  %-14s %12.4f %-5s (median; %s)" % (spec["name"], e2e[spec["name"]],
                                                 spec["unit"], _spread(samples[spec["name"]])))
    log("  %-14s %12.4f %-5s (%d failed of %d operations)"
        % ("fail_frac", fail_frac, "ratio", agg["failed"], agg["attempted"]))
    if len(agg["plain"][0]["ops"]) > 1:
        log("  operations: first %.4f s, later ones %.4f s (medians)"
            % (layers["ops.first_s"], later_ops_median(agg["plain"])))
    chosen = layer_specs if trace else e2e_specs
    values = layers if trace else e2e
    missing = [s["name"] for s in chosen if s["name"] not in values]
    if missing:
        raise BenchError("metrics missing from the run: %s" % ", ".join(missing))
    if trace:
        for spec in layer_specs:
            log("  %-32s %16.6g %s" % (spec["name"], layers[spec["name"]], spec["unit"]))
    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in chosen}
    return {"correct": agg["failed"] == 0, "attempted": agg["attempted"],
            "failed": agg["failed"], "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=46)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    if ns.workload == "all" and ns.trace:
        ap.error("--workload all prints the end-to-end summary; use it with --trace 0")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gk2genus", "__init__.py")):
        print("perfbench: no src/gk2genus under %s; run from a checkout root" % root,
              file=sys.stderr)
        return 2

    def log(line):
        print(line, flush=True)

    try:
        if ns.workload != "all":
            result = run_one(root, ns.workload, ns.seed, ns.seconds, bool(ns.trace), log)
            print(json.dumps(result))
            return 0
        results = {}
        for workload in workloads.WORKLOADS:
            results[workload] = run_one(root, workload, ns.seed, ns.seconds, False, log)
        log("%-14s %12s %12s %14s %10s" % ("workload", "setup_s [s]", "wall_s [s]",
                                           "peak_rss_mb [MB]", "fail_frac"))
        for workload, res in results.items():
            m = res["metrics"]
            log("%-14s %12.4f %12.4f %14.1f %10.4f"
                % (workload, m["setup_s"]["value"], m["wall_s"]["value"],
                   m["peak_rss_mb"]["value"], res["failed"] / res["attempted"]))
        print(json.dumps({"workloads": results}))
        return 0
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
