"""Workload inputs and operations.

A workload is a list of operations, each a (name, kind, argument) triple.
`ops_for(workload, seed, pins)` builds the list; only `census-q9` depends on
the seed.  `run_op` executes one operation inside the measured process and
returns (exit code, output text); `check` compares a finished operation
against the pinned sha256 of its output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
PINS_PATH = os.path.join(HERE, "pins.json")

WORKLOADS = ("golden-table", "formula-2p20", "census-q9")

FORMULA_Q = 2**20
FORMULA_NS = (3, 5, 7)
CENSUS_Q = 9
CENSUS_ORDER = (CENSUS_Q**3 - CENSUS_Q) * (CENSUS_Q + 1)
# subgroups per census run; census_mix splits them by order class
CENSUS_SUBGROUPS = 12
ORDER_CLASSES = ("full", "half", "small")
CLASSIFY_OP = ("classify-q%d" % CENSUS_Q, "cli",
               ["classify", "--q", str(CENSUS_Q), "--format", "json"])


def load_pins(path=PINS_PATH):
    with open(path) as fh:
        return json.load(fh)


def order_class(order):
    if order == CENSUS_ORDER:
        return "full"
    if 2 * order == CENSUS_ORDER:
        return "half"
    return "small"


def census_mix(draws, total=CENSUS_SUBGROUPS):
    """Subgroups per order class in one census run.

    `draws` counts, by order class, every random generator pair that pin.py
    drew.  The mix splits `total` in proportion to those counts (largest
    remainder), so a run sees each class about as often as a random
    2-generator subgroup falls in it, while the work per run stays fixed.
    """
    n = sum(draws.values())
    shares = {cls: total * draws[cls] / n for cls in ORDER_CLASSES}
    mix = {cls: int(share) for cls, share in shares.items()}
    by_remainder = sorted(ORDER_CLASSES, key=lambda cls: mix[cls] - shares[cls])
    for cls in by_remainder[: total - sum(mix.values())]:
        mix[cls] += 1
    return mix


def census_selection(seed, pool, mix):
    """Pool indices of the census subgroups for one seed, in run order."""
    rng = random.Random(seed)
    chosen = []
    for cls in ORDER_CLASSES:
        members = [i for i, entry in enumerate(pool) if order_class(entry["order"]) == cls]
        chosen.extend(rng.sample(members, mix[cls]))
    rng.shuffle(chosen)
    return chosen


def ops_for(workload, seed, pins):
    """The operations of one workload; the seed only affects census-q9."""
    if workload == "golden-table":
        return [("table", "cli", ["table", "--format", "json"])]
    if workload == "formula-2p20":
        return [
            ("spectrum-q%d-n%d" % (FORMULA_Q, n), "cli",
             ["spectrum", "--q", str(FORMULA_Q), "--n", str(n), "--format", "csv"])
            for n in FORMULA_NS
        ]
    if workload == "census-q9":
        census = pins["census-q9"]
        pool = census["pool"]
        ops = [CLASSIFY_OP]
        for i in census_selection(seed, pool, census_mix(census["draws"])):
            ops.append(("subgroup-%d" % i, "census", pool[i]["gens"]))
        return ops
    raise ValueError("unknown workload %r" % (workload,))


def expected(workload, name, pins):
    """Pinned {"exit", "sha256"} for one operation."""
    table = pins[workload]
    if name.startswith("subgroup-"):
        return table["pool"][int(name.split("-", 1)[1])]
    return table[name]


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def check(workload, result, pins):
    """True when a finished operation matches its pin and did not raise."""
    if result.get("error"):
        return False
    pin = expected(workload, result["name"], pins)
    return result["exit"] == pin["exit"] and result["sha256"] == pin["sha256"]


# -- execution inside the measured process -------------------------------------


def _run_cli(argv):
    from gk2genus import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _run_census(gens):
    """Closure, fixed-point census, orbit counts and a Burnside check of <gens>."""
    from gk2genus.mlgroup import Subgroup, ml_context

    ctx = ml_context(CENSUS_Q)
    sub = Subgroup.from_closure(ctx, [tuple(g) for g in gens])
    census = {}
    fixed_total = len(ctx.pts)  # the identity fixes every point
    for g in sub.elements:
        if g == ctx.identity:
            continue
        kind = ctx.classify(g)
        census[kind.tag] = census.get(kind.tag, 0) + 1
        fixed_total += kind.fix_h
    chord, affine = sub.orbit_counts()
    burnside_ok = fixed_total == (chord + affine) * sub.order
    text = json.dumps(
        {"order": sub.order, "orbits": [chord, affine], "census": census,
         "burnside": burnside_ok},
        sort_keys=True,
    )
    return (0 if burnside_ok else 1), text + "\n"


def run_op(kind, arg):
    """Execute one operation; returns (exit code, output text)."""
    if kind == "cli":
        return _run_cli(arg)
    if kind == "census":
        return _run_census(arg)
    raise ValueError("unknown operation kind %r" % (kind,))
