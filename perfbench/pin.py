"""Write perfbench/pins.json: the sha256 of every operation's output.

    PYTHONPATH=src python3 perfbench/pin.py

Run it only when a change is meant to alter outputs, and review the diff of
pins.json.  It also draws the census-q9 pool: random 2-generator subgroups
of M_ell at q=9, with at least POOL_MIN of each order class, so that every
seed's census selection has a pinned output.  It goes on drawing until it has
made at least FREQ_DRAWS draws, and counts every draw by order class, kept or
not; those counts set the census mix (workloads.census_mix).

Before writing, it checks the one known red result: the golden table exits
1 with only the (9, 7) row failing, missing exactly 658, 387562 and
11239956 (errata sl2_five_orbit_count).
"""

import json
import random
import sys

import workloads

POOL_SEED = 20181101
POOL_MIN = {"full": 24, "half": 6, "small": 12}
# a fixed number of draws, so the frequencies do not depend on when the pool filled
FREQ_DRAWS = 240
EXPECTED_MISSING = {(9, 7): [658, 387562, 11239956]}


def _pin(code, text):
    return {"exit": code, "sha256": workloads.digest(text)}


def _check_table(code, text):
    rows = json.loads(text)["rows"]
    missing = {(r["q"], r["n"]): r["missing"] for r in rows if r["missing"]}
    if code != 1 or missing != EXPECTED_MISSING:
        raise SystemExit("golden table is not in its documented state: exit %r, missing %r"
                         % (code, missing))


def census_pool():
    from gk2genus.mlgroup import Subgroup, ml_context

    ctx = ml_context(workloads.CENSUS_Q)
    elements = list(ctx.iter_elements())
    rng = random.Random(POOL_SEED)
    have = {cls: 0 for cls in POOL_MIN}
    draws = {cls: 0 for cls in POOL_MIN}
    pool = []
    while sum(draws.values()) < FREQ_DRAWS or any(have[cls] < POOL_MIN[cls] for cls in POOL_MIN):
        gens = [list(rng.choice(elements)), list(rng.choice(elements))]
        order = Subgroup.from_closure(ctx, [tuple(g) for g in gens]).order
        cls = workloads.order_class(order)
        draws[cls] += 1
        if have[cls] >= POOL_MIN[cls]:
            continue
        have[cls] += 1
        code, text = workloads.run_op("census", gens)
        if code != 0:
            raise SystemExit("Burnside check failed for generators %r" % (gens,))
        pool.append({"gens": gens, "order": order, **_pin(code, text)})
    return pool, draws


def main():
    pins = {}
    code, text = workloads.run_op("cli", workloads.ops_for("golden-table", 0, {})[0][2])
    _check_table(code, text)
    pins["golden-table"] = {"table": _pin(code, text)}
    pins["formula-2p20"] = {
        name: _pin(*workloads.run_op(kind, arg))
        for name, kind, arg in workloads.ops_for("formula-2p20", 0, {})
    }
    name, kind, arg = workloads.CLASSIFY_OP
    pool, draws = census_pool()
    pins["census-q9"] = {name: _pin(*workloads.run_op(kind, arg)), "pool": pool, "draws": draws}
    with open(workloads.PINS_PATH, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
