"""Command line front end for spectra, verification, and catalog inspection.

Subcommands:

* spectrum --q Q --n N   compute the genus spectrum report for one (q, n)
* table                  replay every reference row and print a pass/fail matrix
* verify --q Q           run the per-instance certification suites at one q
* catalog --q Q          list the subgroup family instances at one q
* classify --q Q         tabulate element types of the chord stabilizer

Every command honours --format {text,json,csv} and --output; exit status is
0 when all requested checks pass, 1 when a check fails, 2 on invalid
arguments.
"""

import argparse
import json
import sys

from .catalog import enumerate_instances
from .engine import (
    MismatchError,
    _csv_rows,
    _json,
    check_table,
    classify_elements,
    row_passed,
    spectrum,
    verify_all,
)
from .golden import GOLDEN_ROWS


def _parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("text", "json", "csv"),
        default="text",
        help="output format (default: text)",
    )
    common.add_argument("--output", help="write the report to this path")
    common.add_argument(
        "-v", "--verbose", action="count", default=0, help="more detail"
    )

    parser = argparse.ArgumentParser(
        prog="gk2genus",
        description="Genus spectra of Galois subfields of the second "
        "generalized GK function fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_spec = sub.add_parser(
        "spectrum", parents=[common], help="genus spectrum for one (q, n)"
    )
    p_spec.add_argument("--q", type=int, required=True)
    p_spec.add_argument("--n", type=int, required=True)

    sub.add_parser("table", parents=[common], help="replay all reference genus rows")

    p_verify = sub.add_parser(
        "verify", parents=[common], help="certification suites at one q"
    )
    p_verify.add_argument("--q", type=int, required=True)

    p_cat = sub.add_parser(
        "catalog", parents=[common], help="list catalog instances at one q"
    )
    p_cat.add_argument("--q", type=int, required=True)

    p_cls = sub.add_parser(
        "classify", parents=[common], help="element type census at one q"
    )
    p_cls.add_argument("--q", type=int, required=True)
    return parser


def _emit(text, output):
    if not text.endswith("\n"):
        text += "\n"
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _run_spectrum(ns):
    rep = spectrum(ns.q, ns.n)
    if ns.format == "json":
        text = rep.to_json()
    elif ns.format == "csv":
        text = rep.to_csv()
    else:
        lines = [
            "spectrum q=%d n=%d m=%d mode=%s complete=%s"
            % (rep.q, rep.n, rep.m, rep.mode, rep.complete),
            "%d records, %d distinct genera" % (rep.n_lifts, len(rep.genera)),
        ]
        lines += ("%12d  %s" % pair for pair in rep.witness_labels())
        if ns.verbose:
            for rec in rep.records:
                lines.append(
                    "  %s g_bar=%d N=%d s=%d genus=%d %s"
                    % (
                        rec.witness_label(),
                        rec.g_bar,
                        rec.n_orbits,
                        rec.s,
                        rec.genus,
                        rec.completeness,
                    )
                )
        text = "\n".join(lines)
    _emit(text, ns.output)
    return 0


def _run_table(ns):
    checks = [check_table(q, n, row) for (q, n), row in sorted(GOLDEN_ROWS.items())]
    ok = all(c.passed for c in checks)
    if ns.format == "json":
        text = _json({"rows": [c.to_dict() for c in checks], "passed": ok})
    elif ns.format == "csv":
        rows = [("q", "n", "passed", "hits", "expected")]
        for c in checks:
            rows.append((c.q, c.n, c.passed, len(c.hits), len(c.expected)))
        text = _csv_rows(rows)
    else:
        lines = []
        for c in checks:
            lines.append(
                "q=%-3d n=%d  %s  (%d/%d genera)"
                % (
                    c.q,
                    c.n,
                    "PASS" if c.passed else "FAIL",
                    len(c.hits),
                    len(c.expected),
                )
            )
            if ns.verbose or not c.passed:
                lines.extend(c.lines())
        lines.append("table: %s" % ("PASS" if ok else "FAIL"))
        text = "\n".join(lines)
    _emit(text, ns.output)
    return 0 if ok else 1


def _run_verify(ns):
    rep = verify_all(ns.q)
    ok = rep.get("passed", False)
    if ns.format == "json":
        text = _json(rep)
    elif ns.format == "csv":
        rows = [("instance", "passed")]
        for row in rep.get("checks", []):
            rows.append((row["instance"], row_passed(row)))
        text = _csv_rows(rows)
    else:
        lines = ["verify q=%d: %s" % (ns.q, "PASS" if ok else "FAIL")]
        if rep.get("rejected"):
            lines.append("rejected: %s" % rep.get("reason", ""))
        for row in rep.get("checks", []):
            if ns.verbose or not row_passed(row):
                flags = ",".join(
                    "%s=%s" % (k, v)
                    for k, v in row.items()
                    if k != "instance" and v is not None
                )
                lines.append("  %-40s %s" % (row["instance"], flags))
        text = "\n".join(lines)
    _emit(text, ns.output)
    if rep.get("rejected"):
        return 2
    return 0 if ok else 1


def _run_catalog(ns):
    instances = enumerate_instances(ns.q)
    if ns.format == "json":
        tree = [
            {
                "family": inst.family,
                "params": dict(inst.params),
                "order": inst.order,
                "tame": inst.tame,
            }
            for inst in instances
        ]
        text = _json({"q": ns.q, "instances": tree})
    elif ns.format == "csv":
        rows = [("label", "order", "tame")]
        for inst in instances:
            rows.append((inst.label(), inst.order, inst.tame))
        text = _csv_rows(rows)
    else:
        lines = ["catalog q=%d: %d instances" % (ns.q, len(instances))]
        for inst in instances:
            lines.append(
                "  %-40s order=%-6d %s"
                % (inst.label(), inst.order, "tame" if inst.tame else "wild")
            )
        text = "\n".join(lines)
    _emit(text, ns.output)
    return 0


def _run_classify(ns):
    rep = classify_elements(ns.q)
    if ns.format == "json":
        text = _json(rep)
    elif ns.format == "csv":
        rows = [("type", "count")]
        for tag, count in sorted(rep["counts"].items()):
            rows.append((tag, count))
        text = _csv_rows(rows)
    else:
        lines = ["classify q=%d: group order %d" % (ns.q, rep["group_order"])]
        for tag, count in sorted(rep["counts"].items()):
            lines.append("  %-4s %d" % (tag, count))
        lines.append("  total nonidentity: %d" % rep["total"])
        text = "\n".join(lines)
    _emit(text, ns.output)
    return 0


_DISPATCH = {
    "spectrum": _run_spectrum,
    "table": _run_table,
    "verify": _run_verify,
    "catalog": _run_catalog,
    "classify": _run_classify,
}


def main(argv=None):
    parser = _parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _DISPATCH[ns.command](ns)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except MismatchError as exc:
        print("mismatch: %s" % exc, file=sys.stderr)
        print(json.dumps(exc.report, sort_keys=True), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
