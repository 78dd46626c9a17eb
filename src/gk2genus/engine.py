"""Genus spectrum assembly for Galois subfields of K_n.

spectrum(q, n) walks the subgroup catalog of the chord stabilizer, obtains
(quotient genus, orbit count, determinant order) for every instance, and
lifts each through every candidate kernel-intersection order t into a
GenusRecord.  Records with gcd(s, m/t) = 1 are tagged genus-complete: such
a lift is always realized by an explicit subgroup upstairs.  The remaining
candidates satisfy the order bookkeeping but carry no construction
guarantee and are tagged constructed-only; reference tables include them,
so the spectrum does too.  At q <= 25 every closed form is checked against
the brute-force group action before anything is emitted; a disagreement
aborts the run rather than producing unverified genera.  For larger q
(formula mode) only the wild families with closed forms run, and the report
is marked incomplete.  Formula mode enumerates only the wild instances (604
at q = 2^20 instead of 1,234,472); `catalog --q` still lists every instance.

check_table replays a reference row and reports membership with witnesses.
verify_all re-runs the per-instance certification suites and aggregates the
outcome without raising.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd

from . import formulas
from .catalog import SMALL_Q_LIMIT, enumerate_instances, instantiate, s_of
from .mlgroup import ml_context

SPECTRUM_SCHEMA = "gk2genus.spectrum/1"
VERIFY_SCHEMA = "gk2genus.verify/1"
ERRATA_SCHEMA = "gk2genus.errata/1"


def _json(tree):
    return json.dumps(tree, sort_keys=True, indent=2) + "\n"


def _csv_rows(rows):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


class MismatchError(RuntimeError):
    """A closed form disagreed with the group action; nothing was emitted."""

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


def errata_report():
    """Statement-vs-proof arbitrations baked into the closed forms."""
    return {"schema": ERRATA_SCHEMA, "entries": formulas.ERRATA}


@dataclass(frozen=True, slots=True)
class GenusRecord:
    """One lifted genus: a catalog instance paired with a kernel order t.

    bar_order is the order of the projected subgroup downstairs, group_order
    the order bar_order * t of the full subgroup upstairs.  The stored
    fields recompute genus via the lifting rule, which to_dict consumers can
    replay exactly.  Records are slotted: a spectrum holds thousands of them
    (9,664 at q = 2^20, n = 5).
    """

    q: int
    n: int
    family: str
    params: tuple
    bar_order: int
    g_bar: int
    n_orbits: int
    s: int
    t: int
    m_over_t: int
    genus: int
    group_order: int
    provenance: str
    completeness: str

    def witness_key(self):
        return (self.family, self.params, self.t)

    def witness_label(self):
        inner = ",".join("%s=%d" % kv for kv in self.params)
        return "%s[%s%st=%d]" % (self.family, inner, "," if inner else "", self.t)

    def to_dict(self):
        d = asdict(self)
        d["params"] = dict(self.params)
        return d


class SpectrumReport:
    """All genera constructed at one (q, n), with per-genus witnesses."""

    def __init__(self, q, n, m, mode, complete, records):
        self.q = q
        self.n = n
        self.m = m
        self.mode = mode
        self.complete = complete
        self.records = tuple(records)
        witnesses = {}
        for rec in self.records:
            cur = witnesses.get(rec.genus)
            if cur is None or rec.witness_key() < cur.witness_key():
                witnesses[rec.genus] = rec
        self._witnesses = witnesses
        self.genera = tuple(sorted(witnesses))

    def witness_for(self, genus):
        return self._witnesses.get(genus)

    def to_dict(self):
        return {
            "schema": SPECTRUM_SCHEMA,
            "q": self.q,
            "n": self.n,
            "m": self.m,
            "mode": self.mode,
            "complete": self.complete,
            "genera": list(self.genera),
            "records": [rec.to_dict() for rec in self.records],
        }

    def to_json(self):
        return _json(self.to_dict())

    def to_csv(self):
        rows = ((genus, self._witnesses[genus].witness_label()) for genus in self.genera)
        return _csv_rows(chain([("genus", "witness")], rows))


def _mismatch(inst, kind, formula_value, oracle_value):
    report = {
        "instance": inst.label(),
        "kind": kind,
        "formula": formula_value,
        "oracle": oracle_value,
        "errata": errata_report(),
    }
    return MismatchError(
        "%s: closed form gives %r but the group action gives %r (%s)"
        % (inst.label(), formula_value, oracle_value, kind),
        report,
    )


def _instances(q):
    """Every catalog instance up to SMALL_Q_LIMIT, the wild ones past it.

    Tame instances need the group action, which formula mode does not have.
    Oracle mode calls enumerate_instances(q) with no keyword, so it shares
    its cache entry with `catalog --q`.
    """
    if q <= SMALL_Q_LIMIT:
        return enumerate_instances(q)
    return enumerate_instances(q, include_tame=False)


def _instance_data(inst, oracle_mode):
    """(g_bar, n_orbits, provenance) for one instance, or None to skip it."""
    if not oracle_mode:
        closed = inst.genus_orbits()
        return None if closed is None else (closed[0], closed[1], "formula")
    closed = inst.genus_orbits()
    sub = instantiate(inst)
    n_oracle = sub.n_orbits()
    if inst.tame:
        g_oracle = sub.tame_genus()
        burnside = _burnside_orbits(sub)
        if burnside != n_oracle:
            shown = int(burnside) if burnside.denominator == 1 else str(burnside)
            raise _mismatch(inst, "tame-orbit-identity", shown, n_oracle)
        if closed is not None:
            if closed[0] != g_oracle:
                raise _mismatch(inst, "tame-genus", closed[0], g_oracle)
            if closed[1] != n_oracle:
                raise _mismatch(inst, "orbit-count", closed[1], n_oracle)
            return g_oracle, n_oracle, "both"
        return g_oracle, n_oracle, "oracle"
    if closed is None:
        raise _mismatch(inst, "missing-closed-form", None, n_oracle)
    if closed[1] != n_oracle:
        raise _mismatch(inst, "orbit-count", closed[1], n_oracle)
    return closed[0], closed[1], "both"


@lru_cache(maxsize=None)
def spectrum(q, n):
    """Every genus reachable from the catalog at (q, n), with witnesses.

    The returned report is cached and shared; treat it as read-only.
    """
    m = formulas.m_of(q, n)
    instances = _instances(q)  # checks the q bound before m is factored
    formulas.divisors_of_m(q, n)  # reject an m the budget cannot factor before any instance
    oracle_mode = q <= SMALL_Q_LIMIT
    mode = "oracle" if oracle_mode else "formula"
    complete = oracle_mode and gcd(q + 1, n) == 1

    records = []
    for inst in instances:
        data = _instance_data(inst, oracle_mode)
        if data is None:
            continue
        g_bar, n_orbits, provenance = data
        s = s_of(inst)
        for t in formulas.candidate_cm_orders(q, n, s):
            tag = "genus-complete" if gcd(s, m // t) == 1 else "constructed-only"
            genus = formulas.lift_genus(q, n, g_bar, n_orbits, t)
            if inst.tame:
                tame_genus = formulas.lift_genus_tame(q, n, g_bar, inst.order, t)
                if tame_genus != genus:
                    raise _mismatch(inst, "lift-identity", tame_genus, genus)
            records.append(
                GenusRecord(
                    q=q,
                    n=n,
                    family=inst.family,
                    params=inst.params,
                    bar_order=inst.order,
                    g_bar=g_bar,
                    n_orbits=n_orbits,
                    s=s,
                    t=t,
                    m_over_t=m // t,
                    genus=genus,
                    group_order=inst.order * t,
                    provenance=provenance,
                    completeness=tag,
                )
            )
    return SpectrumReport(q, n, m, mode, complete, records)


class TableCheck:
    """Membership verdict for a list of expected genera at one (q, n)."""

    def __init__(self, q, n, expected, hits, missing):
        self.q = q
        self.n = n
        self.expected = tuple(expected)
        self.hits = tuple(hits)
        self.missing = tuple(missing)

    @property
    def passed(self):
        return not self.missing

    def to_dict(self):
        return {
            "q": self.q,
            "n": self.n,
            "passed": self.passed,
            "hits": [
                {"genus": genus, "witness": rec.to_dict()} for genus, rec in self.hits
            ],
            "missing": list(self.missing),
        }

    def lines(self):
        out = []
        for genus, rec in self.hits:
            out.append("  %10d  via %s" % (genus, rec.witness_label()))
        for genus in self.missing:
            out.append("  %10d  MISSING" % genus)
        return out


def check_table(q, n, expected):
    """Check that every expected genus is constructed at (q, n)."""
    if not expected:
        raise ValueError("expected genus list must be nonempty")
    report = spectrum(q, n)
    hits, missing = [], []
    for genus in expected:
        rec = report.witness_for(genus)
        if rec is None:
            missing.append(genus)
        else:
            hits.append((genus, rec))
    return TableCheck(q, n, expected, hits, missing)


def _burnside_orbits(sub):
    """Exact average number of fixed points, or None when not materialized.

    For a group this is its orbit count; a fractional average means the
    element list is not a group, and it then equals no orbit count.
    """
    if sub.elements is None:
        return None
    ctx = sub.ctx
    fixed = sum(ctx.fix_h[tag] * k for tag, k in sub.census.items())
    return Fraction(len(ctx.pts) + fixed, sub.order)  # the identity fixes every point


def row_passed(row):
    """Verdict of one verify_all row: no error and no failed check."""
    return "error" not in row and not any(v is False for v in row.values())


def verify_all(q):
    """Re-run every per-instance certification at one q; never raises.

    Each instance contributes a row of pass/None flags: order and
    determinant checks always run, the orbit-count and tame-genus
    comparisons run where a closed form exists, the Burnside cross-check
    runs where the subgroup is materialized, and the central-intersection
    check runs for families parameterized by w.
    """
    report = {"schema": VERIFY_SCHEMA, "q": q, "rejected": False}
    try:
        instances = _instances(q)
    except ValueError as exc:
        report.update(rejected=True, reason=str(exc), checks=[], passed=False)
        return report
    if q > SMALL_Q_LIMIT:
        report.update(
            rejected=True,
            reason="q=%d exceeds the explicit-construction bound %d"
            % (q, SMALL_Q_LIMIT),
            checks=[],
            passed=False,
        )
        return report

    checks = []
    failures = 0
    for inst in instances:
        row = {"instance": inst.label(), "order_ok": None, "s_ok": None,
               "n_ok": None, "tame_genus_ok": None, "burnside_ok": None,
               "tail_ok": None}
        try:
            sub = instantiate(inst)
            row["order_ok"] = sub.order == inst.order
            row["s_ok"] = sub.det_image_order() == inst.det_rule
            closed = inst.genus_orbits()
            n_oracle = sub.n_orbits()
            if closed is not None:
                row["n_ok"] = closed[1] == n_oracle
            if inst.tame:
                g_oracle = sub.tame_genus()
                if closed is not None:
                    row["tame_genus_ok"] = closed[0] == g_oracle
            burnside = _burnside_orbits(sub)
            if burnside is not None:
                row["burnside_ok"] = burnside == n_oracle
            w = inst.param_dict.get("w")
            if w is not None:
                row["tail_ok"] = sub.z1_intersection_order() == w
        except Exception as exc:  # noqa: BLE001 - aggregated, not raised
            row["error"] = "%s: %s" % (type(exc).__name__, exc)
        if not row_passed(row):
            failures += 1
        checks.append(row)
    report.update(
        checks=checks,
        n_instances=len(checks),
        n_failures=failures,
        passed=failures == 0,
    )
    return report


def classify_elements(q):
    """Fixed-point-type tally of every nonidentity element of M_ell."""
    ctx = ml_context(q)
    counts = ctx.census(ctx.iter_elements())
    return {
        "q": q,
        "counts": dict(sorted(counts.items())),
        "total": counts.total(),
        "group_order": ctx.order,
    }
