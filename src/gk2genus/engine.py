"""Genus spectrum assembly for Galois subfields of K_n.

quotient_table(q) holds (quotient genus, orbit count, determinant order),
provenance and check results for every instance of the subgroup catalog of
the chord stabilizer, built once per q; spectrum(q, n) lifts each row through
every candidate kernel-intersection order t.  Its report keeps the lifts as
plain tuples and builds a GenusRecord from one only on request: the full
records tuple on first access (JSON and text output), one witness at a time
for witness_for, none for CSV, so neither CSV nor check_table builds the
full list.  Lifts through a t of formulas.admissible_cm_orders(q, n, s) are
tagged genus-complete: such a lift is always realized by an explicit
subgroup upstairs.  The rest satisfy the order bookkeeping but carry no
construction guarantee and are tagged constructed-only; reference tables
include them, so the spectrum does too.
At q <= 25 the table checks every closed form against the brute-force group
action, and spectrum raises a disagreement before anything is emitted.  For larger q (formula mode) only
the wild families with closed forms run, and the report is marked
incomplete.  Formula mode enumerates only the wild instances (604 at
q = 2^20 instead of 1,234,472); `catalog --q` still lists every instance.

check_table replays a reference row and reports membership with witnesses.
verify_all renders the check results of the same table and aggregates them
without raising: one certifier serves both.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
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


def witness_key(family, params, t):
    """Order among the lifts of one genus: the least key is its witness."""
    return family, params, t


def _label_prefix(family, params):
    """A witness label up to its t: `family[name=value,...,t=`."""
    inner = ",".join("%s=%d" % kv for kv in params)
    return "%s[%s%st=" % (family, inner, "," if inner else "")


@dataclass(frozen=True, slots=True)
class GenusRecord:
    """One lifted genus: a catalog instance paired with a kernel order t.

    bar_order is the order of the projected subgroup downstairs, group_order
    the order bar_order * t of the full subgroup upstairs.  The stored
    fields recompute genus via the lifting rule, which to_dict consumers can
    replay exactly.  Records are slotted, and a SpectrumReport builds them
    only on request: its lifts number in the thousands (9,664 at q = 2^20,
    n = 5).
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

    def witness_label(self):
        return "%s%d]" % (_label_prefix(self.family, self.params), self.t)

    def to_dict(self):
        d = {name: getattr(self, name) for name in self.__slots__}  # the fields, in order
        d["params"] = dict(self.params)
        return d


class SpectrumReport:
    """All genera constructed at one (q, n), with per-genus witnesses.

    lifts holds one (row, t, m_over_t, tag, genus) tuple per lift of a
    QuotientRow row through a kernel order t.  A GenusRecord is built from
    a lift only when asked for: records builds them all on first access,
    witness_for one per genus, and both hand out the same object for the
    same lift.  n_lifts counts them and witness_labels labels each genus's
    witness without building any, for to_csv and the text listing.
    """

    def __init__(self, q, n, m, mode, complete, lifts):
        self.q = q
        self.n = n
        self.m = m
        self.mode = mode
        self.complete = complete
        self._lifts = lifts
        self.n_lifts = len(lifts)
        self._built = {}  # lift index -> GenusRecord
        best = {}  # genus -> index of its witness lift
        for i, lift in enumerate(lifts):
            j = best.setdefault(lift[4], i)
            if j != i and self._key(i) < self._key(j):
                best[lift[4]] = i
        self._best = best
        self.genera = tuple(sorted(best))

    def _key(self, i):
        row, t = self._lifts[i][:2]
        return witness_key(row.inst.family, row.inst.params, t)

    def _record(self, i):
        rec = self._built.get(i)
        if rec is None:
            row, t, m_over_t, tag, genus = self._lifts[i]
            inst = row.inst
            rec = self._built[i] = GenusRecord(
                self.q, self.n, inst.family, inst.params, inst.order, row.g_bar, row.n_orbits,
                row.s, t, m_over_t, genus, inst.order * t, row.provenance, tag)
        return rec

    @cached_property
    def records(self):
        return tuple(map(self._record, range(len(self._lifts))))

    def witness_for(self, genus):
        i = self._best.get(genus)
        return None if i is None else self._record(i)

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

    def witness_labels(self):
        """Yield (genus, its witness's label) in genus order, building no GenusRecord."""
        prefixes = {}
        for genus in self.genera:
            row, t = self._lifts[self._best[genus]][:2]
            prefix = prefixes.get(id(row))  # rows are shared by many lifts
            if prefix is None:
                prefix = prefixes[id(row)] = _label_prefix(row.inst.family, row.inst.params)
            yield genus, "%s%d]" % (prefix, t)

    def to_csv(self):
        return _csv_rows(chain([("genus", "witness")], self.witness_labels()))


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


@dataclass(frozen=True, slots=True)
class QuotientRow:
    """One catalog instance's (g_bar, n_orbits, s) at its q, which no n changes.

    g_bar is None where formula mode has no closed form.  checks holds
    verify_all's (name, flag) pairs and mismatch the first (kind, formula,
    oracle) spectrum raises; formula rows have neither.  Rows hold no subgroup.
    """

    inst: object
    g_bar: object
    n_orbits: object
    s: int
    provenance: str
    checks: tuple = ()
    mismatch: tuple = None


_CHECKS = ("order_ok", "s_ok", "n_ok", "tame_genus_ok", "burnside_ok", "tail_ok")


def _certify(inst):
    """Instantiate inst once, run every named check on it and drop it: an oracle row.

    fails keeps spectrum's raise order; an exception is kept as text only.
    """
    checks = {"instance": inst.label(), **dict.fromkeys(_CHECKS)}
    tame, g_bar, n_oracle, provenance, fails = inst.tame, None, None, None, []
    try:
        sub = instantiate(inst)
        # instantiate raises unless it certified the order and the determinant image
        checks["order_ok"] = checks["s_ok"] = True
        closed = inst.genus_orbits()
        n_oracle = sub.n_orbits()
        g_bar = sub.tame_genus() if tame else closed and closed[0]
        provenance = "oracle" if closed is None else "both"
        burnside = _burnside_orbits(sub)
        if burnside is not None:
            checks["burnside_ok"] = burnside == n_oracle
            if tame and burnside != n_oracle:
                shown = int(burnside) if burnside.denominator == 1 else str(burnside)
                fails.append(("tame-orbit-identity", shown, n_oracle))
        if closed is None and not tame:
            fails.append(("missing-closed-form", None, n_oracle))
        if closed is not None and tame:
            checks["tame_genus_ok"] = closed[0] == g_bar
            if closed[0] != g_bar:
                fails.append(("tame-genus", closed[0], g_bar))
        if closed is not None:
            checks["n_ok"] = closed[1] == n_oracle
            if closed[1] != n_oracle:
                fails.append(("orbit-count", closed[1], n_oracle))
        w = inst.param_dict.get("w")
        if w is not None:
            checks["tail_ok"] = sub.z1_intersection_order() == w
    except Exception as exc:  # noqa: BLE001 - kept as text; spectrum raises it
        checks["error"] = "%s: %s" % (type(exc).__name__, exc)
        fails.append(("certification-error", None, checks["error"]))
    return QuotientRow(inst, g_bar, n_oracle, s_of(inst), provenance,
                       tuple(checks.items()), fails[0] if fails else None)


@lru_cache(maxsize=None)
def quotient_table(q):
    """One QuotientRow per instance of _instances(q), in order, built once per q.

    Oracle mode certifies every instance once; formula mode evaluates every
    closed form once.  The table is cached and shared; treat it as read-only.
    """
    if q <= SMALL_Q_LIMIT:
        return tuple(_certify(inst) for inst in _instances(q))
    return tuple(QuotientRow(inst, *(inst.genus_orbits() or (None, None)), s_of(inst), "formula")
                 for inst in _instances(q))


@lru_cache(maxsize=None)
def spectrum(q, n):
    """Every genus reachable from the catalog at (q, n), with witnesses.

    Lifts the rows of quotient_table(q), with the kernel orders t, m/t and
    tags computed once per distinct s.  The report is cached and shared;
    treat it as read-only.
    """
    m = formulas.m_of(q, n)
    _instances(q)  # checks the q bound before m is factored
    formulas.divisors_of_m(q, n)  # reject an m the budget cannot factor before any instance
    oracle_mode = q <= SMALL_Q_LIMIT
    mode = "oracle" if oracle_mode else "formula"
    complete = oracle_mode and gcd(q + 1, n) == 1

    by_s = {}  # s -> [(t, m // t, completeness tag)]
    lifts = []
    for row in quotient_table(q):
        inst = row.inst
        if row.mismatch is not None:
            raise _mismatch(inst, *row.mismatch)
        g_bar, n_orbits, s = row.g_bar, row.n_orbits, row.s
        if g_bar is None:
            continue
        by_t = by_s.get(s)
        if by_t is None:
            by_t = by_s[s] = []
            admissible = set(formulas.admissible_cm_orders(q, n, s))
            for t in formulas.candidate_cm_orders(q, n, s):
                formulas._check_divisor(t, m, "cm_order")  # what lift_genus checks per call
                tag = "genus-complete" if t in admissible else "constructed-only"
                by_t.append((t, m // t, tag))
        tame = inst.tame
        for t, m_over_t, tag in by_t:
            genus = formulas.lift_genus_by_degree(g_bar, n_orbits, m_over_t)
            if tame:
                tame_genus = formulas.lift_genus_tame(q, n, g_bar, inst.order, t)
                if tame_genus != genus:
                    raise _mismatch(inst, "lift-identity", tame_genus, genus)
            lifts.append((row, t, m_over_t, tag, genus))
    return SpectrumReport(q, n, m, mode, complete, lifts)


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
    return formulas.quotient_data(sub.ctx.q, sub.order, sub.census)[1]


def row_passed(row):
    """Verdict of one verify_all row: no error and no failed check."""
    return "error" not in row and not any(v is False for v in row.values())


def verify_all(q):
    """The pass/None flags of quotient_table(q), one row per instance; never raises.

    order_ok and s_ok come from instantiate's own certification of the order
    and determinant image, so they read True once it returns; a build or check
    that raises leaves an error entry.  n_ok and tame_genus_ok need a closed
    form, burnside_ok a materialized subgroup, tail_ok a family with a w.
    """
    report = {"schema": VERIFY_SCHEMA, "q": q, "rejected": False}
    try:
        _instances(q)
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

    checks = [dict(row.checks) for row in quotient_table(q)]
    failures = sum(1 for row in checks if not row_passed(row))
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
