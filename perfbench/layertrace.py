"""Layer tracing for the benchmark, applied from outside the package.

`install(tracer)` replaces each layer's public functions with wrappers that
record into `tracer`, at every place the function is reachable by name:
`engine` binds `instantiate`, `enumerate_instances` and `s_of` at import time
and `catalog` binds `closure`, so patching only the defining module would
miss those calls.  Methods are patched on their class, which every caller
reaches.  `uninstall()` puts the originals back.

Layer boundaries get spans (name, start, end, parent, op); leaf calls made
hundreds of thousands of times per run (`FieldCtx.add`/`mul`,
`MlContext.compose`, the lifting rules) get plain counters.  Spans stay in
memory and are reduced to per-layer metrics by `layer_metrics` when the run
ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

_perf = time.perf_counter


class Tracer:
    """In-memory spans and counters for one traced process."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, op id)
        self.counts = defaultdict(int)
        self.op = -1
        self._stack = []

    def open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, _perf(), None, parent, self.op))
        self._stack.append(idx)
        return idx

    def close(self, idx):
        name, start, _, parent, op = self.spans[idx]
        self.spans[idx] = (name, start, _perf(), parent, op)
        self._stack.pop()


def covered(intervals, start, end):
    """Length of [start, end] covered by the union of the given intervals."""
    total = 0.0
    cur_a = cur_b = None
    for a, b in sorted((max(a, start), min(b, end)) for a, b in intervals):
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Each span's duration minus the time its child spans cover."""
    children = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - covered(children.get(i, ()), start, end)
        for i, (_, start, end, _, _) in enumerate(spans)
    ]


def outermost_totals(spans):
    """Per-name total duration and call count, counting nested same-name spans once."""
    totals = defaultdict(float)
    calls = defaultdict(int)
    for i, (name, start, end, parent, _) in enumerate(spans):
        calls[name] += 1
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            totals[name] += end - start
    return totals, calls


# -- wrappers ------------------------------------------------------------------


def _spanned(tracer, name, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(args, out)
        return out

    return wrapper


def _counted(tracer, key, fn):
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    return wrapper


def _closure_wrapper(tracer, fn):
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        before = counts["mlgroup.compose"]
        idx = tracer.open("mlgroup.closure")
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        counts["mlgroup.closure_compose"] += counts["mlgroup.compose"] - before
        counts["mlgroup.closure_elements"] += len(out)
        return out

    return wrapper


def _cache_miss_hook(fn, on_miss):
    """Call on_miss(args, out) only when the lru_cache-wrapped fn computed out."""
    state = {"misses": fn.cache_info().misses}

    def after(args, out):
        misses = fn.cache_info().misses
        if misses != state["misses"]:
            state["misses"] = misses
            on_miss(args, out)

    return after


_saved = []  # (owner, attribute, original) for uninstall


def _patch(owner, attr, make):
    original = owner.__dict__[attr]
    _saved.append((owner, attr, original))
    setattr(owner, attr, make(original))


def _patch_sites(modules, attr, make):
    """Patch one function object at every module that binds it by name."""
    original = getattr(modules[0], attr)
    wrapped = make(original)
    for mod in modules:
        if getattr(mod, attr) is not original:
            raise RuntimeError("%s.%s is not the expected function" % (mod.__name__, attr))
        _saved.append((mod, attr, original))
        setattr(mod, attr, wrapped)


def install(tracer):
    """Wrap every layer's public entry points so they record into tracer."""
    if _saved:
        raise RuntimeError("tracing is already installed")
    m = {name: importlib.import_module("gk2genus." + name)
         for name in ("gf", "hermitian", "mlgroup", "catalog", "formulas", "engine", "cli")}
    counts = tracer.counts

    def span(name):
        return lambda fn: _spanned(tracer, name, fn)

    def count(key):
        return lambda fn: _counted(tracer, key, fn)

    # gf: field construction is the span; scalar ops are leaf counters
    _patch(m["gf"].FieldCtx, "__init__", span("gf.field_build"))
    _patch(m["gf"].FieldCtx, "add", count("gf.add"))
    _patch(m["gf"].FieldCtx, "mul", count("gf.mul"))

    # hermitian: point-set construction
    def count_points(args, out):
        counts["hermitian.points"] += len(args[0].points)

    _patch(m["hermitian"].HermitianPointSet, "__init__",
           lambda fn: _spanned(tracer, "hermitian.points_build", fn, count_points))

    # mlgroup: context build (ml_context and structure()), closure, orbits, classify
    ml = m["mlgroup"].MlContext
    _patch(ml, "__init__", span("mlgroup.context_build"))
    _patch(ml, "_ensure_structure", span("mlgroup.context_build"))
    _patch(ml, "compose", count("mlgroup.compose"))
    _patch(ml, "orbit_counts", span("mlgroup.orbit_counts"))
    _patch(ml, "perm_of", span("mlgroup.perm_of"))
    _patch(ml, "classify", span("mlgroup.classify"))
    _patch(ml, "tame_quotient_genus", span("mlgroup.tame_genus"))
    _patch_sites([m["mlgroup"], m["catalog"]], "closure",
                 lambda fn: _closure_wrapper(tracer, fn))

    # catalog: enumeration (counted on cache misses) and instantiation
    enum_fn = m["catalog"].enumerate_instances

    def count_instances(args, out):
        counts["catalog.instances"] += len(out)

    _patch_sites([m["catalog"], m["engine"], m["cli"]], "enumerate_instances",
                 lambda fn: _spanned(tracer, "catalog.enumerate", fn,
                                     _cache_miss_hook(fn, count_instances)))
    _patch_sites([m["catalog"], m["engine"]], "instantiate", span("catalog.instantiate"))
    _patch_sites([m["catalog"], m["engine"]], "s_of", span("catalog.s_of"))

    # formulas: closed forms, kernel-order candidates, lifting rules
    fm = m["formulas"]
    closed_forms = [name for name, fn in vars(fm).items()
                    if "_quotient" in name and not name.startswith("_") and callable(fn)]
    for attr in closed_forms:
        _patch(fm, attr, span("formulas.closed_form"))
    for attr in ("candidate_cm_orders", "admissible_cm_orders"):
        _patch(fm, attr, span("formulas.cm_orders"))
    for attr in ("lift_genus", "lift_genus_tame"):
        _patch(fm, attr, count("formulas.lift"))

    # engine: spectrum (records and instance use counted on cache misses)
    eng = m["engine"]

    def count_records(args, out):
        counts["engine.records"] += len(out.records)
        counts["engine.instances_used"] += len({(r.family, r.params) for r in out.records})
        counts["engine.instances_enumerated"] += len(enum_fn(out.q))

    _patch_sites([eng, m["cli"]], "spectrum",
                 lambda fn: _spanned(tracer, "engine.spectrum", fn,
                                     _cache_miss_hook(fn, count_records)))
    for attr in ("check_table", "classify_elements"):
        _patch_sites([eng, m["cli"]], attr, span("engine." + attr))

    # cli: rendering of reports
    for cls, attr in ((eng.SpectrumReport, "to_csv"), (eng.SpectrumReport, "to_json"),
                      (eng.TableCheck, "to_dict")):
        _patch(cls, attr, span("cli.render"))
    for attr in ("_json", "_csv_rows", "_emit"):
        _patch(m["cli"], attr, span("cli.render"))


def uninstall():
    """Restore every original patched by install()."""
    while _saved:
        owner, attr, original = _saved.pop()
        setattr(owner, attr, original)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer):
    """Reduce spans and counters to the per-layer metrics, by name."""
    spans = tracer.spans
    totals, calls = outermost_totals(spans)
    selfs = self_times(spans)
    self_by_name = defaultdict(float)
    for (name, *_), s in zip(spans, selfs):
        self_by_name[name] += s
    c = tracer.counts
    return {
        "gf.field_build_s": totals["gf.field_build"],
        "gf.fields_built": calls["gf.field_build"],
        "gf.add_calls": c["gf.add"],
        "gf.mul_calls": c["gf.mul"],
        "hermitian.points_build_s": totals["hermitian.points_build"],
        "hermitian.points": c["hermitian.points"],
        "mlgroup.context_build_s": totals["mlgroup.context_build"],
        "mlgroup.closure_s": totals["mlgroup.closure"],
        "mlgroup.closure_calls": calls["mlgroup.closure"],
        "mlgroup.closure_elements": c["mlgroup.closure_elements"],
        "mlgroup.compose_calls": c["mlgroup.compose"],
        "mlgroup.closure_yield": _ratio(c["mlgroup.closure_elements"],
                                        c["mlgroup.closure_compose"]),
        "mlgroup.orbit_counts_s": totals["mlgroup.orbit_counts"],
        "mlgroup.orbit_counts_calls": calls["mlgroup.orbit_counts"],
        "mlgroup.perm_of_s": totals["mlgroup.perm_of"],
        "mlgroup.perm_of_calls": calls["mlgroup.perm_of"],
        "mlgroup.classify_s": totals["mlgroup.classify"],
        "mlgroup.classify_calls": calls["mlgroup.classify"],
        "mlgroup.tame_genus_s": totals["mlgroup.tame_genus"],
        "catalog.enumerate_s": totals["catalog.enumerate"],
        "catalog.instances": c["catalog.instances"],
        "catalog.instantiate_s": self_by_name["catalog.instantiate"],
        "catalog.instantiate_calls": calls["catalog.instantiate"],
        "formulas.closed_form_s": totals["formulas.closed_form"],
        "formulas.cm_orders_s": totals["formulas.cm_orders"],
        "formulas.lift_calls": c["formulas.lift"],
        "engine.spectrum_s": totals["engine.spectrum"],
        "engine.self_s": sum(self_by_name[n] for n in self_by_name if n.startswith("engine.")),
        "engine.records": c["engine.records"],
        "engine.instances_used_ratio": _ratio(c["engine.instances_used"],
                                              c["engine.instances_enumerated"]),
        "cli.render_s": totals["cli.render"],
    }
