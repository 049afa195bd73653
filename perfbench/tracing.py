"""Span tracing from outside the package: wrappers, self times and counters.

The traced run replaces each listed layer function with a wrapper in every
``mediation_bounds`` module namespace that holds a reference to it (for
example ``cli.from_units`` and ``model.from_units`` are both rebound), so a
call is recorded whichever name it was looked up under.  Each call becomes one
span: name, start, end, parent span and operation id.  Spans stay in memory
until the run ends.  A layer's self time is its span duration minus the part
of that interval covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field

from mediation_bounds.model import AssumptionIncompatibilityError, Method

# (module, attribute path, span name, extra counters).  Several functions may
# share one span name; cli.serialize covers all three output formats.
LAYERS = (
    ("cli", "run", "cli.run", ()),
    ("cli", "ingest", "cli.ingest", ("rows_read", "rows_dropped")),
    ("cli", "AnalysisReport.to_json_text", "cli.serialize", ("bytes",)),
    ("cli", "emit_csv", "cli.serialize", ("bytes",)),
    ("cli", "emit_plotdata", "cli.serialize", ("bytes",)),
    ("model", "from_units", "model.from_units", ("records",)),
    ("model", "from_counts", "model.from_counts", ()),
    ("closed_form", "bounds_no_assumption", "closed_form.bounds_no_assumption", ()),
    ("closed_form", "bounds_mmr", "closed_form.bounds_mmr", ()),
    ("closed_form", "bounds_mmr_pos_mediator", "closed_form.bounds_mmr_pos_mediator", ()),
    ("closed_form", "ande_bounds", "closed_form.ande_bounds", ()),
    ("lp_engine", "anie_bounds_lp", "lp_engine.anie_bounds_lp", ("infeasible",)),
    ("lp_engine", "solve", "lp_engine.solve", ()),
    ("inference", "clr_bounds", "inference.clr_bounds", ("records", "errors", "smoothed")),
    ("inference", "estimate_distribution", "inference.estimate_distribution", ()),
    ("inference", "ate_test", "inference.ate_test", ()),
    ("inference", "iot_test", "inference.iot_test", ()),
)

# Counters derived from bounds_mmr_pos_mediator results: how often its LP
# cross-check ran, and how often the LP values replaced the printed form.
DERIVED = (
    ("closed_form.lp_cross_checks", "count"),
    ("closed_form.lp_override", "count"),
    ("closed_form.lp_override_ratio", "ratio"),
)
RUN_TOTALS = (("trace.total_s", "s"), ("trace.untraced_s", "s"), ("trace.overhead_s", "s"), ("trace.spans", "count"))

PACKAGE = "mediation_bounds"


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, as (name, unit)."""
    counters: dict[str, list[str]] = {}
    for _, _, name, extra in LAYERS:
        known = counters.setdefault(name, [])
        known += [c for c in extra if c not in known]
    out: list[tuple[str, str]] = []
    for name, extra in counters.items():
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
        out += [(f"{name}.{c}", "bytes" if c == "bytes" else "count") for c in extra]
    return out + list(DERIVED) + list(RUN_TOTALS)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a top-level span
    op: int


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per-name sum of span duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(span)
    totals: dict[str, float] = {}
    for i, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(i, ()), key=lambda s: s.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        totals[span.name] = totals.get(span.name, 0.0) + (span.end - span.start) - covered
    return totals


@dataclass
class Recorder:
    """Collects spans and counters while wrappers are installed."""

    spans: list[Span] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    op: int = -1
    _stack: list[int] = field(default_factory=list)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def call(self, name: str, fn, args, kwargs, observe):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter(), 0.0, parent, self.op)
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            span.end = time.perf_counter()
            self._stack.pop()
            observe(self, args, kwargs, None, exc)
            raise
        span.end = time.perf_counter()
        self._stack.pop()
        observe(self, args, kwargs, result, None)
        return result


def _observe_ingest(rec, args, kwargs, result, exc):
    if result is not None:
        datasets, n_rows, _ = result
        rec.count("cli.ingest.rows_read", n_rows)
        rec.count("cli.ingest.rows_dropped", sum(d.n_dropped for d in datasets))


def _observe_serialize(rec, args, kwargs, result, exc):
    if result is not None:
        rec.count("cli.serialize.bytes", len(result.encode("utf-8")))


def _observe_from_units(rec, args, kwargs, result, exc):
    rec.count("model.from_units.records", len(args[0]))


def _observe_pos(rec, args, kwargs, result, exc):
    if result is None or result.incompatible or not kwargs.get("check_lp", True):
        return
    rec.count("closed_form.lp_cross_checks")
    if result.method is Method.LP:
        rec.count("closed_form.lp_override")


def _observe_anie_lp(rec, args, kwargs, result, exc):
    if isinstance(exc, AssumptionIncompatibilityError):
        rec.count("lp_engine.anie_bounds_lp.infeasible")


def _observe_clr(rec, args, kwargs, result, exc):
    rec.count("inference.clr_bounds.records", len(args[0]))
    if exc is not None:
        rec.count("inference.clr_bounds.errors")
    elif result.smoothed_arms:
        rec.count("inference.clr_bounds.smoothed")


def _observe_nothing(rec, args, kwargs, result, exc):
    pass


_OBSERVERS = {
    "cli.ingest": _observe_ingest,
    "cli.serialize": _observe_serialize,
    "model.from_units": _observe_from_units,
    "closed_form.bounds_mmr_pos_mediator": _observe_pos,
    "lp_engine.anie_bounds_lp": _observe_anie_lp,
    "inference.clr_bounds": _observe_clr,
}


class LayerMissingError(RuntimeError):
    """A listed layer function no longer exists in the package."""


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(f"{PACKAGE}.{module_name}")
    *outer, attr = path.split(".")
    try:
        for part in outer:
            owner = getattr(owner, part)
        fn = getattr(owner, attr)
    except AttributeError:
        raise LayerMissingError(f"layer function {module_name}.{path} no longer exists") from None
    return owner, attr, fn


class Installed:
    """Context manager that rebinds every listed layer function to a span wrapper."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> Recorder:
        targets = [_resolve(module, path) + (name,) for module, path, name, _ in LAYERS]
        namespaces = [
            mod for key, mod in sorted(sys.modules.items())
            if key == PACKAGE or key.startswith(PACKAGE + ".")
        ]
        for owner, attr, fn, name in targets:
            wrapper = self._wrap(name, fn)
            rebound = [(owner, attr)] if isinstance(owner, type) else []
            for mod in namespaces:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        rebound.append((mod, key))
            for holder, key in rebound:
                self._undo.append((holder, key, fn))
                setattr(holder, key, wrapper)
        return self.recorder

    def __exit__(self, *exc_info) -> None:
        for holder, key, fn in reversed(self._undo):
            setattr(holder, key, fn)
        self._undo.clear()

    def _wrap(self, name: str, fn):
        recorder = self.recorder
        observe = _OBSERVERS.get(name, _observe_nothing)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return recorder.call(name, fn, args, kwargs, observe)

        return wrapper


def layer_metrics(recorder: Recorder, traced_total: float, untraced_total: float) -> dict[str, float]:
    """Per-layer metric values; layers never entered report zero."""
    calls: dict[str, int] = {}
    for span in recorder.spans:
        calls[span.name] = calls.get(span.name, 0) + 1
    selfs = self_times(recorder.spans)
    values: dict[str, float] = {}
    for name, _unit in per_layer_metrics():
        if name.endswith(".calls"):
            values[name] = calls.get(name[: -len(".calls")], 0)
        elif name.endswith(".self_s"):
            values[name] = selfs.get(name[: -len(".self_s")], 0.0)
        else:
            values[name] = recorder.counters.get(name, 0)
    checks = values["closed_form.lp_cross_checks"]
    values["closed_form.lp_override_ratio"] = values["closed_form.lp_override"] / checks if checks else 0.0
    values["trace.total_s"] = traced_total
    values["trace.untraced_s"] = traced_total - sum(selfs.values())
    values["trace.overhead_s"] = traced_total - untraced_total
    values["trace.spans"] = len(recorder.spans)
    return values
