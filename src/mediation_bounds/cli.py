"""Command-line surface: CSV in, bounds + inference out.

One invocation analyzes one or more mediator columns against a binary
treatment and outcome: dichotomization (optional), sharp bounds under each
requested assumption set (one evaluation of the bound table per set), natural
direct effect bounds by decomposition, intersection-bounds inference, and the
ATE/mediator-ATE Wald tests.   Output is a versioned JSON report, a flat CSV,
or figure-ready plotdata rows.

Exit codes: 0 success, 2 configuration error, 3 data error,
4 assumption incompatibility (only with --strict; otherwise incompatibility is
reported in-band and the run succeeds).
"""

from __future__ import annotations

import argparse
import codecs
import csv
import io
import json
import re
import sys
from dataclasses import asdict, dataclass, field

import numpy as np
from numpy.dtypes import StringDType

from . import __version__
from .closed_form import ande_bounds, anie_bounds
from .inference import InferenceConfig, IntervalEstimate, WaldResult, ate_test, clr_bounds, iot_test
from .model import (
    MAX_TOTAL,
    AssumptionIncompatibilityError,
    Assumptions,
    BoundsResult,
    EstimandSpec,
    ValidationError,
    cell_counts,
    from_counts,
    from_units,  # not used here; perfbench's tracing tests call cli.from_units
)

SCHEMA = "mediation-bounds/4"
_MISSING_TOKENS = ("", "na", "nan", "null", "none")  # matched after strip, case-insensitively
# Per byte: 0 if a blank line may hold it (ASCII whitespace as str.strip()
# sees it, or a comma), 1 if it is a quote mark or part of a non-ASCII
# character, 2 otherwise.
_BYTE_KIND = bytes(
    0 if chr(c).isspace() or chr(c) == "," else 1 if c == ord('"') or c > 127 else 2 for c in range(256)
)
_COLUMNS_CHANGED = re.compile(r"changed from (\d+) to (\d+) at row (\d+)")
_METHOD_NAMES = {
    Assumptions.NONE: "bounds-none",
    Assumptions.MMR: "bounds-mmr",
    Assumptions.MMR_POS_MEDIATOR: "bounds-mmr-pos",
}


class ConfigError(Exception):
    """Bad flags or an unusable configuration; exit code 2."""


class DataError(Exception):
    """Unusable data file contents; exit code 3."""


@dataclass(frozen=True)
class RunConfig:
    """Everything one run needs; immutable so reports can echo it verbatim."""

    data: str | None
    treatment: str
    outcome: str
    mediators: tuple[str, ...]
    dichotomize: str
    assumptions: tuple[Assumptions, ...]
    reference: int
    alpha: float
    draws: int
    seed: int
    format: str
    counts: tuple[int, ...] | None = None
    strict: bool = False

    def __post_init__(self) -> None:
        try:
            InferenceConfig(alpha=self.alpha, draws=self.draws, seed=self.seed)
        except ValidationError as exc:
            raise ConfigError(str(exc)) from None
        if self.reference not in (0, 1):
            raise ConfigError(f"reference must be 0 or 1, got {self.reference}")
        if self.format not in ("json", "csv", "plotdata"):
            raise ConfigError(f"format must be json, csv, or plotdata, got {self.format!r}")
        if not self.assumptions:
            raise ConfigError("at least one assumption set is required")
        if self.counts is None:
            if self.data is None:
                raise ConfigError("either --data or --counts is required")
            if not self.mediators:
                raise ConfigError("at least one mediator column is required")
        elif self.data is not None:
            raise ConfigError("--data and --counts are mutually exclusive")


def _parse_rule(text: str) -> tuple[str, float | None]:
    # -> (kind, threshold); kind in {"none", "median-gt", "threshold"}
    if text == "none":
        return "none", None
    if text == "median-gt":
        return "median-gt", None
    if text.startswith("threshold:"):
        raw = text[len("threshold:") :]
        try:
            return "threshold", float(raw)
        except ValueError:
            raise ConfigError(f"bad threshold value {raw!r} in dichotomize rule {text!r}") from None
    raise ConfigError(f"unknown dichotomize rule {text!r} (expected none, median-gt, or threshold:x)")


def _rule_table(spec_text: str, columns: list[str]) -> dict[str, tuple[str, float | None]]:
    """Resolve --dichotomize into a per-column rule map.

    The flag is either one global rule applied to the outcome and mediators
    (never the treatment, which must already be 0/1) or a comma list of
    col=rule overrides, which may target any column including the treatment.
    """
    table = {col: ("none", None) for col in columns}
    if not spec_text:
        return table
    parts = [p.strip() for p in spec_text.split(",") if p.strip()]
    overrides = [p for p in parts if "=" in p]
    globals_ = [p for p in parts if "=" not in p]
    if globals_ and overrides:
        raise ConfigError("--dichotomize takes either one global rule or col=rule entries, not both")
    if globals_:
        if len(globals_) > 1:
            raise ConfigError(f"multiple global dichotomize rules: {globals_}")
        rule = _parse_rule(globals_[0])
        for col in columns[1:]:  # columns[0] is the treatment
            table[col] = rule
        return table
    for part in overrides:
        col, _, rule_text = part.partition("=")
        col = col.strip()
        if col not in table:
            raise ConfigError(f"dichotomize rule targets unknown column {col!r}")
        table[col] = _parse_rule(rule_text.strip())
    return table


def _lower_median(values: np.ndarray) -> float:
    # Lower-median convention: for even counts take the smaller middle value,
    # so the median is always an observed value and > comparisons stay crisp.
    ordered = np.sort(values)
    return float(ordered[(ordered.size - 1) // 2])


@dataclass
class _Column:
    name: str
    binary: np.ndarray  # uint8, valid where ~missing
    missing: np.ndarray
    rule_text: str


def _load_cells(body: bytes) -> np.ndarray:
    # A fresh StringDType for each call: loadtxt keeps long strings in the
    # arena of the dtype instance it is given, and arrays sharing one
    # instance corrupt each other's strings.
    stream = io.TextIOWrapper(io.BytesIO(body), encoding="utf-8")
    return np.loadtxt(stream, delimiter=",", quotechar='"', comments=None, dtype=StringDType(), ndmin=2)


def _is_blank(record: bytes) -> bool:
    try:
        cells = _load_cells(record)
    except ValueError:
        return False  # left for the full read to report
    return not np.strings.strip(cells).astype(bool).any()


def _record_starts(b: np.ndarray) -> np.ndarray:
    """Offsets of the lines of ``b`` that start a record rather than continue a quoted cell."""
    starts = np.concatenate(([0], np.flatnonzero(b == ord("\n")) + 1))
    starts = starts[starts < b.size]
    # Only a run of quote marks of odd length changes the parser's state. At
    # a field start it opens or closes a quoted cell; inside a field it
    # closes an open cell and is text otherwise. So a line starts inside a
    # quoted cell when an odd number of field-start runs follow the last
    # inside-field run before it.
    quotes = np.flatnonzero(b == ord('"'))
    first = np.flatnonzero(np.diff(quotes, prepend=-2) != 1)
    odd = np.diff(first, append=quotes.size) % 2 == 1
    at = quotes[first]
    field_start = (at == 0) | np.isin(b[at - 1], (ord(","), ord("\n")))
    toggles = np.concatenate(([0], np.cumsum(odd & field_start)))
    closes = np.where(odd & ~field_start, np.arange(1, at.size + 1), 0)
    last_close = np.maximum.accumulate(np.concatenate(([0], closes)))
    runs = np.searchsorted(at, starts)
    inside = (toggles[runs] - toggles[last_close[runs]]) % 2 == 1
    return starts[~inside]


def _drop_blank_lines(body: bytes) -> bytes:
    """``body`` without the records whose every cell is empty or whitespace."""
    b = np.frombuffer(body, dtype=np.uint8)
    starts = _record_starts(b)
    lengths = np.diff(starts, append=b.size)
    kind = np.maximum.reduceat(np.frombuffer(body.translate(_BYTE_KIND), dtype=np.uint8), starts)
    blank = kind == 0
    # Quote marks and non-ASCII whitespace such as U+00A0 need the parser to
    # tell; records of only those and blanks are few, so parse each.
    for i in np.flatnonzero(kind == 1):
        blank[i] = _is_blank(body[starts[i] : starts[i] + lengths[i]])
    return b[np.repeat(~blank, lengths)].tobytes()


def _read_table(path: str, columns: list[str]) -> tuple[dict[str, np.ndarray], int]:
    """The unstripped string cells of ``columns``, one per non-blank data row, and the row count."""
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if raw.startswith(codecs.BOM_UTF8):
        raw = raw[len(codecs.BOM_UTF8) :]
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{path} is not valid UTF-8: line {line}, byte {exc.start}: {exc.reason}") from None
    if not raw:
        raise DataError(f"{path} is empty")
    if b"\r" in raw:
        raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    header_line, _, body = raw.partition(b"\n")
    del raw
    header = [h.strip() for h in next(csv.reader([header_line.decode("utf-8")]))]
    for col in columns:
        if col not in header:
            raise ConfigError(f"column {col!r} not found in {path} (header: {header})")
        if header.count(col) > 1:
            raise DataError(f"column {col!r} appears {header.count(col)} times in the header of {path}")
    body = _drop_blank_lines(body)
    if not body:
        raise DataError(f"{path} has a header but no data rows")
    width = len(header)
    try:
        table = _load_cells(body)
    except ValueError as exc:
        # loadtxt requires every row to have the first row's field count.
        changed = _COLUMNS_CHANGED.search(str(exc))
        if changed is None:
            raise DataError(f"{path}: {exc}") from None
        first, found, row = (int(g) for g in changed.groups())
        if first != width:
            found, row = first, 1
        raise DataError(f"row {row + 1}: {found} fields, but the header has {width}") from None
    if table.shape[1] != width:
        raise DataError(f"row 2: {table.shape[1]} fields, but the header has {width}")
    return {col: table[:, header.index(col)] for col in columns}, table.shape[0]


def _parse_numbers(name: str, cells: np.ndarray) -> np.ndarray:
    """The float value of each cell after stripping, NaN for a missing token."""
    values = np.full(cells.size, np.nan)
    # Cells exactly "0" or "1" need no stripping; the rest are stripped first.
    zero = cells == "0"
    one = cells == "1"
    values[zero] = 0.0
    values[one] = 1.0
    rest = np.flatnonzero(~(zero | one))
    tokens = np.strings.strip(cells[rest])
    # Missing tokens are empty or alphabetic, so only those cells are case-folded.
    maybe = np.flatnonzero(np.strings.isalpha(tokens) | (tokens == ""))
    numeric = np.ones(rest.size, dtype=bool)
    numeric[maybe[np.isin(np.strings.lower(tokens[maybe]), _MISSING_TOKENS)]] = False
    rest, tokens = rest[numeric], tokens[numeric]
    try:
        values[rest] = tokens.astype(np.float64)
    except ValueError:
        # numpy's string-to-float cast accepts exactly what float() accepts.
        for row, token in zip(rest.tolist(), tokens.tolist()):
            try:
                float(token)
            except ValueError:
                raise DataError(f"row {row + 2}: non-numeric value {token!r} in column {name!r}") from None
        raise
    return values


def _dichotomize(name: str, cells: np.ndarray, rule: tuple[str, float | None]) -> _Column:
    kind, threshold = rule
    values = _parse_numbers(name, cells)
    missing = np.isnan(values)
    if missing.all():
        raise DataError(f"column {name!r} has no non-missing values")
    observed = values[~missing]
    if kind == "none":
        bad = ~np.isin(observed, (0.0, 1.0))
        if bad.any():
            row = int(np.flatnonzero(~missing)[np.flatnonzero(bad)[0]])
            raise DataError(
                f"row {row + 2}: column {name!r} has non-binary value {observed[np.flatnonzero(bad)[0]]:g} "
                "with dichotomize rule 'none'"
            )
        binary = np.where(missing, 0, values == 1.0).astype(np.uint8)
        rule_text = "none"
    elif kind == "median-gt":
        # Median over non-missing values, before any cross-column row dropping.
        med = _lower_median(observed)
        binary = np.where(missing, 0, values > med).astype(np.uint8)
        rule_text = f"median-gt(median={med:g})"
    else:
        binary = np.where(missing, 0, values > threshold).astype(np.uint8)
        rule_text = f"threshold:{threshold:g}"
    return _Column(name=name, binary=binary, missing=missing, rule_text=rule_text)


@dataclass
class MediatorData:
    name: str
    counts: np.ndarray  # (8,) cell counts in from_counts order
    n_dropped: int
    rules: dict[str, str]


def ingest(path: str, config: RunConfig) -> tuple[list[MediatorData], int, np.ndarray]:
    """Read and dichotomize the data file, and tabulate it.

    Returns per-mediator complete-case cell counts (listwise deletion over
    treatment, outcome, and that mediator only), the total row count, and the
    (a, 0, y) cell counts of the rows complete in treatment and outcome, which
    anchor the run-level ATE reference line.
    """
    columns = [config.treatment, config.outcome, *config.mediators]
    if len(set(columns)) != len(columns):
        raise ConfigError(f"duplicate column names in {columns}")
    rules = _rule_table(config.dichotomize, columns)
    raw, n_rows = _read_table(path, columns)
    cols = {name: _dichotomize(name, raw[name], rules[name]) for name in columns}

    treat, out = cols[config.treatment], cols[config.outcome]
    ay_mask = ~(treat.missing | out.missing)
    if not ay_mask.any():
        raise DataError("no rows with both treatment and outcome observed")
    ay_counts = cell_counts(treat.binary[ay_mask], 0, out.binary[ay_mask])

    result = []
    for name in config.mediators:
        med = cols[name]
        keep = ay_mask & ~med.missing
        n_used = int(keep.sum())
        if n_used == 0:
            raise DataError(f"mediator {name!r}: all rows dropped by missing-value filtering")
        result.append(
            MediatorData(
                name=name,
                counts=cell_counts(treat.binary[keep], med.binary[keep], out.binary[keep]),
                n_dropped=n_rows - n_used,
                rules={
                    config.treatment: treat.rule_text,
                    config.outcome: out.rule_text,
                    name: med.rule_text,
                },
            )
        )
    return result, n_rows, ay_counts


@dataclass
class AssumptionResult:
    assumptions: Assumptions
    reference: int
    bounds: BoundsResult
    ande: BoundsResult
    inference: IntervalEstimate


@dataclass
class MediatorReport:
    name: str
    n_used: int
    n_dropped: int
    n1: int
    n0: int
    counts: tuple[int, ...]
    rules: dict[str, str]
    ate: WaldResult
    iot: WaldResult
    results: list[AssumptionResult]


@dataclass
class AnalysisReport:
    config: RunConfig
    n_rows: int
    ate: WaldResult  # run-level, anchors the plotdata reference line
    mediators: list[MediatorReport] = field(default_factory=list)

    def to_json_text(self) -> str:
        return json.dumps(_report_dict(self), indent=2) + "\n"


def _analyze_mediator(data: MediatorData, config: RunConfig, seed: int) -> MediatorReport:
    counts = data.counts
    dist = from_counts(counts)
    inf_config = InferenceConfig(alpha=config.alpha, draws=config.draws, seed=seed)
    sets = []
    for assumptions in config.assumptions:
        spec = EstimandSpec(
            reference=config.reference, assumptions=assumptions, mediator_effect_sign=1
        )
        bounds = anie_bounds(dist, spec)
        if bounds.incompatible and config.strict:
            raise AssumptionIncompatibilityError(
                f"mediator {data.name!r}: data are incompatible with assumption set "
                f"{assumptions.value!r} (--strict)"
            )
        sets.append((spec, bounds, ande_bounds(dist, 1 - config.reference, bounds)))
    # The Wald tests check the arm sizes that clr_bounds needs, so they run
    # first and a table too small for inference is a data error.
    ate, iot = ate_test(counts, inf_config), iot_test(counts, inf_config)
    return MediatorReport(
        name=data.name,
        n_used=dist.n0 + dist.n1,
        n_dropped=data.n_dropped,
        n1=dist.n1,
        n0=dist.n0,
        counts=tuple(counts.tolist()),
        rules=data.rules,
        ate=ate,
        iot=iot,
        results=[
            AssumptionResult(
                assumptions=spec.assumptions,
                reference=config.reference,
                bounds=bounds,
                ande=ande,
                inference=clr_bounds(counts, spec, inf_config),
            )
            for spec, bounds, ande in sets
        ],
    )


def run(config: RunConfig) -> AnalysisReport:
    """Execute the configured analysis; deterministic given the config and input bytes."""
    if config.counts is not None:
        counts = np.array(config.counts, dtype=np.int64)
        datasets = [MediatorData(name="counts", counts=counts, n_dropped=0, rules={})]
        n_rows = sum(config.counts)
        ay_counts = counts
    else:
        datasets, n_rows, ay_counts = ingest(config.data, config)

    base = InferenceConfig(alpha=config.alpha, draws=config.draws, seed=config.seed)
    run_ate = ate_test(ay_counts, base)
    seeds = [
        int(child.generate_state(1, dtype=np.uint64)[0])
        for child in np.random.SeedSequence(config.seed).spawn(len(datasets))
    ]
    report = AnalysisReport(config=config, n_rows=n_rows, ate=run_ate)
    for data, seed in zip(datasets, seeds):
        try:
            report.mediators.append(_analyze_mediator(data, config, seed))
        except ValidationError as exc:
            raise DataError(f"mediator {data.name!r}: {exc}") from exc
    return report


def _wald_dict(w: WaldResult) -> dict:
    return {"estimate": w.estimate, "se": w.se, "ci": [w.ci[0], w.ci[1]]}


def _bounds_dict(b: BoundsResult) -> dict:
    return {
        "lower": b.lower,
        "upper": b.upper,
        "method": b.method.value,
        "binding_lower": b.binding_lower,
        "binding_upper": b.binding_upper,
        "incompatible": b.incompatible,
        "diagnostics": list(b.diagnostics),
    }


def _interval_dict(iv: IntervalEstimate) -> dict:
    return {
        "bound_lower_hmu": iv.bound_lower_hmu,
        "bound_upper_hmu": iv.bound_upper_hmu,
        "ci_lower": iv.ci_lower,
        "ci_upper": iv.ci_upper,
        "crossed": iv.crossed,
        "smoothed_arms": list(iv.smoothed_arms),
        "lower_expressions": [asdict(e) for e in iv.lower_expressions],
        "upper_expressions": [asdict(e) for e in iv.upper_expressions],
        "selection": {"lower": asdict(iv.lower_diagnostics), "upper": asdict(iv.upper_diagnostics)},
    }


def _report_dict(report: AnalysisReport) -> dict:
    cfg = report.config
    return {
        "schema": SCHEMA,
        "version": __version__,
        "config": {**asdict(cfg), "assumptions": [a.value for a in cfg.assumptions]},
        "n_rows": report.n_rows,
        "ate": _wald_dict(report.ate),
        "mediators": [
            {
                "name": m.name,
                "n_used": m.n_used,
                "n_dropped": m.n_dropped,
                "n1": m.n1,
                "n0": m.n0,
                "counts": list(m.counts),
                "dichotomization": m.rules,
                "ate": _wald_dict(m.ate),
                "iot": _wald_dict(m.iot),
                # "closed_form" and "lp" carry the same evaluation: schema /4
                # keeps both blocks so that readers of earlier schemas still find them.
                "results": [
                    {
                        "assumptions": r.assumptions.value,
                        "reference": r.reference,
                        "incompatible": r.bounds.incompatible,
                        "closed_form": _bounds_dict(r.bounds),
                        "lp": _bounds_dict(r.bounds),
                        "ande": _bounds_dict(r.ande),
                        "inference": _interval_dict(r.inference),
                    }
                    for r in m.results
                ],
            }
            for m in report.mediators
        ],
    }


def _fmt(value: float | None) -> str:
    return "" if value is None else format(float(value), ".10g")


def emit_plotdata(report: AnalysisReport) -> str:
    """Figure-ready rows: one per (mediator x method), CSV text.

    ``lo``/``hi`` on bounds rows are the plug-in sharp interval, so
    structural guarantees like zero containment under NONE hold exactly; the half-median-unbiased estimates
    and selection detail live in the JSON report.  ``point`` is filled only
    for the iot rows.  ``ate_reference_line`` repeats the run-level ATE
    estimate on every row.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["mediator", "method", "point", "lo", "hi", "ci_lo", "ci_hi", "ate_reference_line"])
    tau = report.ate.estimate
    for m in report.mediators:
        writer.writerow(
            [m.name, "iot", _fmt(m.iot.estimate), "", "", _fmt(m.iot.ci[0]), _fmt(m.iot.ci[1]), _fmt(tau)]
        )
        for r in m.results:
            lo, hi = _fmt(r.bounds.lower), _fmt(r.bounds.upper)
            ci_lo, ci_hi = _fmt(r.inference.ci_lower), _fmt(r.inference.ci_upper)
            writer.writerow(
                [m.name, _METHOD_NAMES[r.assumptions], "", lo, hi, ci_lo, ci_hi, _fmt(tau)]
            )
    return buf.getvalue()


def emit_csv(report: AnalysisReport) -> str:
    """Flat per-(mediator x assumption-set) table with every headline number.

    ``cf_*`` and ``lp_*`` repeat the one evaluation, as the JSON blocks do.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        [
            "mediator", "assumptions", "reference", "n_used", "n_dropped",
            "ate", "ate_se", "ate_ci_lo", "ate_ci_hi",
            "iot", "iot_se", "iot_ci_lo", "iot_ci_hi",
            "cf_lower", "cf_upper", "lp_lower", "lp_upper",
            "ande_lower", "ande_upper",
            "hmu_lower", "hmu_upper", "ci_lower", "ci_upper",
            "incompatible", "notes",
        ]
    )
    for m in report.mediators:
        for r in m.results:
            b, iv = r.bounds, r.inference
            writer.writerow(
                [
                    m.name, r.assumptions.value, r.reference, m.n_used, m.n_dropped,
                    _fmt(m.ate.estimate), _fmt(m.ate.se), _fmt(m.ate.ci[0]), _fmt(m.ate.ci[1]),
                    _fmt(m.iot.estimate), _fmt(m.iot.se), _fmt(m.iot.ci[0]), _fmt(m.iot.ci[1]),
                    _fmt(b.lower), _fmt(b.upper), _fmt(b.lower), _fmt(b.upper),
                    _fmt(r.ande.lower), _fmt(r.ande.upper),
                    _fmt(iv.bound_lower_hmu), _fmt(iv.bound_upper_hmu), _fmt(iv.ci_lower), _fmt(iv.ci_upper),
                    int(b.incompatible), "; ".join(b.diagnostics),
                ]
            )
    return buf.getvalue()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mediation-bounds",
        description=(
            "Sharp bounds and inference for natural indirect effects with a binary "
            "treatment, mediator, and outcome."
        ),
    )
    parser.add_argument("--data", help="CSV file with a header row (UTF-8)")
    parser.add_argument("--treatment", default="a", help="treatment column name (default: a)")
    parser.add_argument("--outcome", default="y", help="outcome column name (default: y)")
    parser.add_argument("--mediators", default="", help="comma-separated mediator column names")
    parser.add_argument(
        "--dichotomize",
        default="",
        help=(
            "either one global rule for outcome and mediators, or comma-separated col=rule "
            "entries; rules: none | median-gt | threshold:x (strictly-greater comparisons; "
            "medians use the lower-median convention on non-missing values)"
        ),
    )
    parser.add_argument(
        "--assumptions",
        default="none",
        help="comma list from {none,mmr,mmr-pos-mediator} (default: none)",
    )
    parser.add_argument("--reference", type=int, default=1, choices=(0, 1), help="reference arm for delta (default: 1)")
    parser.add_argument("--alpha", type=float, default=0.05, help="two-sided CI level complement (default: 0.05)")
    parser.add_argument("--draws", type=int, default=2000, help="critical-value simulation draws (default: 2000)")
    parser.add_argument("--seed", type=int, default=0, help="reproducibility seed (default: 0)")
    parser.add_argument("--format", default="json", choices=("json", "csv", "plotdata"), help="output format")
    parser.add_argument(
        "--counts",
        help=(
            "skip --data and analyze eight comma-separated cell counts in order "
            "n00a0,n01a0,n10a0,n11a0,n00a1,n01a1,n10a1,n11a1 (n{ym}a{arm})"
        ),
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit with code 4 when data contradict a requested assumption set",
    )
    return parser


def _config_from_args(ns: argparse.Namespace) -> RunConfig:
    mediators = tuple(m.strip() for m in ns.mediators.split(",") if m.strip())
    assumption_names = [a.strip() for a in ns.assumptions.split(",") if a.strip()]
    assumptions = []
    for name in assumption_names:
        try:
            assumptions.append(Assumptions(name))
        except ValueError:
            valid = ", ".join(a.value for a in Assumptions)
            raise ConfigError(f"unknown assumption set {name!r} (valid: {valid})") from None
    counts = None
    if ns.counts is not None:
        try:
            counts = tuple(int(tok) for tok in ns.counts.split(","))
        except ValueError:
            raise ConfigError(f"--counts must be 8 comma-separated integers, got {ns.counts!r}") from None
        if len(counts) != 8:
            raise ConfigError(f"--counts must have exactly 8 integers, got {len(counts)}")
        if any(c < 0 for c in counts):
            raise ConfigError("--counts entries must be nonnegative")
        if sum(counts) > MAX_TOTAL:
            raise ConfigError(f"--counts total must be at most 2**53 = {MAX_TOTAL}, got {sum(counts)}")
    return RunConfig(
        data=ns.data,
        treatment=ns.treatment,
        outcome=ns.outcome,
        mediators=mediators,
        dichotomize=ns.dichotomize,
        assumptions=tuple(assumptions),
        reference=ns.reference,
        alpha=ns.alpha,
        draws=ns.draws,
        seed=ns.seed,
        format=ns.format,
        counts=counts,
        strict=ns.strict,
    )


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed usage/help; translate to our exit codes
        return 0 if exc.code in (0, None) else 2
    try:
        config = _config_from_args(ns)
        report = run(config)
        if config.format == "json":
            text = report.to_json_text()
        elif config.format == "csv":
            text = emit_csv(report)
        else:
            text = emit_plotdata(report)
        sys.stdout.write(text)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except ValidationError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except AssumptionIncompatibilityError as exc:
        print(f"assumption incompatibility: {exc}", file=sys.stderr)
        return 4


def cli_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":  # python -m mediation_bounds.cli
    cli_entry()
