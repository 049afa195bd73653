"""Command-line surface: CSV in, bounds + inference out.

One invocation analyzes one or more mediator columns against a binary
treatment and outcome: dichotomization (optional), sharp bounds under each
requested assumption set (one evaluation of the bound table per set), natural
direct effect bounds by decomposition, intersection-bounds inference, and the
ATE/mediator-ATE Wald tests.   The report is built once, as the object the
versioned JSON schema describes; the JSON text, the flat CSV and the
figure-ready plotdata rows all render that one object.

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
import math
import os
import sys
from dataclasses import asdict, dataclass

import numpy as np
from numpy.dtypes import StringDType

from . import __version__
from .closed_form import ande_bounds, anie_bounds
from .inference import InferenceConfig, IntervalEstimate, WaldResult, ate_test, clr_bounds, iot_test
from .model import (
    AssumptionIncompatibilityError,
    Assumptions,
    BoundsResult,
    EstimandSpec,
    ValidationError,
    _checked_counts,
    cell_counts,
    from_counts,
    from_units,  # not used here; perfbench's tracing tests call cli.from_units
)

SCHEMA = "mediation-bounds/4"
_MISSING_TOKENS = ("", "na", "nan", "null", "none")  # matched after strip, case-insensitively
# Two flags per byte, OR-ed over each record.  Bit 0: the byte makes a cell
# non-blank (ASCII, and not a comma, a quote mark or whitespace as str.strip()
# sees it).  Bit 1, a parser byte: only loadtxt reads it right.  A quote mark
# carries parser state, and str.strip() strips non-ASCII whitespace and
# \x1c-\x1f, which bytes.strip() keeps.
_BYTE_KIND = bytes(
    (c < 128 and not chr(c).isspace() and chr(c) not in ',"')
    + 2 * (c == ord('"') or c > 127 or (chr(c).isspace() and not bytes([c]).isspace()))
    for c in range(256)
)
# A plain decimal's most bytes: a sign, 15 digits and a dot.  _DIVISORS holds
# 10.0**f, then -10.0**f, for f from 0 to the span; those up to 10**15 are exact.
_PLAIN_SPAN = 17
_DIVISORS = np.concatenate([10.0 ** np.arange(_PLAIN_SPAN + 1), -(10.0 ** np.arange(_PLAIN_SPAN + 1))])
_METHOD_NAMES = {
    Assumptions.NONE.value: "bounds-none",
    Assumptions.MMR.value: "bounds-mmr",
    Assumptions.MMR_POS_MEDIATOR.value: "bounds-mmr-pos",
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
        if not self.assumptions:
            raise ConfigError("at least one assumption set is required")
        try:
            InferenceConfig(alpha=self.alpha, draws=self.draws, seed=self.seed)
            self.specs()
        except ValidationError as exc:
            raise ConfigError(str(exc)) from None
        if self.format not in ("json", "csv", "plotdata"):
            raise ConfigError(f"format must be json, csv, or plotdata, got {self.format!r}")
        if self.counts is None:
            if self.data is None:
                raise ConfigError("either --data or --counts is required")
            if not self.mediators:
                raise ConfigError("at least one mediator column is required")
        elif self.data is not None:
            raise ConfigError("--data and --counts are mutually exclusive")
        else:
            try:
                counts = _checked_counts(self.counts)  # the library's count rule, as from_counts applies it
            except ValidationError as exc:
                raise ConfigError(f"--{exc}") from None
            if self.mediators or self.dichotomize:
                raise ConfigError("--counts takes no --mediators or --dichotomize; they select and recode --data columns")
            object.__setattr__(self, "counts", tuple(counts))
        # The report echoes the config as JSON, so numpy scalars and paths are stored as Python values.
        casts = (("data", lambda path: path and os.fspath(path)), ("reference", int), ("alpha", float),
                 ("draws", int), ("seed", int), ("strict", bool))
        for name, cast in casts:
            object.__setattr__(self, name, cast(getattr(self, name)))

    def specs(self) -> list[EstimandSpec]:
        """The spec of each assumption set, at the configured reference arm."""
        return [EstimandSpec(reference=self.reference, assumptions=a) for a in self.assumptions]


def _parse_rule(text: str) -> tuple[str, float | None]:
    # -> (kind, threshold); kind in {"none", "median-gt", "threshold"}
    if text in ("none", "median-gt"):
        return text, None
    if text.startswith("threshold:"):
        raw = text[len("threshold:") :]
        try:
            threshold = float(raw)
        except ValueError:
            raise ConfigError(f"bad threshold value {raw!r} in dichotomize rule {text!r}") from None
        # A threshold of nan or +-inf would turn the column into a constant.
        if not math.isfinite(threshold):
            raise ConfigError(f"threshold must be finite, got {raw!r} in dichotomize rule {text!r}")
        return "threshold", threshold
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


def _record_starts(body: bytes) -> np.ndarray:
    """Offsets of the lines of ``body`` that start a record rather than continue a quoted cell."""
    b = np.frombuffer(body, dtype=np.uint8)
    starts = np.concatenate(([0], np.flatnonzero(b == ord("\n")) + 1))
    starts = starts[starts < b.size]
    if b'"' not in body:
        return starts
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


def _drop_blank_lines(body: bytes) -> tuple[bytes, bool]:
    """``body`` without its blank records (every cell empty or whitespace), and whether a parser byte is left."""
    starts = _record_starts(body)
    lengths = np.diff(starts, append=len(body))
    kind = np.bitwise_or.reduceat(np.frombuffer(body.translate(_BYTE_KIND), dtype=np.uint8), starts)
    blank = kind == 0
    # Only the parser can tell whether blanks and parser bytes alone are blank; such records are few.
    for i in np.flatnonzero(kind == 2):
        try:
            cells = _load_cells(body[starts[i] : starts[i] + lengths[i]])
        except ValueError:
            continue  # kept, for the full read to report
        blank[i] = not np.strings.strip(cells).astype(bool).any()
    needs_parser = bool((kind[~blank] & 2).any())
    if blank.any():
        body = np.frombuffer(body, dtype=np.uint8)[np.repeat(~blank, lengths)].tobytes()
    return body, needs_parser


def _plain_columns(body: bytes, width: int, wanted: list[int]) -> list[np.ndarray] | None:
    """The fixed-width bytes cells of columns ``wanted`` of a body that needs no parser.

    None when a row has other than ``width`` fields, so that ``loadtxt``
    reports it, or when the cells would take more memory than ``loadtxt``'s
    16 bytes per cell of the whole table.
    """
    if not body.endswith(b"\n"):
        body += b"\n"
    b = np.frombuffer(body, dtype=np.uint8)
    n_rows = body.count(b"\n")
    ends = np.flatnonzero((b == ord(",")) | (b == ord("\n")))  # each field's end
    if ends.size != n_rows * width:
        return None
    ends = ends.astype(np.int32 if b.size < 2**31 else np.int64).reshape(n_rows, width)
    # The body has n_rows line ends, so if each row's last end is one, every
    # row has ``width`` fields; a total count alone would pass a short row
    # followed by a long one.
    if not (b[ends[:, -1]] == ord("\n")).all():
        return None
    line_starts = np.concatenate(([0], ends[:-1, -1] + 1)).astype(ends.dtype)
    budget = 16 * width
    columns = []
    for j in wanted:
        starts = line_starts if j == 0 else ends[:, j - 1] + 1
        lengths = ends[:, j] - starts
        size = max(int(lengths.max()), 1)
        budget -= size
        if budget < 0:
            return None
        # Byte k of every cell at once; bytes past a cell's end are padding.
        cells = np.zeros((n_rows, size), dtype=np.uint8)
        for k in range(size):
            cells[:, k] = np.where(lengths > k, b.take(starts + k, mode="clip"), 0)
        columns.append(cells.view(f"S{size}").ravel())
    return columns


def _newlines_only(raw: bytes) -> bytes:
    """``raw`` with each ``\\r\\n`` or lone ``\\r`` line end made ``\\n``; ``raw`` itself if it has none."""
    return raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")


def _read_table(path: str, columns: list[str]) -> tuple[dict[str, np.ndarray], int]:
    """The unstripped cells of ``columns``, one per non-blank data row, and the row count.

    A body that needs no parser (:func:`_drop_blank_lines`) is cut into bytes
    cells at its commas and line ends; any other body, or one with a ragged
    row, is read by ``loadtxt`` into str cells.  :func:`_ragged_row` names a ragged row.
    """
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
        line = _newlines_only(raw[: exc.start]).count(b"\n") + 1
        raise DataError(f"{path} is not valid UTF-8: line {line}, byte {exc.start}: {exc.reason}") from None
    if not raw:
        raise DataError(f"{path} is empty")
    raw = _newlines_only(raw)
    if b"\x00" in raw:  # stripping would drop a NUL at a cell's end, where float() rejects it
        line = raw.count(b"\n", 0, raw.index(b"\x00")) + 1
        raise DataError(f"{path} contains a NUL byte: line {line}")
    header_line, _, body = raw.partition(b"\n")
    del raw
    header = [h.strip() for h in next(csv.reader([header_line.decode("utf-8")]))]
    for col in columns:
        if col not in header:
            raise ConfigError(f"column {col!r} not found in {path} (header: {header})")
        if header.count(col) > 1:
            raise DataError(f"column {col!r} appears {header.count(col)} times in the header of {path}")
    body, needs_parser = _drop_blank_lines(body)
    if not body:
        raise DataError(f"{path} has a header but no data rows")
    width = len(header)
    wanted = [header.index(col) for col in columns]
    cells = None if needs_parser else _plain_columns(body, width, wanted)
    if cells is not None:
        return dict(zip(columns, cells)), cells[0].size
    try:
        table = _load_cells(body)
        if table.shape[1] != width:
            raise ValueError(f"{table.shape[1]} fields, but the header has {width}")
    except ValueError as exc:
        raise DataError(_ragged_row(body, width) or f"{path}: {exc}") from None
    return {col: table[:, i] for col, i in zip(columns, wanted)}, table.shape[0]


def _ragged_row(body: bytes, width: int) -> str | None:
    """The first record without ``width`` fields, as the csv module counts them; None if none, or on a csv error."""
    limit = csv.field_size_limit(max(csv.field_size_limit(), len(body)))  # loadtxt reads cells of any length
    try:
        for row, record in enumerate(csv.reader(io.StringIO(body.decode("utf-8"), newline="")), start=2):
            if len(record) != width:
                return f"row {row}: {len(record)} fields, but the header has {width}"
    except csv.Error:
        pass
    finally:
        csv.field_size_limit(limit)
    return None


def _plain_decimals(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The float value of each bytes cell that is a plain decimal, NaN elsewhere, and which cells are.

    A plain decimal is an optional ``+`` or ``-`` at byte 0, then 1 to 15
    digits with at most one ``.``, and nothing else.  Its significand m is
    below 10**15 and its f fraction digits give an exact 10.0**f, so the one
    rounding of m / 10.0**f is float()'s, bit for bit; a ``-`` divides by
    -10.0**f, which gives -0.0 for ``-0`` as float() does.

    A zero byte is padding only because ``_read_table`` refuses a NUL: a
    fixed-width cell is its bytes followed by zeros.  The cells are walked
    column-major, byte k of every cell at once.  A plain decimal has at most
    17 bytes, so only the first 17 are walked and a cell with an 18th is
    refused; no counter exceeds 17, however wide the cells.
    """
    n, width = cells.size, cells.dtype.itemsize
    grid = cells.view(np.uint8).reshape(n, width)
    span = min(width, _PLAIN_SPAN)
    columns = np.ascontiguousarray(grid[:, :span].T)
    significand = np.zeros(n)
    digits, dots, fraction, padding = (np.zeros(n, dtype=np.uint8) for _ in range(4))
    for byte in columns:
        digit = byte - ord("0")  # wraps below "0"
        is_digit = digit < 10
        # 10 m + d as m + (9 m + d): no branch per cell, and exact below 2**53.
        significand += is_digit * (9 * significand + digit)
        fraction += is_digit & (dots > 0)
        digits += is_digit
        dots += byte == ord(".")
        padding += byte == 0
    negative = columns[0] == ord("-")
    signed = negative | (columns[0] == ord("+"))
    # Every walked byte is a digit, a dot, padding or the sign at byte 0.
    plain = (digits + dots + padding + signed == span) & (digits > 0) & (digits <= 15) & (dots <= 1)
    if width > span:
        plain &= grid[:, span] == 0
    values = significand / _DIVISORS[fraction + (_PLAIN_SPAN + 1) * negative]
    values[~plain] = np.nan
    return values, plain


def _parse_numbers(name: str, cells: np.ndarray) -> np.ndarray:
    """The float value of each cell after stripping, NaN for a missing token.

    ``cells`` are loadtxt's str cells or the byte route's fixed-width bytes
    cells.  Bytes cells that are plain decimals are decoded from their bytes
    (:func:`_plain_decimals`), and str cells exactly "0" or "1" are read by
    comparison; both give float()'s values.  Every other cell goes to
    :func:`_cast_cells`.
    """
    if cells.dtype.kind == "S":
        values, done = _plain_decimals(cells)
    else:
        values = np.full(cells.size, np.nan)
        zero = cells == "0"
        one = cells == "1"
        values[zero] = 0.0
        values[one] = 1.0
        done = zero | one
    rest = np.flatnonzero(~done)
    values[rest] = _cast_cells(name, cells[rest], rest)
    return values


def _cast_cells(name: str, cells: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The float value of each cell after stripping, NaN for a missing token.

    The cast reads exactly what float() reads.  A cell that float() refuses
    is a DataError naming its data row, from ``rows``, each cell's index
    among the data rows.
    """
    # The tokens in the cells' own type: a str never equals a bytes cell.
    missing_tokens = [cells.dtype.type(t) for t in _MISSING_TOKENS]
    values = np.full(cells.size, np.nan)
    tokens = np.strings.strip(cells)
    # Missing tokens are empty or alphabetic, so only those cells are case-folded.
    maybe = np.flatnonzero(np.strings.isalpha(tokens) | (np.strings.str_len(tokens) == 0))
    numeric = np.ones(cells.size, dtype=bool)
    numeric[maybe[np.isin(np.strings.lower(tokens[maybe]), missing_tokens)]] = False
    try:
        values[numeric] = tokens[numeric].astype(np.float64)
    except ValueError:
        # numpy's string-to-float cast accepts exactly what float() accepts.
        for row, token in zip(rows[numeric].tolist(), tokens[numeric].tolist()):
            token = token.decode("ascii") if isinstance(token, bytes) else token
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
        cut, rule_text = 0.5, "none"
    elif kind == "median-gt":
        # The lower median of the non-missing values, before any cross-column
        # row dropping: for even counts the smaller middle value, so the cut
        # is an observed value and > comparisons stay crisp.
        cut = float(np.sort(observed)[(observed.size - 1) // 2])
        rule_text = f"median-gt(median={cut:g})"
    else:
        cut, rule_text = threshold, f"threshold:{threshold:g}"
    # NaN > cut is False, so missing rows read 0.
    binary = (values > cut).astype(np.uint8)
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

    Not thread-safe: naming a ragged row raises the csv module's process-wide
    ``csv.field_size_limit`` until the row is found, so a thread reading CSV
    meanwhile sees the raised limit.
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
class AnalysisReport:
    """One run's report as the object the JSON schema describes; every output format renders it."""

    body: dict

    def to_json_text(self) -> str:
        return json.dumps(self.body, indent=2) + "\n"


def _analyze_mediator(data: MediatorData, config: RunConfig, seed: int) -> dict:
    """The mediator's block of the report."""
    counts = data.counts
    dist = from_counts(counts)
    inf_config = InferenceConfig(alpha=config.alpha, draws=config.draws, seed=seed)
    sets = []
    for spec in config.specs():
        bounds = anie_bounds(dist, spec)
        if bounds.incompatible and config.strict:
            raise AssumptionIncompatibilityError(
                f"mediator {data.name!r}: data are incompatible with assumption set "
                f"{spec.assumptions.value!r} (--strict)"
            )
        sets.append((spec, bounds, ande_bounds(dist, 1 - config.reference, bounds)))
    # The Wald tests check the arm sizes that clr_bounds needs, so they run
    # first and a table too small for inference is a data error.
    ate, iot = ate_test(counts, inf_config), iot_test(counts, inf_config)
    return {
        "name": data.name,
        "n_used": dist.n0 + dist.n1,
        "n_dropped": data.n_dropped,
        "n1": dist.n1,
        "n0": dist.n0,
        "counts": counts.tolist(),
        "dichotomization": data.rules,
        "ate": _wald_dict(ate),
        "iot": _wald_dict(iot),
        # "closed_form" and "lp" carry the same evaluation: schema /4
        # keeps both blocks so that readers of earlier schemas still find them.
        "results": [
            {
                "assumptions": spec.assumptions.value,
                "reference": config.reference,
                "incompatible": bounds.incompatible,
                "closed_form": _bounds_dict(bounds),
                "lp": _bounds_dict(bounds),
                "ande": _bounds_dict(ande),
                "inference": _interval_dict(clr_bounds(counts, spec, inf_config)),
            }
            for spec, bounds, ande in sets
        ],
    }


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
    mediators = []
    for data, seed in zip(datasets, seeds):
        try:
            mediators.append(_analyze_mediator(data, config, seed))
        except ValidationError as exc:
            raise DataError(f"mediator {data.name!r}: {exc}") from exc
    return AnalysisReport(
        {
            "schema": SCHEMA,
            "version": __version__,
            "config": {**asdict(config), "assumptions": [a.value for a in config.assumptions]},
            "n_rows": n_rows,
            "ate": _wald_dict(run_ate),  # run-level, anchors the plotdata reference line
            "mediators": mediators,
        }
    )


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


def _fmt(value: float) -> str:
    return format(float(value), ".10g")


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
    tau = report.body["ate"]["estimate"]
    for m in report.body["mediators"]:
        iot = m["iot"]
        writer.writerow(
            [m["name"], "iot", _fmt(iot["estimate"]), "", "", _fmt(iot["ci"][0]), _fmt(iot["ci"][1]), _fmt(tau)]
        )
        for r in m["results"]:
            lo, hi = _fmt(r["closed_form"]["lower"]), _fmt(r["closed_form"]["upper"])
            ci_lo, ci_hi = _fmt(r["inference"]["ci_lower"]), _fmt(r["inference"]["ci_upper"])
            writer.writerow(
                [m["name"], _METHOD_NAMES[r["assumptions"]], "", lo, hi, ci_lo, ci_hi, _fmt(tau)]
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
    for m in report.body["mediators"]:
        ate, iot = m["ate"], m["iot"]
        for r in m["results"]:
            cf, lp, ande, iv = r["closed_form"], r["lp"], r["ande"], r["inference"]
            writer.writerow(
                [
                    m["name"], r["assumptions"], r["reference"], m["n_used"], m["n_dropped"],
                    _fmt(ate["estimate"]), _fmt(ate["se"]), _fmt(ate["ci"][0]), _fmt(ate["ci"][1]),
                    _fmt(iot["estimate"]), _fmt(iot["se"]), _fmt(iot["ci"][0]), _fmt(iot["ci"][1]),
                    _fmt(cf["lower"]), _fmt(cf["upper"]), _fmt(lp["lower"]), _fmt(lp["upper"]),
                    _fmt(ande["lower"]), _fmt(ande["upper"]),
                    _fmt(iv["bound_lower_hmu"]), _fmt(iv["bound_upper_hmu"]), _fmt(iv["ci_lower"]), _fmt(iv["ci_upper"]),
                    int(r["incompatible"]), "; ".join(cf["diagnostics"]),
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
    parser.add_argument("--treatment", default="a", help="treatment column name, a label with --counts (default: a)")
    parser.add_argument("--outcome", default="y", help="outcome column name, a label with --counts (default: y)")
    parser.add_argument("--mediators", default="", help="comma-separated mediator column names (--data only)")
    parser.add_argument(
        "--dichotomize",
        default="",
        help=(
            "either one global rule for outcome and mediators, or comma-separated col=rule "
            "entries; rules: none | median-gt | threshold:x (strictly-greater comparisons; "
            "medians use the lower-median convention on non-missing values; --data only)"
        ),
    )
    parser.add_argument(
        "--assumptions",
        default="none",
        help="comma list from {none,mmr,mmr-pos-mediator} (default: none)",
    )
    parser.add_argument("--reference", type=int, default=1, choices=(0, 1), help="reference arm for delta (default: 1)")
    parser.add_argument("--alpha", type=float, default=0.05, help="two-sided CI level complement (default: 0.05)")
    parser.add_argument(
        "--draws", type=int, default=2000, help="critical-value simulation draws, 100 to 1000000 (default: 2000)"
    )
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
    # The parser's dest names are RunConfig's fields; only the text lists are converted.
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
    return RunConfig(**{**vars(ns), "mediators": mediators, "assumptions": tuple(assumptions), "counts": counts})


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
    except (DataError, ValidationError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except AssumptionIncompatibilityError as exc:
        print(f"assumption incompatibility: {exc}", file=sys.stderr)
        return 4


def cli_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":  # python -m mediation_bounds.cli
    cli_entry()
