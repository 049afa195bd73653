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
# sees it).  Bit 1: only reading the record's cells (:func:`_cell`) can tell
# whether it does.  A quote mark may be syntax or text, and str.strip() strips
# non-ASCII whitespace and \x1c-\x1f, which bytes.strip() keeps.
_BYTE_KIND = bytes(
    (c < 128 and not chr(c).isspace() and chr(c) not in ',"')
    + 2 * (c == ord('"') or c > 127 or (chr(c).isspace() and not bytes([c]).isspace()))
    for c in range(256)
)
_KIND = np.frombuffer(_BYTE_KIND, dtype=np.uint8)
# Bytes scanned at a time.  A scan's temporaries are a few of its blocks: a
# bool mask per byte, and an offset per hit.  In a file with no quote marks the
# file's own offsets are the only arrays that grow with it; a quoted file adds
# arrays as long as its quote marks (see _field_ends).
_SCAN_BYTES = 1 << 18
# A plain decimal's most bytes: a sign, 15 digits and a dot.  _DIVISORS holds
# 10.0**f, then -10.0**f, for f from 0 to the span; those up to 10**15 are exact.
_PLAIN_SPAN = 17
_DIVISORS = np.concatenate([10.0 ** np.arange(_PLAIN_SPAN + 1), -(10.0 ** np.arange(_PLAIN_SPAN + 1))])
# Rows decoded at a time.  The file and its field ends stay in memory while a
# column is decoded, so a block's temporaries are what the decoder adds to the
# peak: about 70 bytes a row, and about 110 more for each cell that float()
# reads, held as Python str and float objects until its block is done.  Blocks
# of 65,536 rows took the CLI's peak RSS on an 11 MB, 250,000-row R export
# from 117.3 to 120.4 MB.
_DECODE_ROWS = 32_768
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
        for i, assumptions in enumerate(self.assumptions):
            if assumptions in self.assumptions[:i]:
                raise ConfigError(f"assumption set {assumptions.value!r} is named more than once")
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
    named = set()
    for part in overrides:
        col, _, rule_text = part.partition("=")
        col = col.strip()
        if col not in table:
            raise ConfigError(f"dichotomize rule targets unknown column {col!r}")
        if col in named:
            raise ConfigError(f"dichotomize rules name column {col!r} more than once")
        named.add(col)
        table[col] = _parse_rule(rule_text.strip())
    return table


@dataclass(frozen=True)
class _Cells:
    """Column ``j`` of a file cut into cells: data row i's is ``raw[ends[k] + 1 : ends[k + 1]]``, k = index[i] + j."""

    raw: bytes
    ends: np.ndarray  # the file's field ends
    index: np.ndarray  # per data row, the position in ``ends`` of the line end before it
    j: int
    quotes: np.ndarray  # the offsets of the file's quote marks

    def __len__(self) -> int:
        return self.index.size

    def spans(self, rows: slice | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The start and end offsets of the cells of ``rows``; a cell wrapped whole in one pair of quotes loses them."""
        k = self.index[rows] + self.j
        starts, ends = self.ends[k] + 1, self.ends[k + 1]
        if self.quotes.size:
            b = np.frombuffer(self.raw, dtype=np.uint8)
            pair = np.flatnonzero((b[starts] == ord('"')) & (b[ends - 1] == ord('"')) & (ends - starts >= 2))
            # The pair is the cell's only quote marks when the next one after its first is its last.
            pair = pair[self.quotes[np.searchsorted(self.quotes, starts[pair]) + 1] == ends[pair] - 1]
            starts[pair] += 1
            ends[pair] -= 1
        return starts, ends


def _offsets(b: np.ndarray, byte: int, dtype: type) -> np.ndarray:
    """The offsets of ``byte`` in ``b``, counted a block at a time, then written a block at a time into one array."""
    blocks = range(0, b.size, _SCAN_BYTES)
    out = np.empty(sum(np.count_nonzero(b[lo : lo + _SCAN_BYTES] == byte) for lo in blocks), dtype=dtype)
    n = 0
    for lo in blocks:
        found = np.flatnonzero(b[lo : lo + _SCAN_BYTES] == byte)
        out[n : n + found.size] = found + lo
        n += found.size
    return out


def _field_ends(raw: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The field ends of ``raw``, where among them each record ends, and the offsets of its quote marks.

    A field end is a comma or line end outside quoted cells.  ``raw`` ends in
    a line end, which ends a field even inside a quoted cell, as the end of
    the file ends one for the csv module.  The file is read ``_SCAN_BYTES`` at
    a time, twice: once to count the commas and line ends, once to write
    those outside quoted cells into arrays sized by the counts.  Without
    quote marks nothing as large as the file is made beside them; with them,
    the quote-run state takes a few arrays, some int64, as long as the quote
    marks.  When quoted cells drop some field ends, the arrays are views of
    the items written.
    """
    b = np.frombuffer(raw, dtype=np.uint8)
    dtype = np.int32 if b.size < 2**31 else np.int64
    quotes = _offsets(b, ord('"'), dtype) if b'"' in raw else np.empty(0, dtype=dtype)
    if quotes.size:
        # Only a run of quote marks of odd length changes the csv module's
        # state.  At a field start it opens or closes a quoted cell; inside a
        # field it closes an open cell and is text otherwise.  A run at offset
        # 0 follows b[-1], the final line end, so it is at a field start too.
        first = np.flatnonzero(np.diff(quotes, prepend=-2) != 1)
        odd = np.diff(first, append=quotes.size) % 2 == 1
        at = quotes[first]
        before = b[at - 1]
        field_start = (before == ord(",")) | (before == ord("\n"))
        # After k runs a cell is open when an odd number of toggling runs
        # follow the last closing run: inside[k], the state of the bytes from
        # run k - 1 up to run k.
        toggles = np.cumsum(np.concatenate(([False], odd & field_start)), dtype=np.int32)
        closes = np.concatenate(([False], odd & ~field_start))
        inside = (toggles - np.maximum.accumulate(toggles * closes)) % 2 == 1
    blocks = range(0, b.size, _SCAN_BYTES)
    newlines = commas = 0
    for lo in blocks:
        block = b[lo : lo + _SCAN_BYTES]
        newlines += np.count_nonzero(block == ord("\n"))
        commas += np.count_nonzero(block == ord(","))
    ends, lines = np.empty(commas + newlines, dtype=dtype), np.empty(newlines, dtype=dtype)
    n = m = 0
    for lo in blocks:
        block = b[lo : lo + _SCAN_BYTES]
        found = (block == ord(",")) | (block == ord("\n"))
        if quotes.size:
            k0, k1 = np.searchsorted(at, np.array((lo, lo + block.size), dtype=at.dtype)).tolist()
            found &= ~np.repeat(inside[k0 : k1 + 1], np.diff(at[k0:k1], prepend=lo, append=lo + block.size))
            if lo + block.size == b.size:
                found[-1] = True  # the final line end
        found = np.flatnonzero(found)
        line_ends = np.flatnonzero(block[found] == ord("\n"))
        ends[n : n + found.size] = found + lo
        lines[m : m + line_ends.size] = line_ends + n
        n, m = n + found.size, m + line_ends.size
    return ends[:n], lines[:m], quotes


def _blank_kinds(raw: bytes, ends: np.ndarray, lines: np.ndarray) -> np.ndarray:
    """:data:`_BYTE_KIND` OR-ed over the bytes of each data record, its line end included.

    ``ends`` are the field ends of ``raw`` and ``lines`` where among them
    each record ends.  A record whose first or last byte has bit 0 is not
    blank, whatever its other bytes, so it may get only those two bytes'
    kinds.  The others go through the byte table a block of records at a
    time, each block read from its first such record to its last, so a file
    of them costs one pass over its bytes.
    """
    b = np.frombuffer(raw, dtype=np.uint8)
    starts = ends[lines[:-1]]
    starts += 1
    lasts = ends[lines[1:]]
    lasts -= 1  # the byte before each line end: an empty record's is the line end before it
    kinds = _KIND[b[starts]] | _KIND[b[lasts]]
    edges = np.searchsorted(starts, np.arange(_SCAN_BYTES, b.size, _SCAN_BYTES, dtype=starts.dtype)).tolist()
    for lo, hi in zip([0, *edges], [*edges, starts.size]):
        maybe = np.flatnonzero(kinds[lo:hi] & 1 == 0)
        if maybe.size:
            first, last = lo + maybe[0], lo + maybe[-1] + 1
            span = np.frombuffer(raw[starts[first] : lasts[last - 1] + 2].translate(_BYTE_KIND), np.uint8)
            kinds[first:last] = np.bitwise_or.reduceat(span, starts[first:last] - starts[first])
    return kinds


def _newlines_only(raw: bytes) -> bytes:
    """``raw`` with each ``\\r\\n`` or lone ``\\r`` line end made ``\\n``; ``raw`` itself if it has none."""
    return raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n") if b"\r" in raw else raw


def _cell(text: str) -> str:
    """A cell's text as the csv module reads it, after str.strip().

    A cell that starts with a quote mark keeps its quoted part, with each
    ``""`` in it read as ``"``, then any text after the closing quote; every
    other cell is literal.
    """
    if text.startswith('"'):
        # After the opening quote, marks pair up from the start of each run,
        # as str.replace() pairs them, and the first mark left over closes the
        # quoted part; with none left over it runs to the end of the cell.
        close = text[1:].replace('""', "__").find('"') + 1 or len(text)
        text = text[1:close].replace('""', '"') + text[close + 1 :]
    return text.strip()


def _record(raw: bytes, cuts: list[int]) -> list[str]:
    """The cells of the record after the line end at ``cuts[0]``, whose fields end at ``cuts[1:]``; none if empty."""
    if cuts[-1] == cuts[0] + 1:
        return []
    return [_cell(raw[s + 1 : e].decode("utf-8")) for s, e in zip(cuts, cuts[1:])]


def _read_table(path: str, columns: list[str]) -> tuple[dict[str, _Cells], int]:
    """The cells of ``columns``, one per non-blank data row, and the row count.

    One scan (:func:`_field_ends`) finds the commas and line ends outside quoted
    cells.  They end the header record, count each record's fields and cut the
    records into cells, which :func:`_cell` reads where text is needed.  A
    record whose every cell is empty or whitespace is skipped; its cells are
    read to tell only when it holds nothing but those, quote marks and non-ASCII
    bytes.  Any other record of another field count than the header's is ragged.

    Beside the file, the read keeps an int32 offset per field end and an
    int32 index per record into them, which the cells are read through.
    While it reads it adds a few bytes per record and arrays of a fixed
    block size.  Blank records add a copy of the data rows' indices, and
    quote marks make arrays as long as their count.
    """
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if raw.startswith(codecs.BOM_UTF8):
        raw = raw[len(codecs.BOM_UTF8) :]
    if not raw.isascii():  # ASCII is UTF-8, and the test makes no str
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
    if not raw.endswith(b"\n"):
        raw += b"\n"
    b = np.frombuffer(raw, dtype=np.uint8)
    ends, lines, quotes = _field_ends(raw)
    header = _record(raw, [-1, *ends[: lines[0] + 1].tolist()])
    for col in columns:
        if col not in header:
            raise ConfigError(f"column {col!r} not found in {path} (header: {header})")
        if header.count(col) > 1:
            raise DataError(f"column {col!r} appears {header.count(col)} times in the header of {path}")
    kind = _blank_kinds(raw, ends, lines)
    blank = kind == 0
    # Only their cells tell whether blanks, quote marks and non-ASCII bytes alone are blank; such records are few.
    for i in np.flatnonzero(kind == 2).tolist():
        blank[i] = not any(_record(raw, ends[lines[i] : lines[i + 1] + 1].tolist()))
    if blank.all():
        raise DataError(f"{path} has a header but no data rows")
    width = len(header)
    fields = np.diff(lines)[~blank]
    ragged = np.flatnonzero(fields != width)
    if ragged.size:
        raise DataError(f"row {ragged[0] + 2}: {fields[ragged[0]]} fields, but the header has {width}")
    # Each data row's cells lie between the field ends after the line end before it.
    index = lines[:-1][~blank] if blank.any() else lines[:-1]
    return {col: _Cells(raw, ends, index, header.index(col), quotes) for col in columns}, index.size


def _plain_decimals(b: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The float value of each span of ``b`` that is a plain decimal, NaN elsewhere, and which spans are.

    A plain decimal is an optional ``+`` or ``-`` at byte 0, then 1 to 15
    digits with at most one ``.``, and nothing else.  Its significand m is
    below 10**15 and its f fraction digits give an exact 10.0**f, so the one
    rounding of m / 10.0**f is float()'s, bit for bit; a ``-`` divides by
    -10.0**f, which gives -0.0 for ``-0`` as float() does.

    The spans are walked byte k of every span at once, and a byte past a
    span's end reads as 0, which is no digit, dot or sign.  A plain decimal
    has at most 17 bytes, so only the first 17 are walked; no counter
    exceeds 17, however long the spans.
    """
    lengths = ends - starts
    significand = np.zeros(starts.size)
    digits, dots, fraction = (np.zeros(starts.size, dtype=np.uint8) for _ in range(3))
    negative = signed = np.zeros(starts.size, dtype=bool)
    for k in range(min(int(lengths.max(initial=0)), _PLAIN_SPAN)):
        byte = b[k:].take(starts, mode="clip")
        byte *= lengths > k
        if k == 0:
            negative = byte == ord("-")
            signed = negative | (byte == ord("+"))
        digit = byte - ord("0")  # wraps below "0"
        is_digit = digit < 10
        # 10 m + d as m + (9 m + d): no branch per cell, and exact below 2**53.
        significand += is_digit * (9 * significand + digit)
        fraction += is_digit & (dots > 0)
        digits += is_digit
        dots += byte == ord(".")
    # Every byte of the span is a digit, a dot or the sign at byte 0.
    plain = (digits + dots + signed == lengths) & (digits > 0) & (digits <= 15) & (dots <= 1)
    values = significand / _DIVISORS[fraction + (_PLAIN_SPAN + 1) * negative]
    values[~plain] = np.nan
    return values, plain


def _parse_numbers(name: str, cells: _Cells) -> np.ndarray:
    """The float value of each cell after stripping, NaN for a missing token.

    ``_DECODE_ROWS`` rows at a time, the cells that are plain decimals are
    decoded from their bytes (:func:`_plain_decimals`) and the spans of the
    others go to :func:`_cast_cells`.  Both give float()'s values.
    """
    values = np.empty(len(cells))
    b = np.frombuffer(cells.raw, dtype=np.uint8)
    for lo in range(0, len(cells), _DECODE_ROWS):
        block = slice(lo, lo + _DECODE_ROWS)
        starts, ends = cells.spans(block)
        values[block], plain = _plain_decimals(b, starts, ends)
        rest = np.flatnonzero(~plain)
        values[lo + rest] = _cast_cells(name, cells.raw, starts[rest], ends[rest], lo + rest)
    return values


def _cast_cells(name: str, raw: bytes, starts: np.ndarray, ends: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """float() of each span of ``raw`` read by :func:`_cell`, NaN for a missing token.

    A token that float() refuses is a DataError naming its data row, from
    ``rows``, each span's index among the data rows.
    """
    tokens = [  # a text with no quote mark is stripped here, which saves most cells a call
        _cell(text) if '"' in (text := raw[s:e].decode("utf-8")) else text.strip()
        for s, e in zip(memoryview(starts), memoryview(ends))
    ]
    try:
        return np.array([math.nan if token.lower() in _MISSING_TOKENS else float(token) for token in tokens])
    except ValueError:
        for row, token in zip(rows.tolist(), tokens):
            if token.lower() not in _MISSING_TOKENS:
                try:
                    float(token)
                except ValueError:
                    raise DataError(f"row {row + 2}: non-numeric value {token!r} in column {name!r}") from None
        raise


def _dichotomize(name: str, cells: _Cells, rule: tuple[str, float | None]) -> tuple[np.ndarray, str]:
    """The column's uint8 codes, 0 or 1 by ``rule`` and 8 where the cell is missing, and the rule's text."""
    kind, threshold = rule
    values = _parse_numbers(name, cells)
    missing = np.isnan(values)
    if missing.all():
        raise DataError(f"column {name!r} has no non-missing values")
    if kind == "none":
        bad = ~(missing | (values == 0.0) | (values == 1.0))
        if bad.any():
            row = int(np.flatnonzero(bad)[0])
            raise DataError(
                f"row {row + 2}: column {name!r} has non-binary value {values[row]:g} with dichotomize rule 'none'"
            )
        cut, rule_text = 0.5, "none"
    elif kind == "median-gt":
        # The lower median of the non-missing values, before any cross-column
        # row dropping: for even counts the smaller middle value, so the cut
        # is an observed value and > comparisons stay crisp.
        observed = values[~missing]
        observed.sort()
        k = (observed.size - 1) // 2
        cut = float(observed[k])
        if cut == 0.0:
            # The sort orders tied -0.0 and 0.0 as its implementation happens
            # to; the cut's sign is that of the zero a stable sort puts at k,
            # the (k - negatives)-th zero in file order.
            zeros = np.flatnonzero(values == 0.0)
            cut = float(values[zeros[k - np.searchsorted(observed, 0.0)]])
        del observed
        rule_text = f"median-gt(median={cut:g})"
    else:
        cut, rule_text = threshold, f"threshold:{threshold:g}"
    codes = (values > cut).view(np.uint8)
    codes[missing] = 8
    return codes, rule_text


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

    :func:`_read_table` cuts the file into cells in one pass over its bytes,
    and reads as text only the header and the cells that need it, each by
    one rule (:func:`_cell`).  :func:`_parse_numbers` decodes the plain
    decimals among the requested cells from their bytes and reads every
    other one with float() itself.  Each column is then one uint8 code a
    row, 8 where its cell is missing, and :func:`model.cell_counts` leaves
    out every row with an 8 in a column it tabulates: that is the listwise
    deletion.
    """
    columns = [config.treatment, config.outcome, *config.mediators]
    if len(set(columns)) != len(columns):
        raise ConfigError(f"duplicate column names in {columns}")
    rules = _rule_table(config.dichotomize, columns)
    table, n_rows = _read_table(path, columns)
    cols = {name: _dichotomize(name, table[name], rules[name]) for name in columns}
    del table  # the file and its field ends; tabulating needs only the codes

    (treat, treat_rule), (out, out_rule) = cols[config.treatment], cols[config.outcome]
    ay_counts = cell_counts(treat, 0, out)
    if not ay_counts.any():
        raise DataError("no rows with both treatment and outcome observed")

    result = []
    for name in config.mediators:
        med, med_rule = cols[name]
        counts = cell_counts(treat, med, out)
        n_used = int(counts.sum())
        if n_used == 0:
            raise DataError(f"mediator {name!r}: all rows dropped by missing-value filtering")
        result.append(
            MediatorData(
                name=name,
                counts=counts,
                n_dropped=n_rows - n_used,
                rules={config.treatment: treat_rule, config.outcome: out_rule, name: med_rule},
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
