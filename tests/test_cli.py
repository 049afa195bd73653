"""Command-line behavior: parsing, dichotomization, outputs, exit codes."""

import contextlib
import csv
import dataclasses
import importlib
import io
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mediation_bounds
from mediation_bounds import Assumptions, EstimandSpec, ValidationError, __version__, anie_bounds, ate, cli, from_counts
from mediation_bounds.cli import ConfigError, DataError, RunConfig, _rule_table, ingest, main, run

GOLDEN = Path(__file__).parent / "golden"
PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"
E1_COUNTS = "40,30,20,10,10,20,30,40"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return str(path)


def tally(records):
    """Cell counts of (a, m, y) triples in from_counts order, counted one by one."""
    counts = [0] * 8
    for a, m, y in records:
        counts[4 * int(a) + 2 * int(y) + int(m)] += 1
    return counts


def dichotomized(path, config):
    """The per-row codes that ``ingest`` tabulates: 0 or 1, 8 where the cell is missing."""
    columns = [config.treatment, config.outcome, *config.mediators]
    rules = _rule_table(config.dichotomize, columns)
    raw, _ = cli._read_table(path, columns)
    return {name: cli._dichotomize(name, raw[name], rules[name])[0] for name in columns}


def config_for(path, **overrides):
    base = dict(
        data=path,
        treatment="a",
        outcome="y",
        mediators=("m",),
        dichotomize="",
        assumptions=(Assumptions.NONE,),
        reference=1,
        alpha=0.05,
        draws=500,
        seed=0,
        format="json",
    )
    base.update(overrides)
    return RunConfig(**base)


class TestDichotomization:
    def test_median_rule_uses_lower_median_strictly_greater(self, tmp_path):
        path = write_csv(
            tmp_path / "d.csv",
            ["a", "y", "m"],
            [(i % 2, 0, v) for i, v in enumerate([1, 2, 3, 4, 5])],
        )
        config = config_for(path, dichotomize="m=median-gt")
        data, n_rows, _ = ingest(path, config)
        assert n_rows == 5
        assert list(dichotomized(path, config)["m"]) == [0, 0, 0, 1, 1]
        assert data[0].counts.tolist() == tally([(0, 0, 0), (1, 0, 0), (0, 0, 0), (1, 1, 0), (0, 1, 0)])
        assert "median=3" in data[0].rules["m"]

    def test_even_count_takes_smaller_middle(self, tmp_path):
        path = write_csv(
            tmp_path / "d.csv",
            ["a", "y", "m"],
            [(i % 2, 0, v) for i, v in enumerate([1, 2, 3, 4])],
        )
        config = config_for(path, dichotomize="m=median-gt")
        data, _, _ = ingest(path, config)
        assert list(dichotomized(path, config)["m"]) == [0, 0, 1, 1]
        assert "median=2" in data[0].rules["m"]

    def test_threshold_rule(self, tmp_path):
        path = write_csv(
            tmp_path / "d.csv",
            ["a", "y", "m"],
            [(i % 2, 0, v) for i, v in enumerate([1, 2, 3])],
        )
        config = config_for(path, dichotomize="m=threshold:2.5")
        assert list(dichotomized(path, config)["m"]) == [0, 0, 1]
        data, _, _ = ingest(path, config)
        assert data[0].counts.tolist() == tally([(0, 0, 0), (1, 0, 0), (0, 1, 0)])

    def test_global_rule_spares_treatment(self, tmp_path):
        path = write_csv(
            tmp_path / "d.csv",
            ["a", "y", "m"],
            [(0, 3, 10), (1, 9, 20), (0, 4, 30), (1, 8, 40)],
        )
        columns = dichotomized(path, config_for(path, dichotomize="median-gt"))
        assert list(columns["a"]) == [0, 1, 0, 1]  # treatment untouched
        assert list(columns["y"]) == [0, 1, 0, 1]  # outcome median 4
        assert list(columns["m"]) == [0, 0, 1, 1]  # mediator median 20

    def test_missing_tokens_case_insensitive(self, tmp_path):
        path = write_csv(
            tmp_path / "d.csv",
            ["a", "y", "m"],
            [(0, 0, "NA"), (0, 1, 1), (1, 0, "NaN"), (1, 1, "NULL"),
             (0, 0, "none"), (1, 1, 0), (0, 1, 0), (1, 0, 1)],
        )
        data, n_rows, _ = ingest(path, config_for(path))
        assert n_rows == 8
        assert data[0].counts.tolist() == tally([(0, 1, 1), (1, 0, 1), (0, 0, 1), (1, 1, 0)])
        assert data[0].n_dropped == 4

    def test_median_computed_before_row_filtering(self, tmp_path):
        # The outcome is missing in a high-score row; the score median must
        # still include that row's value.
        path = write_csv(
            tmp_path / "d.csv",
            ["a", "y", "m"],
            [(0, 0, 1), (1, 1, 2), (0, "na", 90), (1, 0, 3), (0, 1, 4)],
        )
        data, _, _ = ingest(path, config_for(path, dichotomize="m=median-gt"))
        # non-missing medians: column median over {1,2,90,3,4} = 3
        assert "median=3" in data[0].rules["m"]
        assert data[0].counts.tolist() == tally([(0, 0, 0), (1, 0, 1), (1, 0, 0), (0, 1, 1)])

    def test_rule_validation(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["a", "y", "m"], [(0, 0, 0), (1, 1, 1)])
        with pytest.raises(ConfigError):
            ingest(path, config_for(path, dichotomize="sigmoid"))
        with pytest.raises(ConfigError):
            ingest(path, config_for(path, dichotomize="median-gt,m=threshold:1"))
        with pytest.raises(ConfigError):
            ingest(path, config_for(path, dichotomize="zzz=median-gt"))
        with pytest.raises(ConfigError):
            ingest(path, config_for(path, dichotomize="m=threshold:abc"))


class TestIngest:
    def test_listwise_deletion_is_per_mediator(self):
        cfg = config_for(
            str(GOLDEN / "synth_input.csv"),
            treatment="treat",
            outcome="resp",
            mediators=("m_binary", "score"),
            dichotomize="score=median-gt",
        )
        data, n_rows, ay_counts = ingest(str(GOLDEN / "synth_input.csv"), cfg)
        assert n_rows == 84
        assert ay_counts.sum() == 83  # one missing outcome
        assert ay_counts[[1, 3, 5, 7]].sum() == 0  # the run-level table has m = 0 throughout
        by_name = {d.name: d for d in data}
        assert by_name["m_binary"].counts.sum() == 83
        assert by_name["m_binary"].n_dropped == 1
        assert by_name["score"].counts.sum() == 81
        assert by_name["score"].n_dropped == 3

    def test_duplicate_columns_rejected(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["a", "y", "m"], [(0, 0, 0), (1, 1, 1)])
        with pytest.raises(ConfigError):
            ingest(path, config_for(path, mediators=("m", "m")))


def reference_numbers(name, tokens):
    """float() of each stripped token, NaN for a missing token, or the DataError that names the first bad one."""
    values = np.full(len(tokens), np.nan)
    for i, token in enumerate(tokens):
        token = token.strip()
        if token.lower() in ("", "na", "nan", "null", "none"):
            continue
        try:
            values[i] = float(token)
        except ValueError:
            raise DataError(f"row {i + 2}: non-numeric value {token!r} in column {name!r}") from None
    return values


def reference_ingest(path, config):
    """Cell-by-cell csv-module ingest, the reference for the column-wise reader.

    Returns ``ingest``'s result with each dataset as (name, counts, n_dropped,
    rules) and the counts as lists, plus each column's (binary, missing) rows.
    """
    columns = [config.treatment, config.outcome, *config.mediators]
    rules = _rule_table(config.dichotomize, columns)
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader)]
        index = {col: header.index(col) for col in columns}
        raw = {col: [] for col in columns}
        for row in reader:
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise DataError(f"row {len(raw[columns[0]]) + 2}: {len(row)} fields, but the header has {len(header)}")
            for col, i in index.items():
                raw[col].append(row[i].strip())
    n_rows = len(raw[columns[0]])
    binary, missing, rule_text = {}, {}, {}
    for name in columns:
        kind, threshold = rules[name]
        values = reference_numbers(name, raw[name])
        missing[name] = np.isnan(values)
        if missing[name].all():
            raise DataError(f"column {name!r} has no non-missing values")
        if kind == "none":
            for i in np.flatnonzero(~missing[name]):
                if values[i] not in (0.0, 1.0):
                    raise DataError(
                        f"row {i + 2}: column {name!r} has non-binary value {values[i]:g} "
                        "with dichotomize rule 'none'"
                    )
            cut, rule_text[name] = 0.5, "none"
        elif kind == "median-gt":
            observed = np.sort(values[~missing[name]], kind="stable")
            cut = float(observed[(observed.size - 1) // 2])
            rule_text[name] = f"median-gt(median={cut:g})"
        else:
            cut, rule_text[name] = threshold, f"threshold:{threshold:g}"
        binary[name] = (values > cut).astype(np.uint8)
    t, o = config.treatment, config.outcome
    ay = ~(missing[t] | missing[o])
    ay_counts = tally(zip(binary[t][ay], np.zeros(int(ay.sum()), np.uint8), binary[o][ay]))
    datasets = []
    for name in config.mediators:
        keep = ay & ~missing[name]
        counts = tally(zip(binary[t][keep], binary[name][keep], binary[o][keep]))
        rules_out = {t: rule_text[t], o: rule_text[o], name: rule_text[name]}
        datasets.append((name, counts, n_rows - int(keep.sum()), rules_out))
    return datasets, n_rows, ay_counts, {name: (binary[name], missing[name]) for name in columns}


def assert_same_ingest(path, config):
    try:
        expected = reference_ingest(path, config)
    except DataError as exc:
        with pytest.raises(DataError) as info:
            ingest(path, config)
        assert str(info.value) == str(exc)
        return
    ref_data, ref_rows, ref_ay, ref_columns = expected
    data, n_rows, ay_counts = ingest(path, config)
    assert n_rows == ref_rows
    assert ay_counts.tolist() == ref_ay
    assert [(d.name, d.counts.tolist(), d.n_dropped, d.rules) for d in data] == ref_data
    # Row by row, the codes that were tabulated.
    columns = dichotomized(path, config)
    for name, (binary, missing) in ref_columns.items():
        assert columns[name].dtype == np.uint8
        assert np.array_equal(columns[name], np.where(missing, 8, binary))


MISSING_VARIANTS = ["", "NA", " na ", "NaN", "nan", "NULL", " null", "None", "none ", "nOnE", "  "]
BLANK_LINES = ["", "   ", ",,,,,", " , ,\t,", '"",,, ,', ",,"]


def _cell(rng, text):
    if rng.random() < 0.15:
        return f'"{text}"'
    if rng.random() < 0.15:
        return f" {text}\t"
    return text


def _seeded_csv(seed, rows=60, quotes=True):
    """A seeded file of varied tokens; with ``quotes=False`` its cells unquoted and no quote mark in it."""
    rng = np.random.default_rng(seed)
    lines = ["a,y,m_bin,m_score,m_level,note"]
    for _ in range(rows):
        if rng.random() < 0.1:
            lines.append(BLANK_LINES[rng.integers(len(BLANK_LINES))])
        cells = []
        for _ in range(3):  # a, y, m_bin: binary tokens in several spellings
            if rng.random() < 0.08:
                cells.append(MISSING_VARIANTS[rng.integers(len(MISSING_VARIANTS))])
            else:
                bit = int(rng.integers(2))
                cells.append([str(bit), f"{bit}.0", f"{bit}e0", f" {bit} "][rng.integers(4)])
        for _ in range(2):  # m_score, m_level: continuous, varied formatting
            if rng.random() < 0.08:
                cells.append(MISSING_VARIANTS[rng.integers(len(MISSING_VARIANTS))])
            else:
                v = float(rng.normal(0.5, 1.0))
                cells.append([f"{v:.3f}", f"{v:g}", f"{v:e}", f"{v:+.2f}", str(round(v))][rng.integers(5)])
        note = ["ok", '"late, then on time"', "", '"said ""no"""'][rng.integers(4)]
        lines.append(",".join(_cell(rng, c) for c in cells) + "," + note)
    text = "\n".join(lines) + "\n"
    if quotes:
        return text
    return text.replace('"late, then on time"', "late then on time").replace('"said ""no"""', "said no").replace('"', "")


@pytest.fixture(scope="class")
def one_parser():
    """While the class's tests run, ``np.loadtxt`` raises and ``cli.csv`` has only ``writer``.

    The cuts of :func:`cli._field_ends` are the CLI's only record parser, so
    no read of a CSV file may call ``np.loadtxt`` or any reader of the csv
    module; only the emitters write with ``csv.writer``.
    """

    def refuse(*args, **kwargs):
        raise AssertionError("np.loadtxt was called")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np, "loadtxt", refuse)
        patch.setattr(cli, "csv", types.SimpleNamespace(writer=csv.writer))
        yield


@pytest.fixture
def cast_calls(monkeypatch):
    """Each column's cells that reach ``cli._cast_cells``, and their rows, from the last parse of that column."""
    calls = {}
    cast = cli._cast_cells

    def spy(name, raw, starts, ends, rows):
        calls[name] = ([raw[s:e].decode("utf-8") for s, e in zip(starts.tolist(), ends.tolist())], rows.tolist())
        return cast(name, raw, starts, ends, rows)

    monkeypatch.setattr(cli, "_cast_cells", spy)
    return calls


EDGE_TOKENS = [
    "1_000", "Infinity", "-inf", " 1.5", "1.5e", "0x10", "\u0661\u0662", "1e500", "-nan",
    "+.5", "5.", "1__0", "nan(1)", "\u00a01.5", "True", "0001", "1e-400", "\u0967.5",
    "\tNA", "\u00a0none", "1\t", "4410486984911e313",
]

# Plain decimals (a sign at byte 0, 1 to 15 digits, at most one dot) and the
# tokens just past each of the decoder's guards; EDGE_TOKENS holds "+.5" and
# "5.".  Past 15 digits m / 10**f can round twice: 9.999999999999999 would
# read 10.0, not 9.999999999999998.
DECODER_EDGE_TOKENS = [
    "-0", "-0.000", "+0", "0.", ".0", "-.5", "007.50", "-007.50",
    "1" * 15, "-9." + "9" * 14, "." + "0" * 14 + "1", "-" + "9" * 15 + ".",
    "9.999999999999999", "1" * 16, "-1.234567890123456", "0.9007199254740993", "9" * 17,
    "1.2.3", "1..", "--1", "+-1", "-+1", "1-", "1+1", "0.5-", ".", "-", "+", "-.", "+.",
]


def assert_parsed_as_float(path, column, row, token):
    """The reader reads ``token``, at data row ``row`` of ``column``, as float() does, sign bit included.

    A token that float() refuses is left to assert_same_ingest, which compares the messages.
    """
    try:
        want = reference_numbers(column, [token])
    except DataError:
        return
    cells = cli._read_table(path, [column])[0][column]
    assert cli._parse_numbers(column, cells)[row : row + 1].view(np.int64) == want.view(np.int64)


EQUIVALENCE_RUNS = [
    ("m_score=median-gt,m_level=threshold:0.25", ("m_bin", "m_score", "m_level")),
    ("median-gt", ("m_score", "m_level")),
    ("m_level=threshold:-1", ("m_bin", "m_level")),
]


@pytest.mark.usefixtures("one_parser")
class TestColumnReaderMatchesReference:
    @pytest.mark.parametrize("seed", range(12))
    def test_seeded_files(self, tmp_path, seed):
        path = tmp_path / "d.csv"
        path.write_text(_seeded_csv(seed))
        rules, mediators = EQUIVALENCE_RUNS[seed % len(EQUIVALENCE_RUNS)]
        config = config_for(str(path), mediators=mediators, dichotomize=rules)
        # The files must exercise the comparison: a successful ingest, blank
        # lines, and rows dropped as missing.
        assert any(line in BLANK_LINES for line in path.read_text().splitlines()[1:])
        reference_data, _, _, _ = reference_ingest(str(path), config)
        assert any(dropped for _, _, dropped, _ in reference_data)
        assert_same_ingest(str(path), config)

    @pytest.mark.parametrize("seed", range(12))
    def test_seeded_plain_files(self, tmp_path, seed):
        path = tmp_path / "d.csv"
        path.write_text(_seeded_csv(seed, quotes=False))
        rules, mediators = EQUIVALENCE_RUNS[seed % len(EQUIVALENCE_RUNS)]
        config = config_for(str(path), mediators=mediators, dichotomize=rules)
        assert any(line in BLANK_LINES for line in path.read_text().splitlines()[1:])
        reference_data, _, _, _ = reference_ingest(str(path), config)
        assert any(dropped for _, _, dropped, _ in reference_data)
        assert_same_ingest(str(path), config)

    # A byte whose effect on a record only the csv module knows (a quote mark
    # may open a cell; str.strip() strips \u00a0 and \x1c, bytes.strip() does
    # not), anywhere in an otherwise plain file, in a cell or beside a blank record.
    @pytest.mark.parametrize("char", ['"', "\u00a0", "\x1c"])
    def test_one_parser_byte_anywhere(self, tmp_path, char):
        rng = np.random.default_rng(ord(char))
        text = _seeded_csv(5, quotes=False)
        path = str(tmp_path / "d.csv")
        config = config_for(path, mediators=("m_bin", "m_score"), dichotomize="m_score=median-gt")
        for at in rng.integers(text.index("\n") + 1, len(text), size=25).tolist():
            write_text(Path(path), text[:at] + char + text[at:])
            assert_same_ingest(path, config)

    @staticmethod
    def _with_token(tmp_path, seed, col, token):
        # Puts ``token`` in column ``col`` of the first data line from line 30 on,
        # after some blank lines, so the row number in the message is checked too.
        lines = _seeded_csv(seed).splitlines()
        i = next(i for i in range(30, len(lines)) if lines[i] not in BLANK_LINES)
        cells = lines[i].split(",")
        cells[col] = token
        lines[i] = ",".join(cells)
        path = tmp_path / "d.csv"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_non_numeric_token_message(self, tmp_path):
        path = self._with_token(tmp_path, 3, 3, "abc")
        config = config_for(path, mediators=("m_bin", "m_score"), dichotomize="m_score=median-gt")
        with pytest.raises(DataError, match="non-numeric value 'abc'"):
            reference_ingest(path, config)
        assert_same_ingest(path, config)

    def test_non_binary_value_message(self, tmp_path):
        path = self._with_token(tmp_path, 4, 2, " 2.5 ")
        config = config_for(path, mediators=("m_bin",))
        with pytest.raises(DataError, match="non-binary value 2.5"):
            reference_ingest(path, config)
        assert_same_ingest(path, config)

    @staticmethod
    def _with_m_cell(tmp_path, cell):
        # The lower median of m is the cell's value whenever that lies in [-1, 1].
        rows = [f"{i % 2},{(i // 2) % 2},{m}" for i, m in enumerate([-3, -2, -1, 1, 2, None, 4, 5])]
        rows[5] = f"1,0,{cell}"
        return write_text(tmp_path / "d.csv", "a,y,m\n" + "\n".join(rows) + "\n")

    @pytest.mark.parametrize("token", EDGE_TOKENS)
    def test_edge_tokens(self, tmp_path, token):
        path = self._with_m_cell(tmp_path, f'"{token}"')
        assert_same_ingest(path, config_for(path, dichotomize="m=threshold:1"))

    # A requested cell loses its quote marks by narrowing only when it holds
    # exactly two, at its first and its last byte; the csv module reads every
    # other shape, and both must read as the reference does, whitespace
    # around or inside the pair included: ' "0.5"' is text.
    @pytest.mark.parametrize(
        "cell",
        ['"0"5', '0"5"', '""0"', '"0""5"', '"0.5"""', '"""0.5"', '"0.5" ', ' "0.5"', '"-0"', '""', '"NA"',
         '"0."5', '""0.5', '0.5""', '"0.5\n"', '"\n-0.5"', '  "0.5"  ', '\t"NA"', '" 0.5 "', '"\t-0 "'],
    )
    def test_quote_shapes(self, tmp_path, cell):
        path = self._with_m_cell(tmp_path, cell)
        for rule in ("m=threshold:0.25", "m=median-gt"):
            assert_same_ingest(path, config_for(path, dichotomize=rule))

    # Unquoted, with the decoder's edges too.  Under median-gt, "-0" must
    # print median=-0, as float() reads it.
    @pytest.mark.parametrize("token", [t for t in EDGE_TOKENS if t.isascii()] + DECODER_EDGE_TOKENS)
    def test_edge_tokens_unquoted(self, tmp_path, token):
        path = self._with_m_cell(tmp_path, token)
        for rule in ("m=threshold:1", "m=median-gt"):
            assert_same_ingest(path, config_for(path, dichotomize=rule))
        assert_parsed_as_float(path, "m", 5, token)

    # A zero lower median prints the sign of the zero that a stable sort puts
    # at k, the (k - negatives)-th zero in file order.  -0.0 == 0.0, so np.sort
    # may order these ties either way; on each of these columns numpy 2.4's
    # default sort on x86-64 puts the other zero at k.
    @pytest.mark.parametrize(
        "column, median",
        [
            ([1, "-0", 2, "-0", 2, "-0", 0, 0], "0"),
            ([-2, "-0", -2, 0, 0, 2, 0, 0, "-0", 1, 0, 0, 1, 0, 0], "-0"),
            ([-1, 2, -2, "-0", 0, 2, 0, 0, "-0", -1, -2, 2, 2, -1, "-0"], "0"),
        ],
    )
    def test_zero_median_takes_the_stable_sorts_sign(self, tmp_path, column, median):
        rows = [f"{i % 2},{(i // 2) % 2},{m}" for i, m in enumerate(column)]
        path = write_text(tmp_path / "d.csv", "a,y,m\n" + "\n".join(rows) + "\n")
        config = config_for(path, dichotomize="m=median-gt")
        data, _, _ = ingest(path, config)
        assert data[0].rules["m"] == f"median-gt(median={median})"
        assert_same_ingest(path, config)

    def test_decoder_reads_a_261_digit_cell_as_float_does(self, tmp_path, cast_calls):
        # 261 digits would wrap an 8-bit digit counter to 5 if the decoder
        # walked past a cell's 17th byte.  Only that cell goes to the cast:
        # the column's other cells are still decoded.
        wide = "0" * 259 + "1.5"
        header = ",".join(["a", "y", "m"] + [f"x{i}" for i in range(17)])
        rows = [f"{i % 2},{(i // 2) % 2},{0.25 * i}," + ",".join(str(i + j) for j in range(17)) for i in range(12)]
        rows[4] = rows[4].replace(",1.0,", f",{wide},", 1)
        path = write_text(tmp_path / "d.csv", header + "\n" + "\n".join(rows) + "\n")
        assert_same_ingest(path, config_for(path, dichotomize="m=threshold:1.25"))
        assert_parsed_as_float(path, "m", 4, wide)
        assert cast_calls["m"] == ([wide], [4])

    def test_wide_cell_is_not_held_at_its_width(self, tmp_path):
        # Held at a fixed width, each of the column's 2,000 cells would take
        # the 20,000 bytes of the widest: 40 MB.
        rows = [f"{i % 2},{(i // 2) % 2},{i % 3}" for i in range(2000)]
        rows[7] = "1,0," + "0" * 19_999 + "1"
        path = write_text(tmp_path / "d.csv", "a,y,m\n" + "\n".join(rows) + "\n")
        config = config_for(path, dichotomize="m=threshold:1")
        assert_same_ingest(path, config)
        tracemalloc.start()
        try:
            ingest(path, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000

    # Blocks of a few rows put block boundaries next to blank records, quoted
    # cells and the cells that the decoder refuses.
    @pytest.mark.parametrize("rows", [1, 2, 7])
    def test_decoding_in_blocks_matches_the_reference(self, monkeypatch, tmp_path, rows):
        monkeypatch.setattr(cli, "_DECODE_ROWS", rows)
        for seed in range(3):
            path = write_text(tmp_path / "d.csv", _seeded_csv(seed))
            rules, mediators = EQUIVALENCE_RUNS[seed]
            assert_same_ingest(path, config_for(path, mediators=mediators, dichotomize=rules))

    # Scan blocks of a few bytes put block boundaries inside quote runs,
    # quoted cells, records and blank records, for the field-end scan and the
    # blank-record check alike.
    @pytest.mark.parametrize("scan", [1, 3, 64])
    def test_scanning_in_blocks_matches_the_reference(self, monkeypatch, tmp_path, scan):
        monkeypatch.setattr(cli, "_SCAN_BYTES", scan)
        for seed in range(2):
            path = write_text(tmp_path / "d.csv", _seeded_csv(seed, rows=30))
            rules, mediators = EQUIVALENCE_RUNS[seed]
            assert_same_ingest(path, config_for(path, mediators=mediators, dichotomize=rules))
        rng = np.random.default_rng(scan)
        for _ in range(20):
            path = write_text(tmp_path / "d.csv", _quoting_csv(rng))
            assert_same_ingest(path, config_for(path))

    # A block's refused cells are named by their data row in the file, not in
    # the block: blank records come before the bad token at data row 10, and a
    # missing token sends an earlier block's cell to the cast too.
    @pytest.mark.parametrize("rows", [2, 7])
    def test_refused_cell_past_the_first_block_names_its_data_row(self, monkeypatch, tmp_path, rows):
        monkeypatch.setattr(cli, "_DECODE_ROWS", rows)
        lines = [f"{i % 2},{(i // 2) % 2},{0.25 * i}" for i in range(12)]
        lines[1], lines[9] = "0,1,NA", "1,0,0.5x"
        path = write_text(tmp_path / "d.csv", "a,y,m\n" + "\n".join(lines[:4] + ["", " ,,"] + lines[4:]) + "\n")
        config = config_for(path, dichotomize="m=median-gt")
        with pytest.raises(DataError) as info:
            reference_ingest(path, config)
        assert str(info.value) == "row 11: non-numeric value '0.5x' in column 'm'"
        assert_same_ingest(path, config)


TOKEN_TEXT = (
    st.text(alphabet="0123456789+-. e", min_size=1, max_size=300)
    | st.from_regex(r"[+-]?[0-9]{0,17}\.?[0-9]{0,17}", fullmatch=True)
    | st.sampled_from(DECODER_EDGE_TOKENS)
)


def token_cells(tokens):
    """``tokens``, which hold no comma, quote mark or line end, as the cells of a one-column file."""
    raw = ("\n" + "\n".join(tokens) + "\n").encode("utf-8")
    ends = np.flatnonzero(np.frombuffer(raw, dtype=np.uint8) == ord("\n"))
    return cli._Cells(raw, ends, np.arange(ends.size - 1), 0, np.array([], dtype=np.int64))


class TestPlainDecimalDecoder:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(tokens=st.lists(TOKEN_TEXT, min_size=1, max_size=8))
    def test_bytes_cells_parse_as_float_does(self, tokens):
        cells = token_cells(tokens)
        try:
            want = reference_numbers("m", tokens)
        except DataError as exc:
            with pytest.raises(DataError) as info:
                cli._parse_numbers("m", cells)
            assert str(info.value) == str(exc)
            return
        assert np.array_equal(cli._parse_numbers("m", cells).view(np.int64), want.view(np.int64))

    def test_only_other_cells_reach_the_cast(self, tmp_path, cast_calls):
        # On a plain file the cast sees only its missing and other tokens, so
        # the decoder cannot quietly hand every cell back to it.
        rows = [f"{i % 2},{(i // 2) % 2},{-1.25 + 0.125 * i:+.3f}" for i in range(40)]
        others = {3: "NA", 11: " 0.5", 17: "1e-1", 23: "", 31: "2.50 ", 37: "-0.5e0"}
        for i, token in others.items():
            rows[i] = rows[i].rsplit(",", 1)[0] + "," + token
        path = write_text(tmp_path / "d.csv", "a,y,m\n" + "\n".join(rows) + "\n")
        assert_same_ingest(path, config_for(path, dichotomize="m=median-gt"))
        want = (list(others.values()), list(others))
        assert cast_calls == {"a": ([], []), "y": ([], []), "m": want}


SCAN_BLOCKS = [1, 2, 3, cli._SCAN_BYTES]  # bytes the reader scans at a time: a few, and its own
QUOTING_FRAGMENTS = ['"', '""', ",", "\n", " ", "x", "'", "\n\n", ",,"]


def _quoting_csv(rng):
    # Notes built from quote marks, commas and line breaks, quoted or not,
    # between blank lines; many of these files have ragged rows.
    # The note is the first or the fourth column.
    note_first = rng.random() < 0.5
    lines = ["note,a,y,m,z" if note_first else "a,y,m,note,z", "x,1,0,1," if note_first else "1,0,1,x,"]
    for _ in range(rng.integers(3, 9)):
        if rng.random() < 0.15:
            lines.append(BLANK_LINES[rng.integers(len(BLANK_LINES))])
            continue
        note = "".join(QUOTING_FRAGMENTS[i] for i in rng.integers(len(QUOTING_FRAGMENTS), size=rng.integers(5)))
        if rng.random() < 0.8:
            note = f'"{note}"'
        bits = f"{rng.integers(2)},{rng.integers(2)},{rng.integers(2)}"
        lines.append(f"{note},{bits}," if note_first else f"{bits},{note},")
    return "\n".join(lines) + "\n"


@pytest.mark.usefixtures("one_parser")
class TestRecordStructureMatchesReference:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_quoting(self, tmp_path, seed):
        # A file is ragged if the csv module finds a non-blank row of other
        # than five fields; ingest must reject exactly those, with the
        # reference's message, and match the reference on the rest.
        rng = np.random.default_rng(seed)
        path = str(tmp_path / "d.csv")
        compared = 0
        for _ in range(100):
            text = _quoting_csv(rng)
            write_text(Path(path), text)
            rows = [r for r in csv.reader(io.StringIO(text, newline=""))][1:]
            ragged = not all(len(r) == 5 for r in rows if any(cell.strip() for cell in r))
            if ragged:
                with pytest.raises(DataError, match="fields, but the header has 5"):
                    reference_ingest(path, config_for(path))
            assert_same_ingest(path, config_for(path))
            compared += not ragged
        assert compared >= 20

    # Every record that the field ends cut, each cell read by the cell rule,
    # is the csv module's record after str.strip(), an empty line included,
    # whether the file is scanned at once or a few bytes at a time.
    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(text=st.text(alphabet='a1", \n\u3000\x1c', min_size=1, max_size=40), scan=st.sampled_from(SCAN_BLOCKS))
    @example(text='a,"1\n 1', scan=cli._SCAN_BYTES)  # an unterminated quote at the end of the file
    @example(text='"a""\n"",\n\n"', scan=cli._SCAN_BYTES)
    @example(text='"a""\n"",\n\n"', scan=1)
    @example(text='\n"1"a"1,""" 1\n', scan=cli._SCAN_BYTES)
    def test_records_are_the_csv_modules(self, text, scan):
        want = [[cell.strip() for cell in record] for record in csv.reader(io.StringIO(text, newline=""))]
        raw = text.encode("utf-8") + b"\n" * (not text.endswith("\n"))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_SCAN_BYTES", scan)
            ends, lines, quotes = cli._field_ends(raw)
        assert quotes.tolist() == [i for i, byte in enumerate(raw) if byte == ord('"')]
        cuts = [-1, *ends.tolist()]
        records = zip([-1, *lines.tolist()], lines.tolist())  # each record's field ends follow the line end before it
        assert [cli._record(raw, cuts[lo + 1 : hi + 2]) for lo, hi in records] == want


EDGE_CHARACTERS = [" ", "\x1c", '"', ",", "\u3000", "1"]
RECORD_CORES = ["", " ", ",", ",,", '""', '"",,""', "0,1,", "1,0,1", "0,1", ", ,\t,", '"\n"', "\u3000,"]
# A record: empty, or a core with each of its first and last characters any
# of the edge characters, so the reader's first- and last-byte test meets
# every kind of byte at both ends of blank-looking and non-blank records.
EDGE_RECORD = st.just("") | st.builds(
    lambda first, core, last: first + core + last,
    st.sampled_from(EDGE_CHARACTERS), st.sampled_from(RECORD_CORES), st.sampled_from(EDGE_CHARACTERS),
)


@pytest.mark.usefixtures("one_parser")
class TestRecordEdges:
    # Records, blank records, row numbers and ragged-row messages are the
    # reference's, with data rows between the drawn records so that many
    # files read, at the default scan block and at blocks of a few bytes.
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(records=st.lists(EDGE_RECORD, min_size=1, max_size=6), scan=st.sampled_from(SCAN_BLOCKS))
    def test_edge_bytes_give_the_references_records(self, fuzz_path, records, scan):
        lines = ["a,y,m"]
        for i, record in enumerate(records):
            lines += [f"{i % 2},{(i // 2) % 2},1", record]
        write_text(fuzz_path, "\n".join([*lines, "1,1,0", "0,0,0"]) + "\n")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_SCAN_BYTES", scan)
            assert_same_ingest(str(fuzz_path), config_for(str(fuzz_path)))


class TestReadMemory:
    @pytest.mark.parametrize("blank", ["", "\n"], ids=["no blank record", "blank line after the header"])
    def test_ingest_holds_little_more_than_the_file(self, tmp_path, blank):
        # A 200,000-row file shaped like the benchmark's: while ingest reads
        # it, it holds the file, an int32 per field end, blocks of fixed size
        # and a few bytes per row.  The whole-file masks and int64 offsets of
        # a read that scans the file at once peak at 4.3 times its size, and
        # a copy of each data row's field ends, made once a record is blank,
        # at 4.2 times.
        rng = np.random.default_rng(23)
        n = 200_000
        a, m_bin, y = (rng.random((3, n)) < 0.5).astype(int)
        m_cont = [f"{v:.3f}" for v in rng.normal(0.4 * a, 1.0).tolist()]
        for i in np.flatnonzero(rng.random(n) < 0.02).tolist():
            m_cont[i] = "NA"
        m_skew = [f"{v:.3f}" for v in np.exp(rng.normal(0.3 * a, 0.8)).tolist()]
        rows = zip(a.tolist(), m_bin.tolist(), m_cont, m_skew, y.tolist())
        text = "treat,m_bin,m_cont,m_skew,y\n" + blank + "".join(f"{r[0]},{r[1]},{r[2]},{r[3]},{r[4]}\n" for r in rows)
        path = write_text(tmp_path / "d.csv", text)
        config = config_for(path, treatment="treat", mediators=("m_bin", "m_cont", "m_skew"),
                            dichotomize="m_cont=median-gt,m_skew=threshold:1.5")
        tracemalloc.start()
        try:
            ingest(path, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.8 * len(text)

    def test_doubled_quotes_cost_no_memory_per_pair(self):
        # A cell of 500,000 doubled quote marks is read in a few copies of
        # its text; a regex that backtracks over each pair keeps state for
        # each, about 78 MB here.
        text = '"' + '""' * 500_000 + '" x\t'
        tracemalloc.start()
        try:
            cell = cli._cell(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cell == '"' * 500_000 + " x"
        assert peak < 4 * len(text)


def write_text(path, text, encoding="utf-8"):
    path.write_bytes(text.encode(encoding) if isinstance(text, str) else text)
    return str(path)


@pytest.mark.usefixtures("one_parser")
class TestCsvInputRules:
    def test_blank_lines_are_skipped_and_not_counted(self, tmp_path):
        text = "a,y,m\n\n0,0,1\n   \n,,\n1,1,0\n \u00a0 , \n,,,\n\"\",\"\",\n0,1,1\n\t\n"
        path = write_text(tmp_path / "d.csv", text)
        data, n_rows, _ = ingest(path, config_for(path))
        assert n_rows == 3
        assert data[0].n_dropped == 0
        assert data[0].counts.tolist() == tally([[0, 1, 0], [1, 0, 1], [0, 1, 1]])

    def test_rows_after_blank_lines_are_numbered_among_data_rows(self, capsys, tmp_path):
        path = write_text(tmp_path / "d.csv", "a,y,m\n0,0,1\n\n  \n1,1,x\n")
        code, out, err = run_cli(capsys, "--data", path, "--mediators", "m")
        assert (code, out) == (3, "")
        assert err == "data error: row 3: non-numeric value 'x' in column 'm'\n"

    def test_only_blank_lines_is_data_error(self, capsys, tmp_path):
        path = write_text(tmp_path / "d.csv", "a,y,m\n \n,,\n")
        code, _, err = run_cli(capsys, "--data", path, "--mediators", "m")
        assert code == 3
        assert "no data rows" in err

    @pytest.mark.parametrize(
        "rows, message",
        [
            (["0,0,1", "1,1", "0,1,0"], "row 3: 2 fields, but the header has 3"),
            (["0,0,1", "1,1,0,", "0,1,0"], "row 3: 4 fields, but the header has 3"),
            (["0,0,1,5", "1,1,0,5"], "row 2: 4 fields, but the header has 3"),
            (["0,0", "1,1"], "row 2: 2 fields, but the header has 3"),
            (["0,0,1,5", "1,1,0", "0,1,0"], "row 2: 4 fields, but the header has 3"),
            (["0,0,1", "", "1,0,0", '1,"1,0"'], "row 4: 2 fields, but the header has 3"),
            # A cell longer than the csv module's default field size limit.
            (["0,0,1", "1,1," + "7" * 200_000, "1,1", "0,1,0"], "row 4: 2 fields, but the header has 3"),
        ],
    )
    def test_ragged_rows_are_data_errors(self, capsys, tmp_path, rows, message):
        path = write_text(tmp_path / "d.csv", "a,y,m\n" + "\n".join(rows) + "\n")
        code, out, err = run_cli(capsys, "--data", path, "--mediators", "m")
        assert (code, out) == (3, "")
        assert err == f"data error: {message}\n"

    @pytest.mark.parametrize(
        "rows",
        [
            ["0,0,1,n,1", "1,1,0,n", "0,1,0,n,1"],
            ["0,0,1,n,1", "1,1,0,n", "0,1,0,n,1,1"],  # the short and the long row hold as many commas as two good ones
        ],
    )
    def test_ragged_row_in_unread_columns_is_data_error(self, tmp_path, rows):
        path = write_text(tmp_path / "d.csv", "a,y,m,note,x\n" + "\n".join(rows) + "\n")
        with pytest.raises(DataError, match="row 3: 4 fields, but the header has 5"):
            ingest(path, config_for(path))

    def test_quoted_commas_in_unread_columns_are_not_ragged(self, tmp_path):
        path = write_text(
            tmp_path / "d.csv",
            'a,note,y,m\n0,"x, y",0,1\n1,"a,b,c",1,0\n0,plain,1,"1"\n1,"2\n lines, here",0,0\n',
        )
        data, n_rows, _ = ingest(path, config_for(path))
        assert n_rows == 4
        assert data[0].counts.tolist() == tally([[0, 1, 0], [1, 0, 1], [0, 1, 1], [1, 0, 0]])

    def test_quoted_cells_across_lines_keep_the_record_structure(self, tmp_path):
        # Continuation lines that look blank on their own: a closing quote and
        # commas, an empty line inside a cell, a cell of only line breaks.
        text = (
            'a,y,m,note,z\n0,1,1,"text\n",\n1,0,0,"\n",\n,,,"a\n\nb",\n'
            ',,,"\n \n",\n,,,"""",\n1,1,0,"x\n",\n'
        )
        path = write_text(tmp_path / "d.csv", text)
        assert_same_ingest(path, config_for(path))
        data, n_rows, _ = ingest(path, config_for(path))
        assert n_rows == 5
        assert data[0].n_dropped == 2
        assert data[0].counts.tolist() == tally([[0, 1, 1], [1, 0, 0], [1, 0, 1]])

    def test_quoted_cell_ending_in_line_break_is_one_record(self, tmp_path):
        path = write_text(tmp_path / "d.csv", 'a,y,m,note\n0,1,1,"text\n"\n1,0,0,x\n')
        assert_same_ingest(path, config_for(path))
        data, n_rows, _ = ingest(path, config_for(path))
        assert n_rows == 2
        assert data[0].counts.tolist() == tally([[0, 1, 1], [1, 0, 0]])

    def test_quote_mark_inside_an_unquoted_cell_is_text(self, tmp_path):
        # The blank lines after it are still blank lines, not parts of a cell.
        path = write_text(tmp_path / "d.csv", "a,y,m,height\n0,1,1,5'10\"\n,,,\n  \n1,0,0,6'\n")
        assert_same_ingest(path, config_for(path))
        _, n_rows, _ = ingest(path, config_for(path))
        assert n_rows == 2

    # Ragged rows are named by the csv module's field count, with blank
    # records left out of the row number; a plain file and a quoted one alike.
    @pytest.mark.parametrize(
        "text", ["a,y,m\n0,0,1\n\n1,1\n0,1,0\n", 'a,y,m\n0,0,1\n\n1,"1,0"\n0,1,0\n'], ids=["plain", "quoted"]
    )
    def test_ragged_row_is_named_by_its_field_count(self, tmp_path, text):
        path = write_text(tmp_path / "d.csv", text)
        with pytest.raises(DataError) as info:
            ingest(path, config_for(path))
        assert str(info.value) == "row 3: 2 fields, but the header has 3"

    def test_plain_file_is_never_parsed(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "a,y,m,note\n0,0,1,x\n \n,,,\n1,1,0,y z\n 0 ,NA,1,\n1,0,nan,")
        data, n_rows, _ = ingest(path, config_for(path))
        assert (n_rows, data[0].n_dropped) == (4, 2)
        assert data[0].counts.tolist() == tally([[0, 1, 0], [1, 0, 1]])

    def test_signed_nan_spellings_are_missing(self, tmp_path):
        # float() reads -nan and +NaN as NaN, so they drop their rows as NA does.
        rows = [f"{i % 2},{(i // 2) % 2},{(i // 4) % 2}" for i in range(10)]
        rows[2], rows[7] = "0,1,-nan", "1,1,+NaN"
        text = "a,y,m\n" + "\n".join(rows) + "\n"
        path = write_text(tmp_path / "d.csv", text)
        twin = write_text(tmp_path / "twin.csv", text.replace("-nan", "NA").replace("+NaN", "NA"))
        data, twin_data = ingest(path, config_for(path))[0][0], ingest(twin, config_for(twin))[0][0]
        assert data.n_dropped == twin_data.n_dropped == 2
        assert data.counts.tolist() == twin_data.counts.tolist()

    def test_r_write_csv_export_reads_as_its_plain_twin(self, capsys, tmp_path):
        # R's write.csv quotes every header name, the first of them empty, the
        # row names and every string cell, doubling the quote marks inside.
        rng = np.random.default_rng(20)
        notes = ['said "no", then yes', "late, then on time", "", 'a "quoted" word']
        export, twin = ['"","treat","y","m","note"'], [",treat,y,m,note"]
        for i in range(80):
            a, y = rng.integers(2, size=2).tolist()
            m = f"{rng.normal(0.4 * a, 1.0):.4f}"
            note = notes[i % len(notes)]
            export.append(f'"{i + 1}",{a},{y},{m},"{note.replace(chr(34), 2 * chr(34))}"')
            twin.append(f"{i + 1},{a},{y},{m},{note.replace(chr(34), '').replace(',', '')}")
        argv = ["--treatment", "treat", "--mediators", "m", "--dichotomize", "m=median-gt", "--draws", "300",
                "--format", "csv"]
        outputs = []
        for stem, lines in (("export", export), ("twin", twin)):
            path = write_text(tmp_path / f"{stem}.csv", "\n".join(lines) + "\n")
            code, out, err = run_cli(capsys, "--data", path, *argv)
            assert (code, err) == (0, "")
            outputs.append(out)
        assert outputs[0] == outputs[1]

    # The header is the first record as the csv module reads it: an empty
    # line has no names, and an empty quoted cell one empty name.
    @pytest.mark.parametrize("first, names", [("", "[]"), ('""', "['']"), (' "a" ', "['\"a\"']")])
    def test_header_without_the_requested_names_is_config_error(self, capsys, tmp_path, first, names):
        path = write_text(tmp_path / "d.csv", first + "\na,y,m\n0,0,1\n1,1,0\n")
        code, out, err = run_cli(capsys, "--data", path, "--mediators", "m")
        assert (code, out) == (2, "")
        assert err == f"config error: column 'a' not found in {path} (header: {names})\n"

    def test_duplicate_requested_header_is_data_error(self, capsys, tmp_path):
        path = write_text(tmp_path / "d.csv", "a,y,m,m\n0,0,1,1\n1,1,0,0\n")
        code, _, err = run_cli(capsys, "--data", path, "--mediators", "m")
        assert code == 3
        assert "column 'm' appears 2 times in the header" in err

    def test_duplicate_unrequested_header_is_allowed(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "a,y,m,x,x\n0,0,1,1,1\n1,1,0,0,0\n")
        data, n_rows, _ = ingest(path, config_for(path))
        assert n_rows == 2

    # An unrequested header name that holds a quoted line break, or is longer
    # than the csv module's default field size limit, reads as its twin does.
    @pytest.mark.parametrize(
        "name, twin",
        [('"n\nq"', "nq"), ('"\n"', "nq"), ('"n\n\nq"', "nq"), ('"""n""\n,q"', "nq"), ("n" * 200_000, "n")],
        ids=["break", "only-break", "two-breaks", "quote-and-comma", "200k-chars"],
    )
    def test_unrequested_header_name_reads_as_its_twin(self, capsys, tmp_path, name, twin):
        body = "".join(f"{i % 3},{i % 2},{(i // 2) % 2},{(i // 4) % 2}\n" for i in range(40))
        argv = ["--mediators", "m", "--dichotomize", "m=threshold:0.5", "--draws", "300", "--format", "csv"]
        outputs = []
        for stem, first in (("d", name), ("twin", twin)):
            path = write_text(tmp_path / f"{stem}.csv", f"{first},a,y,m\n" + body)
            code, out, err = run_cli(capsys, "--data", path, *argv)
            assert (code, err) == (0, "")
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_invalid_utf8_is_data_error(self, capsys, tmp_path):
        path = write_text(tmp_path / "d.csv", b"a,y,m\n0,0,1\n\xff\xfe,1,0\n")
        code, out, err = run_cli(capsys, "--data", path, "--mediators", "m")
        assert (code, out) == (3, "")
        assert "not valid UTF-8: line 3" in err

    # Lines end in \r, \r\n or \n alike; the byte offset is into the file as read.
    @pytest.mark.parametrize("line_end, byte", [("\n", 18), ("\r", 18), ("\r\n", 21)])
    def test_invalid_utf8_names_its_line_for_every_line_end(self, capsys, tmp_path, line_end, byte):
        text = line_end.join(["a,y,m", "0,0,1", "1,1,0", "\udcff,1,0", "0,1,1"]) + line_end
        path = write_text(tmp_path / "d.csv", text.encode("utf-8", "surrogateescape"))
        code, out, err = run_cli(capsys, "--data", path, "--mediators", "m")
        assert (code, out) == (3, "")
        assert f"not valid UTF-8: line 4, byte {byte}: " in err

    # Stripping would drop a NUL at either end of a cell, so ``\x00`` would
    # read as missing and ``1\x00`` as 1; float() rejects both, and a NUL
    # anywhere in the file is a data error that names its line.
    @pytest.mark.parametrize(
        "row, line_end, line",
        [
            ("1,1,\x00,", "\n", 10),
            ("0,0,1\x00,", "\n", 10),
            ("0,0,\x001,", "\r\n", 10),
            ("1,1,0,\x00", "\r", 10),
            ('1,1,0,"x\n\x00"', "\n", 11),
        ],
    )
    def test_nul_byte_is_data_error(self, capsys, tmp_path, row, line_end, line):
        lines = ["a,y,m,note", *(f"{i % 2},{(i // 2) % 2},{(i // 4) % 2}," for i in range(8)), row, "1,0,1,"]
        text = line_end.join(lines) + line_end
        path = write_text(tmp_path / "d.csv", text)
        code, out, err = run_cli(capsys, "--data", path, "--mediators", "m")
        assert (code, out) == (3, "")
        assert err == f"data error: {path} contains a NUL byte: line {line}\n"
        # The same file without the NUL is accepted.
        write_text(tmp_path / "d.csv", text.replace("\x00", ""))
        assert run_cli(capsys, "--data", path, "--mediators", "m")[0] == 0

    @pytest.mark.parametrize("variant", ["bom", "crlf", "cr"])
    def test_bom_and_line_ends_give_identical_output(self, capsys, tmp_path, variant):
        text = (GOLDEN / "synth_input.csv").read_text()
        if variant == "bom":
            changed = write_text(tmp_path / "v.csv", "\ufeff" + text)
        else:
            changed = write_text(tmp_path / "v.csv", text.replace("\n", "\r\n" if variant == "crlf" else "\r"))
        argv = ["--treatment", "treat", "--outcome", "resp", "--mediators", "m_binary,score",
                "--dichotomize", "score=median-gt", "--draws", "300", "--format", "csv"]
        code, plain_out, _ = run_cli(capsys, "--data", str(GOLDEN / "synth_input.csv"), *argv)
        assert code == 0
        code, changed_out, _ = run_cli(capsys, "--data", changed, *argv)
        assert code == 0
        assert changed_out == plain_out


def spellings(x):
    """Spellings of the double ``x`` that float() reads back as ``x``: 1.0, +1.0, 1.0e0, 01.0, padded, quoted."""
    r = repr(x)
    sign, digits = ("-", r[1:]) if r.startswith("-") else ("+", r)
    return [r, sign + digits, r if "e" in r else r + "e0", sign + "0" + digits, f" {r}\t", f'"{r}"']


MISSING_SPELLINGS = ["NA", "nan", "null", "None", ""]


class TestRespelledCells:
    ARGV = ["--mediators", "m_bin,m_score,m_level", "--dichotomize", EQUIVALENCE_RUNS[0][0],
            "--assumptions", "none,mmr", "--draws", "100"]

    @staticmethod
    def _main(path):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--data", path, *TestRespelledCells.ARGV])
        return code, out.getvalue()

    # Rewriting requested cells as other spellings of the same double, and
    # missing tokens as other missing tokens, keeps every count, so the
    # report is byte for byte the same.  Only records with a non-empty note,
    # which is never rewritten, are rewritten, so none turns blank.
    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 5), rewrite_seed=st.integers(0, 2**32 - 1))
    def test_respelled_cells_give_identical_stdout(self, tmp_path_factory, seed, rewrite_seed):
        rng = np.random.default_rng(rewrite_seed)
        lines = _seeded_csv(seed, quotes=False).splitlines()
        path = write_text(tmp_path_factory.mktemp("respelled") / "d.csv", "\n".join(lines) + "\n")
        before = self._main(path)
        for i, line in enumerate(lines[1:], start=1):
            cells = line.split(",")
            if line in BLANK_LINES or not cells[-1].strip():
                continue
            for j in np.flatnonzero(rng.random(5) < 0.5).tolist():
                token = cells[j].strip()
                if token.lower() in ("", "na", "nan", "null", "none"):
                    cells[j] = MISSING_SPELLINGS[rng.integers(len(MISSING_SPELLINGS))]
                else:
                    cells[j] = spellings(float(token))[rng.integers(6)]
            lines[i] = ",".join(cells)
        write_text(Path(path), "\n".join(lines) + "\n")
        assert self._main(path) == before


class TestExitCodes:
    def test_success(self, capsys):
        code, out, _ = run_cli(capsys, "--counts", E1_COUNTS)
        assert code == 0
        assert json.loads(out)["schema"] == "mediation-bounds/4"

    def test_missing_column_is_config_error(self, capsys, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["a", "y", "m"], [(0, 0, 0), (1, 1, 1)])
        code, _, err = run_cli(capsys, "--data", path, "--mediators", "zzz")
        assert code == 2
        assert "zzz" in err

    def test_bad_rule_is_config_error(self, capsys, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["a", "y", "m"], [(0, 0, 0), (1, 1, 1)])
        code, _, _ = run_cli(
            capsys, "--data", path, "--mediators", "m", "--dichotomize", "sigmoid"
        )
        assert code == 2

    # Each rule would make y and m constant columns; threshold:0.5 on the same file exits 0.
    @pytest.mark.parametrize(
        "rule", ["threshold:nan", "threshold:inf", "threshold:-inf", "threshold:1e400", "m=threshold:nan", "y=none,m=threshold:-inf"]
    )
    def test_non_finite_threshold_is_config_error(self, capsys, tmp_path, rule):
        rows = [(i % 2, (i // 2) % 2, (i // 4) % 2) for i in range(40)]
        path = write_csv(tmp_path / "d.csv", ["a", "y", "m"], rows)
        assert run_cli(capsys, "--data", path, "--mediators", "m", "--dichotomize", "threshold:0.5")[0] == 0
        code, out, err = run_cli(capsys, "--data", path, "--mediators", "m", "--dichotomize", rule)
        assert (code, out) == (2, "")
        assert err.startswith("config error: ")

    def test_no_input_is_config_error(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 2
        assert "required" in err

    def test_data_and_counts_conflict(self, capsys, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["a", "y", "m"], [(0, 0, 0), (1, 1, 1)])
        code, _, _ = run_cli(
            capsys, "--data", path, "--mediators", "m", "--counts", E1_COUNTS
        )
        assert code == 2

    def test_bad_assumption_name(self, capsys):
        code, _, err = run_cli(capsys, "--counts", E1_COUNTS, "--assumptions", "magic")
        assert code == 2
        assert "magic" in err

    def test_short_counts_vector(self, capsys):
        code, _, _ = run_cli(capsys, "--counts", "1,2,3")
        assert code == 2

    def test_bad_alpha(self, capsys):
        code, _, _ = run_cli(capsys, "--counts", E1_COUNTS, "--alpha", "1.5")
        assert code == 2

    # A str or None alpha used to escape RunConfig as a TypeError.
    @pytest.mark.parametrize("alpha", ["0.05", None, True])
    def test_run_config_refuses_a_non_real_alpha(self, alpha):
        with pytest.raises(ConfigError, match="alpha must be a real number"):
            config_for(None, counts=(40, 30, 20, 10, 10, 20, 30, 40), mediators=(), alpha=alpha)

    # --draws 1000001 is refused by the limit check, before any simulation is allocated.
    @pytest.mark.parametrize(
        "flag", [("--seed", "18446744073709551616"), ("--seed", "-1"), ("--draws", "50"), ("--draws", "1000001")]
    )
    def test_inference_limits_are_config_errors(self, capsys, flag):
        code, out, err = run_cli(capsys, "--counts", E1_COUNTS, *flag)
        assert (code, out) == (2, "")
        assert err.startswith("config error: ")

    def test_run_config_rejects_a_seed_past_64_bits(self):
        with pytest.raises(ConfigError, match="seed"):
            config_for(None, counts=(40, 30, 20, 10, 10, 20, 30, 40), seed=2**64)

    # The library route gets the checks that --counts gets, rather than a
    # silently truncated 1.5 or a data error for a negative count.
    @pytest.mark.parametrize(
        "counts, message",
        [
            ((1.5, 2, 3, 4, 5, 6, 7, 8), "must be integers"),
            ((-1, 2, 3, 4, 5, 6, 7, 8), "must be nonnegative"),
            ((1, 2, 3), "exactly 8 integers, got 3"),
            ((2**53 - 6, 1, 1, 1, 1, 1, 1, 1), "at most 2\\*\\*53"),
            ((40, 30, 20, 10, 10, 20, 30, 40), "--counts takes no --mediators"),  # config_for names a mediator
        ],
    )
    def test_run_config_checks_counts(self, counts, message):
        with pytest.raises(ConfigError, match=message):
            config_for(None, counts=counts)

    # from_counts and RunConfig(counts=...) run the one count check, so they
    # accept and refuse the same inputs with the same message; a count beyond
    # int64 is refused for its total, as --counts refuses it.
    @pytest.mark.parametrize(
        "counts, refusal",
        [
            ((40, 30, 20, 10, 10, 20, 30, 40), None),
            (tuple(np.array([4, 3, 2, 1, 1, 2, 3, 4], dtype=np.int64)), None),
            (np.array([4, 3, 2, 1, 1, 2, 3, 4], dtype=np.uint64), None),
            ((2**53 - 7, 1, 1, 1, 1, 1, 1, 1), None),
            ((True,) * 8, "must be integers"),
            ((1, True, 1, 1, 1, 1, 1, 1), "must be integers"),
            ((1.0,) * 8, "must be integers"),
            ((1.5, 2, 3, 4, 5, 6, 7, 8), "must be integers"),
            (("1", 2, 3, 4, 5, 6, 7, 8), "must be integers"),
            ((-1, 2, 3, 4, 5, 6, 7, 8), "must be nonnegative"),
            ((2**63, 1, 1, 1, 1, 1, 1, 1), "total must be at most 2**53"),
            ((10**20, 1, 1, 1, 1, 1, 1, 1), "total must be at most 2**53"),
            ((2**53 - 6, 1, 1, 1, 1, 1, 1, 1), "total must be at most 2**53"),
            ((1, 2, 3), "exactly 8 integers"),
            ((1,) * 9, "exactly 8 integers"),
            ((), "exactly 8 integers"),
        ],
    )
    def test_counts_rule_is_from_counts_rule(self, counts, refusal):
        try:
            from_counts(counts)
        except ValidationError as exc:
            library = f"--{exc}"
        else:
            library = None
        try:
            config = config_for(None, counts=counts, mediators=())
        except ConfigError as exc:
            assert str(exc) == library
        else:
            assert library is None
            assert config.counts == tuple(int(c) for c in counts)
            assert all(type(c) is int for c in config.counts)
        if refusal is None:
            assert library is None
        else:
            assert library.startswith("--counts ") and refusal in library

    # An unknown assumption set or a float reference is a bad configuration,
    # refused when the config is built rather than reported as a data error.
    @pytest.mark.parametrize("fields", [{"assumptions": ("none",)}, {"assumptions": (Assumptions.NONE, "mmr")},
                                        {"reference": 1.0}, {"reference": 2}])
    def test_run_config_checks_its_specs(self, fields):
        with pytest.raises(ConfigError):
            config_for(None, counts=(40, 30, 20, 10, 10, 20, 30, 40), mediators=(), **fields)

    def test_path_and_str_give_identical_reports(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["a", "y", "m"], [(i % 2, (i // 2) % 2, (i // 4) % 2) for i in range(16)])
        by_str = run(config_for(path, draws=200)).to_json_text()
        by_path = run(config_for(Path(path), draws=200)).to_json_text()
        assert by_path.encode() == by_str.encode()

    # --mediators and --dichotomize select and recode --data columns; --counts
    # would ignore them, so it refuses them rather than drop them silently.
    @pytest.mark.parametrize(
        "flags",
        [("--mediators", "zzz"), ("--dichotomize", "sigmoid"), ("--dichotomize", "median-gt"),
         ("--mediators", "m", "--dichotomize", "m=threshold:0.5")],
    )
    def test_counts_refuses_data_only_flags(self, capsys, flags):
        code, out, err = run_cli(capsys, "--counts", E1_COUNTS, *flags)
        assert (code, out) == (2, "")
        assert err.startswith("config error: --counts takes no --mediators or --dichotomize")

    def test_counts_echoes_treatment_and_outcome_as_labels(self, capsys):
        code, out, _ = run_cli(capsys, "--counts", E1_COUNTS, "--treatment", "drug", "--outcome", "cured")
        assert code == 0
        config = json.loads(out)["config"]
        assert (config["treatment"], config["outcome"]) == ("drug", "cured")

    def test_run_config_stores_python_scalars(self):
        # The report echoes the config as JSON, which cannot hold numpy scalars.
        counts = (40, 30, 20, 10, 10, 20, 30, 40)
        plain = config_for(None, counts=counts, mediators=(), seed=3, draws=200, reference=0, alpha=0.1, strict=False)
        numpy = config_for(
            None, counts=tuple(np.array(counts, dtype=np.int64)), mediators=(), seed=np.int64(3),
            draws=np.int32(200), reference=np.int8(0), alpha=np.float64(0.1), strict=np.bool_(False),
        )
        assert numpy == plain
        assert [type(v) for v in vars(numpy).values()] == [type(v) for v in vars(plain).values()]
        assert run(numpy).to_json_text() == run(plain).to_json_text()

    def test_parser_dests_are_run_config_fields(self):
        dests = {action.dest for action in cli._build_parser()._actions} - {"help"}
        assert dests == {field.name for field in dataclasses.fields(RunConfig)}

    def test_small_arm_names_the_mediator(self, capsys, tmp_path):
        # m2's complete cases keep one treated unit: a data error for m2, and
        # no report with an in-band inference error is written.
        rows = [(i % 2, i // 3 % 2, i // 2 % 2, "" if i % 2 and i > 1 else i // 5 % 2) for i in range(20)]
        path = write_csv(tmp_path / "d.csv", ["a", "y", "m", "m2"], rows)
        code, out, err = run_cli(capsys, "--data", path, "--mediators", "m,m2")
        assert (code, out) == (3, "")
        assert err == "data error: mediator 'm2': need at least 2 observations per arm, got n0=10, n1=1\n"

    # Each documented refusal of a bad file or flag, with its exit code and message.
    @pytest.mark.parametrize(
        "text, flags, code, message",
        [
            ("", ("--mediators", "m"), 3, "data error: {path} is empty"),
            ("a,y,m\n0,NA,1\n1,NA,0\n", ("--mediators", "m"), 3, "data error: column 'y' has no non-missing values"),
            ("a,y,m\n0,,1\n1,,0\n,1,1\n,0,0\n", ("--mediators", "m"), 3,
             "data error: no rows with both treatment and outcome observed"),
            ("a,y,m\n" + "1,1,\n" * 4 + ",,1\n", ("--mediators", "m"), 3,
             "data error: mediator 'm': all rows dropped by missing-value filtering"),
            ("a,y,m\n0,0,0\n1,1,1\n", (), 2, "config error: at least one mediator column is required"),
            ("a,y,m\n0,0,0\n1,1,1\n", ("--mediators", "m", "--dichotomize", "median-gt,none"), 2,
             "config error: multiple global dichotomize rules: ['median-gt', 'none']"),
            ("a,y,m\n0,0,0\n1,1,1\n", ("--mediators", "m", "--dichotomize", "m=median-gt,m=threshold:5"), 2,
             "config error: dichotomize rules name column 'm' more than once"),
            ("a,y,m\n0,0,0\n1,1,1\n", ("--mediators", "m", "--assumptions", ","), 2,
             "config error: at least one assumption set is required"),
            ("a,y,m\n0,0,0\n0,1,1\n1,0,1\n1,1,0\n", ("--mediators", "m", "--alpha", "1e-16"), 2,
             "config error: alpha must be above 2**-53, got 1e-16"),
            ("a,y,m\n0,0,0\n0,1,1\n1,0,1\n1,1,0\n", ("--mediators", "m", "--assumptions", "none,none"), 2,
             "config error: assumption set 'none' is named more than once"),
        ],
        ids=["empty-file", "all-missing-column", "treatment-and-outcome-apart", "mediator-all-dropped",
             "no-mediators", "two-global-rules", "one-column-twice", "no-assumption-set",
             "alpha-level-rounds-to-1", "one-assumption-set-twice"],
    )
    def test_bad_input_exit_code_and_message(self, capsys, tmp_path, text, flags, code, message):
        path = write_text(tmp_path / "d.csv", text)
        assert run_cli(capsys, "--data", path, *flags) == (code, "", message.format(path=path) + "\n")

    def test_run_config_refuses_an_unknown_format(self):
        # The command line's choices never let one through; a RunConfig built in code can.
        with pytest.raises(ConfigError, match="^format must be json, csv, or plotdata, got 'xml'$"):
            config_for(None, counts=(40, 30, 20, 10, 10, 20, 30, 40), mediators=(), format="xml")

    def test_unknown_flag(self, capsys):
        code = main(["--counts", E1_COUNTS, "--frobnicate"])
        capsys.readouterr()
        assert code == 2

    def test_help_exits_zero(self, capsys):
        code = main(["--help"])
        out = capsys.readouterr().out
        assert code == 0
        assert "--counts" in out

    def test_nonexistent_file_is_data_error(self, capsys):
        code, _, _ = run_cli(capsys, "--data", "/does/not/exist.csv", "--mediators", "m")
        assert code == 3

    def test_non_numeric_cell_is_data_error(self, capsys, tmp_path):
        path = write_csv(
            tmp_path / "d.csv", ["a", "y", "m"], [(0, 0, 0), (1, "oops", 1)]
        )
        code, _, err = run_cli(capsys, "--data", path, "--mediators", "m")
        assert code == 3
        assert "row 3" in err and "oops" in err

    def test_non_binary_without_rule_is_data_error(self, capsys, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["a", "y", "m"], [(0, 0, 2), (1, 1, 1)])
        code, _, err = run_cli(capsys, "--data", path, "--mediators", "m")
        assert code == 3
        assert "non-binary" in err

    def test_header_only_file_is_data_error(self, capsys, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["a", "y", "m"], [])
        code, _, _ = run_cli(capsys, "--data", path, "--mediators", "m")
        assert code == 3

    def test_strict_incompatibility_is_exit_4(self, capsys):
        reversed_counts = "10,20,30,40,40,30,20,10"  # margin difference -0.2
        code, _, err = run_cli(
            capsys, "--counts", reversed_counts, "--assumptions", "mmr", "--strict"
        )
        assert code == 4
        assert "incompatib" in err

    def test_incompatibility_without_strict_reports_in_band(self, capsys):
        reversed_counts = "10,20,30,40,40,30,20,10"
        code, out, _ = run_cli(capsys, "--counts", reversed_counts, "--assumptions", "mmr")
        assert code == 0
        result = json.loads(out)["mediators"][0]["results"][0]
        assert result["incompatible"] is True
        assert result["closed_form"]["incompatible"] is True
        assert result["closed_form"]["diagnostics"]
        assert result["lp"] == result["closed_form"]

    # n0 = 40,001 and n1 = 40,000 with 40,000 and 39,999 mediator units: the
    # mediator ATE is -1/(n0 n1), and the interval crosses by 2/(n0 n1) =
    # 1.25e-9 at either reference, above ORDER_TOL.
    REPRODUCER = "1,21164,0,18836,1,30111,0,9888"

    @pytest.mark.parametrize("reference", ["0", "1"])
    def test_tiny_negative_mediator_ate_is_flagged_not_a_data_error(self, capsys, reference):
        code, out, err = run_cli(
            capsys, "--counts", self.REPRODUCER, "--assumptions", "none,mmr,mmr-pos-mediator",
            "--reference", reference,
        )
        assert (code, err) == (0, "")
        results = {r["assumptions"]: r for r in json.loads(out)["mediators"][0]["results"]}
        assert {name: r["incompatible"] for name, r in results.items()} == {
            "none": False, "mmr": True, "mmr-pos-mediator": True,
        }
        for r in results.values():
            assert r["lp"] == r["closed_form"]
            assert r["closed_form"]["incompatible"] is r["incompatible"]
            assert r["ande"]["incompatible"] is r["incompatible"]

    @pytest.mark.parametrize("n0", [100, 1_000, 10_000, 31_623, 100_000, 1_000_000])
    def test_near_zero_mediator_ate_sweep(self, capsys, n0):
        # Mediator ATE -k/(n0 n1) with n1 = n0 - 1 and n0 - k, n0 - k - 1
        # mediator units: exit 0, and both blocks carry the one verdict.
        for k in (1, 3, 30):
            m0, m1 = n0 - k, n0 - k - 1
            counts = ",".join(map(str, (0, m0 - m0 // 2, n0 - m0, m0 // 2, 0, m1 - m1 // 3, n0 - 1 - m1, m1 // 3)))
            for reference in ("0", "1"):
                code, out, err = run_cli(
                    capsys, "--counts", counts, "--assumptions", "none,mmr,mmr-pos-mediator",
                    "--reference", reference, "--draws", "100",
                )
                assert (code, err) == (0, ""), counts
                for r in json.loads(out)["mediators"][0]["results"]:
                    assert r["lp"] == r["closed_form"]
                    assert r["incompatible"] is r["closed_form"]["incompatible"]
                    if r["assumptions"] == "none" or k / (n0 * (n0 - 1)) > 1e-9:
                        assert r["incompatible"] is (r["assumptions"] != "none"), (counts, r["assumptions"])

    def test_tiny_negative_mediator_ate_is_exit_4_under_strict(self, capsys):
        code, out, err = run_cli(capsys, "--counts", self.REPRODUCER, "--assumptions", "mmr", "--strict")
        assert (code, out) == (4, "")
        assert "incompatib" in err


class TestCountsMode:
    def test_benchmark_table_values(self, capsys):
        code, out, _ = run_cli(
            capsys, "--counts", E1_COUNTS, "--assumptions", "none,mmr,mmr-pos-mediator"
        )
        assert code == 0
        report = json.loads(out)
        med = report["mediators"][0]
        assert med["name"] == "counts"
        assert med["n1"] == 100 and med["n0"] == 100
        assert med["counts"] == [40, 30, 20, 10, 10, 20, 30, 40]
        assert report["ate"]["estimate"] == pytest.approx(0.4, abs=1e-12)
        assert med["iot"]["estimate"] == pytest.approx(0.2, abs=1e-12)
        by_assumption = {r["assumptions"]: r for r in med["results"]}
        none = by_assumption["none"]
        assert none["closed_form"]["lower"] == pytest.approx(-0.3, abs=1e-12)
        assert none["closed_form"]["upper"] == pytest.approx(0.7, abs=1e-12)
        mmr = by_assumption["mmr"]
        assert mmr["closed_form"]["lower"] == pytest.approx(-0.2, abs=1e-12)
        assert mmr["closed_form"]["upper"] == pytest.approx(0.2, abs=1e-12)
        assert mmr["ande"]["lower"] == pytest.approx(0.2, abs=1e-12)
        assert mmr["ande"]["upper"] == pytest.approx(0.6, abs=1e-12)
        pos = by_assumption["mmr-pos-mediator"]
        assert pos["closed_form"]["lower"] == pytest.approx(-0.2, abs=1e-12)
        assert pos["closed_form"]["upper"] == pytest.approx(0.2, abs=1e-12)

    def test_zero_mediator_ate_prints_zero_bounds(self, capsys):
        # Arms of 8 and 6 units, half of each with M = 1: the mediator ATE is
        # exactly 0, so both restricted sets print [0, 0], unflagged.
        code, out, _ = run_cli(
            capsys, "--counts", "2,3,2,1,1,1,2,2", "--assumptions", "mmr,mmr-pos-mediator", "--format", "csv"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["assumptions"] for r in rows] == ["mmr", "mmr-pos-mediator"]
        for r in rows:
            fields = ("cf_lower", "cf_upper", "lp_lower", "lp_upper", "incompatible")
            assert {k: r[k] for k in fields} == dict.fromkeys(fields, "0"), r["assumptions"]

    def test_matches_library_calls(self, capsys):
        code, out, _ = run_cli(capsys, "--counts", E1_COUNTS, "--assumptions", "mmr")
        assert code == 0
        report = json.loads(out)
        dist = from_counts([40, 30, 20, 10, 10, 20, 30, 40])
        direct = anie_bounds(dist, EstimandSpec(1, Assumptions.MMR))
        cf = report["mediators"][0]["results"][0]["closed_form"]
        lp = report["mediators"][0]["results"][0]["lp"]
        assert cf["lower"] == pytest.approx(direct.lower, abs=1e-15)
        assert cf["upper"] == pytest.approx(direct.upper, abs=1e-15)
        assert lp == cf
        assert report["ate"]["estimate"] == pytest.approx(ate(dist), abs=1e-15)


class TestCountsMatchData:
    @pytest.mark.parametrize("counts", [[40, 30, 20, 10, 10, 20, 30, 40], [5, 0, 2, 1, 0, 3, 0, 1]])
    def test_mediator_block_equals_the_csv_of_the_same_units(self, capsys, tmp_path, counts):
        rows = [(a, y, m) for a in (0, 1) for y in (0, 1) for m in (0, 1) for _ in range(counts[4 * a + 2 * y + m])]
        path = write_csv(tmp_path / "units.csv", ["a", "y", "m"], rows)
        argv = ("--assumptions", "none,mmr,mmr-pos-mediator", "--seed", "7", "--draws", "400")
        code, from_counts_out, _ = run_cli(capsys, "--counts", ",".join(map(str, counts)), *argv)
        assert code == 0
        code, from_data_out, _ = run_cli(capsys, "--data", path, "--mediators", "m", *argv)
        assert code == 0
        by_counts, by_data = json.loads(from_counts_out), json.loads(from_data_out)
        assert by_counts["ate"] == by_data["ate"]
        keys = ("counts", "n1", "n0", "ate", "iot", "results")
        block = {k: by_counts["mediators"][0][k] for k in keys}
        assert block == {k: by_data["mediators"][0][k] for k in keys}
        assert block["counts"] == counts


class TestCountsLimit:
    def test_large_total_runs(self, capsys):
        code, out, _ = run_cli(capsys, "--counts", "100000000000,5,5,5,5,5,5,5", "--draws", "200")
        assert code == 0
        med = json.loads(out)["mediators"][0]
        assert (med["n0"], med["n1"], med["n_used"]) == (100000000015, 20, 100000000035)

    @pytest.mark.parametrize("counts", [f"{2**53 - 6},1,1,1,1,1,1,1", "99999999999999999999,5,5,5,5,5,5,5"])
    def test_total_above_2_pow_53_is_config_error(self, capsys, counts):
        code, out, err = run_cli(capsys, "--counts", counts)
        assert (code, out) == (2, "")
        assert err.startswith("config error: --counts total must be at most 2**53 = 9007199254740992, got ")

    def test_total_of_2_pow_53_is_accepted(self, capsys):
        code, _, _ = run_cli(capsys, "--counts", f"{2**53 - 7},1,1,1,1,1,1,1", "--draws", "200")
        assert code == 0


class TestOutputs:
    def test_json_report_shape(self, capsys):
        code, out, _ = run_cli(capsys, "--counts", E1_COUNTS, "--assumptions", "none,mmr")
        report = json.loads(out)
        assert report["schema"] == "mediation-bounds/4"
        assert report["version"] == __version__
        assert report["config"]["assumptions"] == ["none", "mmr"]
        assert report["config"]["counts"] == [40, 30, 20, 10, 10, 20, 30, 40]
        result = report["mediators"][0]["results"][0]
        for key in ("closed_form", "lp", "ande", "inference", "incompatible"):
            assert key in result
        inference = result["inference"]
        assert set(inference["selection"]) == {"lower", "upper"}
        assert inference["ci_lower"] <= inference["bound_lower_hmu"]
        assert inference["ci_upper"] >= inference["bound_upper_hmu"]

    def test_json_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "--counts", E1_COUNTS, "--seed", "9")
        _, second, _ = run_cli(capsys, "--counts", E1_COUNTS, "--seed", "9")
        assert first == second
        _, third, _ = run_cli(capsys, "--counts", E1_COUNTS, "--seed", "10")
        assert first != third

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "--counts", E1_COUNTS, "--assumptions", "none,mmr", "--format", "csv"
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][:3] == ["mediator", "assumptions", "reference"]
        assert len(rows) == 3  # header + one row per assumption set
        assert rows[1][1] == "none"
        assert rows[2][1] == "mmr"

    def test_plotdata_shape_and_invariants(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "--counts", E1_COUNTS,
            "--assumptions", "none,mmr,mmr-pos-mediator",
            "--format", "plotdata",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        methods = [r["method"] for r in rows]
        assert methods == ["iot", "bounds-none", "bounds-mmr", "bounds-mmr-pos"]
        for row in rows:
            assert float(row["ate_reference_line"]) == pytest.approx(0.4, abs=1e-9)
        none_row = rows[1]
        assert float(none_row["lo"]) <= 0.0 <= float(none_row["hi"])
        iot_row = rows[0]
        assert iot_row["lo"] == "" and iot_row["hi"] == ""
        assert float(iot_row["point"]) == pytest.approx(0.2, abs=1e-9)

    def test_two_mediators_give_six_plotdata_rows(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "--data", str(GOLDEN / "synth_input.csv"),
            "--treatment", "treat", "--outcome", "resp",
            "--mediators", "m_binary,score",
            "--dichotomize", "score=median-gt",
            "--assumptions", "none,mmr",
            "--format", "plotdata",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 6
        assert {r["mediator"] for r in rows} == {"m_binary", "score"}

    PLOTDATA_ARGV = (
        "--data", "synth_input.csv",
        "--treatment", "treat", "--outcome", "resp",
        "--mediators", "m_binary,score",
        "--dichotomize", "score=median-gt",
        "--assumptions", "none,mmr",
        "--seed", "4", "--draws", "500",
        "--format", "plotdata",
    )
    SYNTH_ARGV = (
        "--data", "synth_input.csv", "--treatment", "treat", "--outcome", "resp",
        "--mediators", "m_binary,score", "--dichotomize", "score=median-gt",
        "--assumptions", "none,mmr,mmr-pos-mediator", "--seed", "4", "--draws", "500",
    )
    COUNTS_ARGV = ("--counts", "17,9,0,6,4,11,13,19", "--assumptions", "none,mmr,mmr-pos-mediator")
    # Each golden's command line, run from the golden directory so the echoed --data path is relative.
    GOLDEN_RUNS = [
        (PLOTDATA_ARGV, "plotdata_synth.csv"),
        (SYNTH_ARGV + ("--format", "json"), "report_synth.json"),
        (SYNTH_ARGV + ("--format", "csv"), "report_synth.csv"),
        (COUNTS_ARGV + ("--reference", "0"), "report_counts_ref0.json"),
        (COUNTS_ARGV + ("--reference", "1"), "report_counts_ref1.json"),
    ]

    def test_golden_plotdata(self, capsys, monkeypatch):
        monkeypatch.chdir(GOLDEN)
        code, out, _ = run_cli(capsys, *self.PLOTDATA_ARGV)
        assert code == 0
        assert out == (GOLDEN / "plotdata_synth.csv").read_text()

    @pytest.mark.parametrize("argv, golden", GOLDEN_RUNS[1:])
    def test_golden_reports(self, capsys, monkeypatch, argv, golden):
        monkeypatch.chdir(GOLDEN)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out == (GOLDEN / golden).read_text()

    def test_goldens_on_every_blas_kernel(self):
        # The bytes must not depend on which OpenBLAS kernel numpy loads: one
        # child per kernel runs every golden command, with the kernel forced
        # in that child's environment only.
        blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
        if "openblas" not in blas.get("name", "") or "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
            pytest.skip("numpy's BLAS is not OpenBLAS built with DYNAMIC_ARCH")
        from numpy._core._multiarray_umath import __cpu_features__ as cpu

        kernels = ["Prescott", "Sandybridge"] + ["Haswell"] * cpu["AVX2"] + ["SkylakeX"] * cpu["AVX512F"]
        child = (
            "import contextlib, io, json, sys\n"
            "from mediation_bounds.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            "        code = main(argv)\n"
            "    print(json.dumps([code, out.getvalue()]))\n"
        )
        argvs = json.dumps([list(argv) for argv, _ in self.GOLDEN_RUNS])
        path = str(Path(mediation_bounds.__file__).parents[1])
        children = {
            kernel: subprocess.Popen(
                [sys.executable, "-c", child, argvs], cwd=GOLDEN, text=True,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                env=dict(os.environ, PYTHONPATH=path, OPENBLAS_CORETYPE=kernel),
            )
            for kernel in kernels
        }
        # Every child is waited on before the first assertion, so a failure
        # leaves no pipe open for a later test to trip over.
        outputs = {kernel: proc.communicate(timeout=120) for kernel, proc in children.items()}
        want = [[0, (GOLDEN / golden).read_text()] for _, golden in self.GOLDEN_RUNS]
        for kernel, (out, err) in outputs.items():
            assert children[kernel].returncode == 0, err
            got = [json.loads(line) for line in out.splitlines()]
            assert len(got) == len(want), kernel
            for (_, golden), g, w in zip(self.GOLDEN_RUNS, got, want):
                assert g == w, f"{golden} differs under OPENBLAS_CORETYPE={kernel}"

    def test_mediator_streams_are_independent(self, capsys, tmp_path):
        # Two mediators with identical data: identical plug-in bounds, but the
        # per-mediator seed substreams give different simulated critical values.
        rows = [(i % 2, (i // 2) % 2, (i // 4) % 2, (i // 4) % 2) for i in range(40)]
        path = write_csv(tmp_path / "twin.csv", ["a", "y", "m1", "m2"], rows)
        code, out, _ = run_cli(capsys, "--data", path, "--mediators", "m1,m2")
        assert code == 0
        report = json.loads(out)
        r1, r2 = (m["results"][0] for m in report["mediators"])
        assert r1["closed_form"] == r2["closed_form"]
        assert (
            r1["inference"]["selection"]["upper"]["k_ci"]
            != r2["inference"]["selection"]["upper"]["k_ci"]
        )

    def test_csv_and_plotdata_cells_equal_the_json_fields(self, capsys, tmp_path):
        # m2 follows the table 10,20,30,40,40,30,20,10, whose negative mediator
        # ATE is incompatible with mmr; m1 = 1 - m2 is compatible with it.
        rows = []
        for cell, n in enumerate([10, 20, 30, 40, 40, 30, 20, 10]):
            a, y, m = cell // 4, (cell // 2) % 2, cell % 2
            rows += [(a, y, 1 - m, m)] * n
        path = write_csv(tmp_path / "d.csv", ["a", "y", "m1", "m2"], rows)
        argv = ("--data", path, "--mediators", "m1,m2", "--assumptions", "none,mmr", "--draws", "200")
        out = {}
        for fmt in ("json", "csv", "plotdata"):
            code, out[fmt], _ = run_cli(capsys, *argv, "--format", fmt)
            assert code == 0
        report = json.loads(out["json"])
        f = cli._fmt
        tau = f(report["ate"]["estimate"])
        methods = {"none": "bounds-none", "mmr": "bounds-mmr"}
        table, plot = [], []
        for m in report["mediators"]:
            ate, iot = m["ate"], m["iot"]
            plot.append(
                {
                    "mediator": m["name"], "method": "iot", "point": f(iot["estimate"]), "lo": "", "hi": "",
                    "ci_lo": f(iot["ci"][0]), "ci_hi": f(iot["ci"][1]), "ate_reference_line": tau,
                }
            )
            for r in m["results"]:
                cf, lp, ande, iv = r["closed_form"], r["lp"], r["ande"], r["inference"]
                plot.append(
                    {
                        "mediator": m["name"], "method": methods[r["assumptions"]], "point": "",
                        "lo": f(cf["lower"]), "hi": f(cf["upper"]),
                        "ci_lo": f(iv["ci_lower"]), "ci_hi": f(iv["ci_upper"]), "ate_reference_line": tau,
                    }
                )
                table.append(
                    {
                        "mediator": m["name"], "assumptions": r["assumptions"], "reference": str(r["reference"]),
                        "n_used": str(m["n_used"]), "n_dropped": str(m["n_dropped"]),
                        "ate": f(ate["estimate"]), "ate_se": f(ate["se"]),
                        "ate_ci_lo": f(ate["ci"][0]), "ate_ci_hi": f(ate["ci"][1]),
                        "iot": f(iot["estimate"]), "iot_se": f(iot["se"]),
                        "iot_ci_lo": f(iot["ci"][0]), "iot_ci_hi": f(iot["ci"][1]),
                        "cf_lower": f(cf["lower"]), "cf_upper": f(cf["upper"]),
                        "lp_lower": f(lp["lower"]), "lp_upper": f(lp["upper"]),
                        "ande_lower": f(ande["lower"]), "ande_upper": f(ande["upper"]),
                        "hmu_lower": f(iv["bound_lower_hmu"]), "hmu_upper": f(iv["bound_upper_hmu"]),
                        "ci_lower": f(iv["ci_lower"]), "ci_upper": f(iv["ci_upper"]),
                        "incompatible": str(int(r["incompatible"])), "notes": "; ".join(cf["diagnostics"]),
                    }
                )
        for text, expected in ((out["csv"], table), (out["plotdata"], plot)):
            assert next(csv.reader(io.StringIO(text))) == list(expected[0])
            assert list(csv.DictReader(io.StringIO(text))) == expected
        flagged = [row for row in table if row["incompatible"] == "1"]
        assert [(row["mediator"], row["assumptions"]) for row in flagged] == [("m2", "mmr")]
        assert flagged[0]["notes"]


def run_main(argv):
    """Exit code and stdout of an in-process ``main``, stderr discarded."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def assert_exit_contract(argv):
    code, out = run_main(argv)
    assert code in (0, 2, 3, 4)
    if code != 0:
        assert out == ""
    assert run_main(argv) == (code, out)
    return code


FUZZ_CSV = b"a,y,m\n" + b"".join(f"{i % 2},{(i // 2) % 2},{(i // 4) % 2}\n".encode() for i in range(16))
# The header line deleted, blanked, short of one name, with one name twice, or a data row.
FUZZ_HEADERS = [b"", b"\n", b"y,m\n", b"a,m\n", b"a,y\n", b"a,a,y,m\n", b"a,y,y,m\n", b"a,y,m,m\n", b"1,0,1\n"]
FUZZ_BYTES = [
    b"\xef\xbb\xbf", b"\r", b"\r\n", b'"', b'""', b"\x00", b"\xff", b"\xc3", b"inf", b"-inf", b"1e400",
    b"nan", b"NA", b",", b"\n", b" ", b"a,", b"m,", b"2", b"0.5",
]
NUMBER_TEXT = st.sampled_from(
    ["0", "1", "-1", "0.05", "0.5", "1.5", "250", "nan", "inf", "-inf", "1e400", "", "x", " 7", "1_0", "1e3", str(2**64), "9" * 30]
)
RULE_TEXT = st.sampled_from(["", "none", "median-gt", "threshold:0.5", "sigmoid", "m=median-gt", "m=threshold:"]) | (
    st.sampled_from(["threshold:", "m=threshold:", "y=none,m=threshold:"]).flatmap(
        lambda prefix: NUMBER_TEXT.map(lambda x: prefix + x)
    )
)


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "d.csv"


@pytest.mark.usefixtures("one_parser")
class TestExitCodeContract:
    """Any input exits 0, 2, 3 or 4, writes nothing to stdout unless it exits 0, and reruns byte for byte."""

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(
        edits=st.lists(
            st.tuples(st.integers(0, len(FUZZ_CSV)), st.integers(0, 2), st.sampled_from(FUZZ_BYTES)), max_size=4
        ),
        rule=RULE_TEXT,
        header=st.just(b"a,y,m\n") | st.sampled_from(FUZZ_HEADERS),
    )
    def test_mutated_csv(self, fuzz_path, edits, header, rule):
        data = bytearray(header + FUZZ_CSV[FUZZ_CSV.index(b"\n") + 1 :])
        for at, cut, insert in edits:
            data[at : at + cut] = insert
        fuzz_path.write_bytes(bytes(data))
        code = assert_exit_contract(
            ["--data", str(fuzz_path), "--mediators", "m", f"--dichotomize={rule}", "--draws", "100",
             "--assumptions", "none,mmr"]
        )
        if code == 0:  # an accepted file tabulates as the csv-module reference does
            assert_same_ingest(str(fuzz_path), config_for(str(fuzz_path), dichotomize=rule))

    # Each example sets at most two flags to arbitrary text over valid defaults,
    # so that most runs get past the first check.
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(
        counts=st.lists(st.integers(0, 30).map(str), min_size=8, max_size=8).map(",".join)
        | st.lists(st.integers(-1, 30).map(str) | NUMBER_TEXT, max_size=9).map(",".join)
        | st.text(alphabet="0123456789,.-+eE nai_", max_size=20),
        flags=st.dictionaries(
            st.sampled_from(["--alpha", "--seed", "--draws"]), NUMBER_TEXT, max_size=2
        ).map(lambda d: [f"{k}={v}" for k, v in d.items()]),
    )
    def test_random_flags(self, counts, flags):
        # No --dichotomize: with --counts it is a config error before any of
        # these flags is read.  test_mutated_csv fuzzes the rule text.
        assert_exit_contract([f"--counts={counts}", "--draws=100", *flags, "--assumptions", "none,mmr"])


class TestConsoleScript:
    """The `mediation-bounds` console script.

    The declared entry point is resolved from pyproject.toml and run the way
    the generated launcher runs it, so it is checked without an install; the
    installed wrapper on PATH is checked wherever it is present.
    """

    def test_installed_entry_point(self, tmp_path, capsysbinary):
        if sys.version_info >= (3, 11):
            import tomllib
        else:
            tomllib = pytest.importorskip("tomli")
        with open(PYPROJECT, "rb") as fh:
            scripts = tomllib.load(fh)["project"].get("scripts", {})
        assert "mediation-bounds" in scripts, "console script not declared"
        module, _, attr = scripts["mediation-bounds"].partition(":")
        assert callable(getattr(importlib.import_module(module), attr))

        argv = ["--counts", E1_COUNTS, "--format", "plotdata"]
        launcher = (
            "import importlib, sys\n"
            "sys.argv[0] = 'mediation-bounds'\n"
            f"target = getattr(importlib.import_module({module!r}), {attr!r})\n"
            "sys.exit(target())\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(mediation_bounds.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", launcher, *argv],
            capture_output=True,
            cwd=tmp_path,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr.decode(errors="replace")
        assert proc.stdout.startswith(b"mediator,method,point,lo,hi")
        assert main(argv) == 0
        assert proc.stdout == capsysbinary.readouterr().out

    def test_python_dash_m(self, tmp_path, capsysbinary):
        argv = ["--counts", E1_COUNTS, "--assumptions", "none,mmr,mmr-pos-mediator", "--format", "csv"]
        env = dict(os.environ, PYTHONPATH=str(Path(mediation_bounds.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "mediation_bounds.cli", *argv],
            capture_output=True,
            cwd=tmp_path,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr.decode(errors="replace")
        assert proc.stdout.startswith(b"mediator,assumptions,")
        assert main(argv) == 0
        assert proc.stdout == capsysbinary.readouterr().out

    def test_runs_without_test_only_packages(self, tmp_path):
        # The runtime dependency is numpy alone: a src/ import of a test-only
        # package fails here as an ImportError.
        code = (
            "import sys\n"
            "sys.modules['scipy'] = sys.modules['hypothesis'] = sys.modules['pytest'] = None\n"
            "import mediation_bounds, mediation_bounds.cli\n"
            f"sys.exit(mediation_bounds.cli.main(['--counts', {E1_COUNTS!r}, '--draws', '100']))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(mediation_bounds.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, cwd=tmp_path, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr.decode(errors="replace")

    def test_counts_run_loads_neither_the_lp_nor_the_oracle(self, tmp_path):
        # The package root exports the request path alone; the stratum LP and
        # the oracle are imported from their own modules, by validation code.
        code = (
            "import sys\n"
            "import mediation_bounds, mediation_bounds.cli\n"
            f"assert mediation_bounds.cli.main(['--counts', {E1_COUNTS!r}, '--draws', '100']) == 0\n"
            "lazy = {'mediation_bounds.lp_engine', 'mediation_bounds.oracle'}\n"
            "assert not lazy & set(sys.modules), sorted(lazy & set(sys.modules))\n"
            "names = mediation_bounds.__all__\n"
            "assert len(names) == len(set(names)) == 25\n"
            "star = {}\n"
            "exec('from mediation_bounds import *', star)\n"
            "assert set(star) - {'__builtins__'} == set(names)\n"
            "assert all(star[name] is getattr(mediation_bounds, name) for name in names)\n"
            "assert not lazy & set(sys.modules), sorted(lazy & set(sys.modules))\n"
            "assert not hasattr(mediation_bounds, 'solve')\n"
            "from mediation_bounds import lp_engine\n"
            "from mediation_bounds.oracle import random_population\n"
            "homes = {getattr(getattr(mediation_bounds, name), '__module__', None) for name in names}\n"
            "assert not lazy & homes, sorted(lazy & homes)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(mediation_bounds.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, cwd=tmp_path, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr.decode(errors="replace")
        assert proc.stdout.startswith(b"{")

    @pytest.mark.skipif(shutil.which("mediation-bounds") is None, reason="console script not installed")
    def test_script_on_path(self):
        proc = subprocess.run(
            [shutil.which("mediation-bounds"), "--counts", E1_COUNTS, "--format", "plotdata"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("mediator,method,point,lo,hi")
