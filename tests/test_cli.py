"""Command-line behavior: parsing, dichotomization, outputs, exit codes."""

import csv
import importlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mediation_bounds
from mediation_bounds import Assumptions, __version__, ate, bounds_mmr, cli, from_counts
from mediation_bounds.cli import ConfigError, DataError, RunConfig, _rule_table, ingest, main

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
    """The per-row dichotomized columns that ``ingest`` tabulates."""
    columns = [config.treatment, config.outcome, *config.mediators]
    rules = _rule_table(config.dichotomize, columns)
    raw, _ = cli._read_table(path, columns)
    return {name: cli._dichotomize(name, raw[name], rules[name]) for name in columns}


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
        assert list(dichotomized(path, config)["m"].binary) == [0, 0, 0, 1, 1]
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
        assert list(dichotomized(path, config)["m"].binary) == [0, 0, 1, 1]
        assert "median=2" in data[0].rules["m"]

    def test_threshold_rule(self, tmp_path):
        path = write_csv(
            tmp_path / "d.csv",
            ["a", "y", "m"],
            [(i % 2, 0, v) for i, v in enumerate([1, 2, 3])],
        )
        config = config_for(path, dichotomize="m=threshold:2.5")
        assert list(dichotomized(path, config)["m"].binary) == [0, 0, 1]
        data, _, _ = ingest(path, config)
        assert data[0].counts.tolist() == tally([(0, 0, 0), (1, 0, 0), (0, 1, 0)])

    def test_global_rule_spares_treatment(self, tmp_path):
        path = write_csv(
            tmp_path / "d.csv",
            ["a", "y", "m"],
            [(0, 3, 10), (1, 9, 20), (0, 4, 30), (1, 8, 40)],
        )
        columns = dichotomized(path, config_for(path, dichotomize="median-gt"))
        assert list(columns["a"].binary) == [0, 1, 0, 1]  # treatment untouched
        assert list(columns["y"].binary) == [0, 1, 0, 1]  # outcome median 4
        assert list(columns["m"].binary) == [0, 0, 1, 1]  # mediator median 20

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


def reference_ingest(path, config):
    """Cell-by-cell csv-module ingest, the reference for the column-wise reader.

    Returns ``ingest``'s result with each dataset as (name, counts, n_dropped,
    rules) and the counts as lists, plus each column's (binary, missing) rows.
    """
    columns = [config.treatment, config.outcome, *config.mediators]
    rules = _rule_table(config.dichotomize, columns)
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader)]
        index = {col: header.index(col) for col in columns}
        raw = {col: [] for col in columns}
        for row in reader:
            if not row or all(not cell.strip() for cell in row):
                continue
            for col, i in index.items():
                raw[col].append(row[i].strip() if i < len(row) else "")
    n_rows = len(raw[columns[0]])
    binary, missing, rule_text = {}, {}, {}
    for name in columns:
        kind, threshold = rules[name]
        values = np.full(n_rows, np.nan)
        for i, tok in enumerate(raw[name]):
            if tok.lower() in {"", "na", "nan", "null", "none"}:
                continue
            try:
                values[i] = float(tok)
            except ValueError:
                raise DataError(f"row {i + 2}: non-numeric value {tok!r} in column {name!r}") from None
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
            observed = np.sort(values[~missing[name]])
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
    # Row by row, the columns that were tabulated.
    columns = dichotomized(path, config)
    for name, (binary, missing) in ref_columns.items():
        assert np.array_equal(columns[name].missing, missing)
        assert np.array_equal(columns[name].binary, binary)


MISSING_VARIANTS = ["", "NA", " na ", "NaN", "nan", "NULL", " null", "None", "none ", "nOnE", "  "]
BLANK_LINES = ["", "   ", ",,,,,", " , ,\t,", '"",,, ,', ",,"]


def _cell(rng, text):
    if rng.random() < 0.15:
        return f'"{text}"'
    if rng.random() < 0.15:
        return f" {text}\t"
    return text


def _seeded_csv(seed, rows=60):
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
    return "\n".join(lines) + "\n"


EQUIVALENCE_RUNS = [
    ("m_score=median-gt,m_level=threshold:0.25", ("m_bin", "m_score", "m_level")),
    ("median-gt", ("m_score", "m_level")),
    ("m_level=threshold:-1", ("m_bin", "m_level")),
]


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

    @pytest.mark.parametrize(
        "token",
        ["1_000", "Infinity", "-inf", " 1.5", "1.5e", "0x10", "\u0661\u0662", "1e500", "-nan",
         "+.5", "5.", "1__0", "nan(1)", "\u00a01.5", "True", "0001", "1e-400", "\u0967.5",
         "\tNA", "\u00a0none", "1\t"],
    )
    def test_edge_tokens(self, tmp_path, token):
        path = tmp_path / "d.csv"
        rows = [f"{i % 2},{(i // 2) % 2},{i * 0.5}" for i in range(8)]
        rows[5] = f'1,0,"{token}"'
        path.write_text("a,y,m\n" + "\n".join(rows) + "\n", encoding="utf-8")
        assert_same_ingest(str(path), config_for(str(path), dichotomize="m=threshold:1"))


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


class TestRecordStructureMatchesReference:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_quoting(self, tmp_path, seed):
        # A file is ragged if the csv module finds a non-blank row of other
        # than five fields; ingest must reject exactly those and match the
        # reference on the rest.
        rng = np.random.default_rng(seed)
        path = str(tmp_path / "d.csv")
        compared = 0
        for _ in range(100):
            text = _quoting_csv(rng)
            write_text(Path(path), text)
            rows = [r for r in csv.reader(io.StringIO(text, newline=""))][1:]
            if all(len(r) == 5 for r in rows if any(cell.strip() for cell in r)):
                assert_same_ingest(path, config_for(path))
                compared += 1
            else:
                with pytest.raises(DataError, match="fields, but the header has 5"):
                    ingest(path, config_for(path))
        assert compared >= 20


def write_text(path, text, encoding="utf-8"):
    path.write_bytes(text.encode(encoding) if isinstance(text, str) else text)
    return str(path)


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

    def test_unrecognised_parser_error_is_data_error(self, monkeypatch, tmp_path):
        path = write_text(tmp_path / "d.csv", "a,y,m\n0,0,1\n1,1,0\n")

        def fail(body):
            raise ValueError("unexpected tokenizer state")

        monkeypatch.setattr(cli, "_load_cells", fail)
        with pytest.raises(DataError, match="d.csv: unexpected tokenizer state"):
            ingest(path, config_for(path))

    def test_duplicate_requested_header_is_data_error(self, capsys, tmp_path):
        path = write_text(tmp_path / "d.csv", "a,y,m,m\n0,0,1,1\n1,1,0,0\n")
        code, _, err = run_cli(capsys, "--data", path, "--mediators", "m")
        assert code == 3
        assert "column 'm' appears 2 times in the header" in err

    def test_duplicate_unrequested_header_is_allowed(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "a,y,m,x,x\n0,0,1,1,1\n1,1,0,0,0\n")
        data, n_rows, _ = ingest(path, config_for(path))
        assert n_rows == 2

    def test_invalid_utf8_is_data_error(self, capsys, tmp_path):
        path = write_text(tmp_path / "d.csv", b"a,y,m\n0,0,1\n\xff\xfe,1,0\n")
        code, out, err = run_cli(capsys, "--data", path, "--mediators", "m")
        assert (code, out) == (3, "")
        assert "not valid UTF-8: line 3" in err

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

    @pytest.mark.parametrize("flag", [("--seed", "18446744073709551616"), ("--seed", "-1"), ("--draws", "50")])
    def test_inference_limits_are_config_errors(self, capsys, flag):
        code, out, err = run_cli(capsys, "--counts", E1_COUNTS, *flag)
        assert (code, out) == (2, "")
        assert err.startswith("config error: ")

    def test_run_config_rejects_a_seed_past_64_bits(self):
        with pytest.raises(ConfigError, match="seed"):
            config_for(None, counts=(40, 30, 20, 10, 10, 20, 30, 40), seed=2**64)

    def test_small_arm_names_the_mediator(self, capsys, tmp_path):
        # m2's complete cases keep one treated unit: a data error for m2, and
        # no report with an in-band inference error is written.
        rows = [(i % 2, i // 3 % 2, i // 2 % 2, "" if i % 2 and i > 1 else i // 5 % 2) for i in range(20)]
        path = write_csv(tmp_path / "d.csv", ["a", "y", "m", "m2"], rows)
        code, out, err = run_cli(capsys, "--data", path, "--mediators", "m,m2")
        assert (code, out) == (3, "")
        assert err == "data error: mediator 'm2': need at least 2 observations per arm, got n0=10, n1=1\n"

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

    def test_matches_library_calls(self, capsys):
        code, out, _ = run_cli(capsys, "--counts", E1_COUNTS, "--assumptions", "mmr")
        assert code == 0
        report = json.loads(out)
        dist = from_counts([40, 30, 20, 10, 10, 20, 30, 40])
        direct = bounds_mmr(dist, 1)
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

    def test_golden_plotdata(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "--data", str(GOLDEN / "synth_input.csv"),
            "--treatment", "treat", "--outcome", "resp",
            "--mediators", "m_binary,score",
            "--dichotomize", "score=median-gt",
            "--assumptions", "none,mmr",
            "--seed", "4", "--draws", "500",
            "--format", "plotdata",
        )
        assert code == 0
        assert out == (GOLDEN / "plotdata_synth.csv").read_text()

    SYNTH_ARGV = (
        "--data", "synth_input.csv", "--treatment", "treat", "--outcome", "resp",
        "--mediators", "m_binary,score", "--dichotomize", "score=median-gt",
        "--assumptions", "none,mmr,mmr-pos-mediator", "--seed", "4", "--draws", "500",
    )
    COUNTS_ARGV = ("--counts", "17,9,0,6,4,11,13,19", "--assumptions", "none,mmr,mmr-pos-mediator")

    @pytest.mark.parametrize(
        "argv, golden",
        [
            (SYNTH_ARGV + ("--format", "json"), "report_synth.json"),
            (SYNTH_ARGV + ("--format", "csv"), "report_synth.csv"),
            (COUNTS_ARGV + ("--reference", "0"), "report_counts_ref0.json"),
            (COUNTS_ARGV + ("--reference", "1"), "report_counts_ref1.json"),
        ],
    )
    def test_golden_reports(self, capsys, monkeypatch, argv, golden):
        # Run from the golden directory so the echoed --data path is relative.
        monkeypatch.chdir(GOLDEN)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out == (GOLDEN / golden).read_text()

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
