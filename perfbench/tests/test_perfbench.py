"""Tests of the benchmark itself: generators, span arithmetic and output checks.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from mediation_bounds import cli, model  # noqa: E402


# --- generators are deterministic in the seed ------------------------------

def test_csv_generator_is_deterministic_in_the_seed():
    assert workloads.synth_csv(5, 300) == workloads.synth_csv(5, 300)
    assert workloads.synth_csv(5, 300)[0] != workloads.synth_csv(6, 300)[0]


def test_count_tables_are_deterministic_and_keep_the_size_grid():
    first = workloads.synth_count_tables(5, 2, 12)
    assert first == workloads.synth_count_tables(5, 2, 12)
    assert first != workloads.synth_count_tables(6, 2, 12)
    totals = sorted(sum(t) for t in first[:12])
    assert totals == sorted(sum(t) for t in workloads.synth_count_tables(6, 1, 12))
    assert totals[0] == 100 and totals[-1] == 10**7


def test_sweep_tables_are_deterministic_in_the_seed():
    a = workloads.synth_sweep_tables(5, 64)
    assert np.array_equal(a, workloads.synth_sweep_tables(5, 64))
    assert not np.array_equal(a, workloads.synth_sweep_tables(6, 64))


def test_mc_pool_is_deterministic_in_the_seed():
    pool_a, seeds_a = workloads.synth_mc_pool(5, 8)
    pool_b, seeds_b = workloads.synth_mc_pool(5, 8)
    assert seeds_a == seeds_b and all(np.array_equal(x, y) for x, y in zip(pool_a, pool_b))
    assert workloads.synth_mc_pool(6, 8)[1] != seeds_a


def test_csv_expected_counts_match_a_direct_tabulation():
    text, expected = workloads.synth_csv(7, 2000)
    lines = text.splitlines()[1:]
    for name, column in (("m_bin", 1), ("m_skew", 3)):
        counts = [0] * 8
        for line in lines:
            cells = line.split(",")
            m = int(cells[column]) if name == "m_bin" else int(float(cells[column]) > workloads.CSV_THRESHOLD)
            counts[4 * int(cells[0]) + 2 * int(cells[4]) + m] += 1
        assert tuple(counts) == expected[name]
    assert sum(expected["m_cont"]) == sum(1 for line in lines if line.split(",")[2] != "NA")


# --- span arithmetic ---------------------------------------------------------

def _span(name, start, end, parent):
    return tracing.Span(name, start, end, parent, 0)


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("leaf", 2.0, 3.0, 1),
        _span("b", 5.0, 7.0, 0),
        _span("b", 6.0, 8.0, 0),  # overlaps the first b: the root loses [5, 8] once
        _span("root", 11.0, 12.0, -1),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx({"root": 10.0 - 3.0 - 3.0 + 1.0, "a": 2.0, "leaf": 1.0, "b": 4.0})


def test_self_times_and_untraced_time_add_up_to_the_traced_total():
    recorder = tracing.Recorder()
    recorder.spans = [
        _span("cli.run", 0.5, 9.0, -1),
        _span("cli.ingest", 1.0, 6.0, 0),
        _span("model.from_units", 6.5, 7.0, 0),
        _span("cli.serialize", 9.5, 9.75, -1),
    ]
    values = tracing.layer_metrics(recorder, traced_total=10.0, untraced_total=9.0)
    self_sum = sum(v for k, v in values.items() if k.endswith(".self_s"))
    assert self_sum + values["trace.untraced_s"] == pytest.approx(10.0)
    assert values["cli.run.self_s"] == pytest.approx(8.5 - 5.0 - 0.5)
    assert values["trace.overhead_s"] == pytest.approx(1.0)
    assert values["lp_engine.solve.calls"] == 0  # a layer never entered reports zero


def test_wrappers_record_calls_and_are_removed_afterwards():
    original = model.from_counts
    recorder = tracing.Recorder()
    with tracing.Installed(recorder):
        assert model.from_counts is not original
        cli.from_units(np.array([[0, 0, 0], [0, 1, 1], [1, 1, 1], [1, 0, 0]], dtype=np.uint8))
    assert model.from_counts is original
    assert [s.name for s in recorder.spans] == ["model.from_units", "model.from_counts"]
    assert recorder.spans[1].parent == 0
    assert recorder.counters["model.from_units.records"] == 4


def test_a_missing_layer_function_fails_loudly(monkeypatch):
    monkeypatch.setattr(tracing, "LAYERS", tracing.LAYERS + (("model", "no_such_function", "model.gone", ()),))
    with pytest.raises(tracing.LayerMissingError):
        with tracing.Installed(tracing.Recorder()):
            pass


# --- corrupted outputs count as failures ----------------------------------------

def test_corrupted_cli_output_fails_its_check(tmp_path):
    w = workloads.Csv250k()
    w.seed = 3
    w.path = tmp_path / "small.csv"
    text, w.expected = workloads.synth_csv(3, 400)
    w.path.write_text(text)
    code, stdout = run.run_in_process(w.argv(0))
    assert code == 0
    assert workloads.checks.check_cli_json(stdout.decode(), w.expected, 400, deep=True) == []

    report = json.loads(stdout)
    report["mediators"][1]["counts"][0] += 1
    assert workloads.checks.check_cli_json(json.dumps(report), w.expected, 400, deep=False)

    report = json.loads(stdout)
    report["mediators"][0]["results"][0]["closed_form"]["upper"] -= 1e-6
    assert workloads.checks.check_cli_json(json.dumps(report), w.expected, 400, deep=True)


def test_corrupted_library_results_raise_failed_frac(monkeypatch):
    w = workloads.TableSweep()
    w.tables = [tuple(row) for row in workloads.synth_sweep_tables(3, 24).tolist()]
    w.digest_ops = len(w.tables)
    clean, _ = run.library_loop(w, seed=0, seconds=0.0)
    assert len(clean.times) == 24 // workloads.SWEEP_BATCH and not clean.failures

    real = workloads.closed_form.bounds_no_assumption

    def shifted(dist, reference):
        result = real(dist, reference)
        return dataclasses.replace(result, upper=result.upper - 1e-3)

    monkeypatch.setattr(workloads.closed_form, "bounds_no_assumption", shifted)
    corrupted, _ = run.library_loop(w, seed=0, seconds=0.0)
    assert len(corrupted.failures) / len(corrupted.times) > 0


def test_host_factor_is_the_median_slice_over_the_reference(monkeypatch):
    monkeypatch.setattr(run, "reference_slice", lambda: 2.0 * run.REFERENCE_SLICE_S)
    host = run.HostSpeed()
    host.sample()  # nothing is due yet
    assert host.slices == []
    host.sample(force=True)
    assert host.factor() == pytest.approx(2.0)


def test_local_factor_uses_only_the_slices_near_the_operation():
    host = run.HostSpeed()
    host.stamps = [t / 10 for t in range(200)]  # one slice per 0.1 s for 20 s
    host.slices = [run.REFERENCE_SLICE_S] * 100 + [3.0 * run.REFERENCE_SLICE_S] * 100
    assert host.local_factor(3.0, 4.0) == pytest.approx(1.0)
    assert host.local_factor(14.0, 15.0) == pytest.approx(3.0)
    assert host.local_factor(30.0, 31.0) == pytest.approx(host.factor())  # no slices near: the run's factor


def test_nondeterministic_output_counts_as_failed():
    w = workloads.Csv250k()  # every operation has key 0: one input, run again and again
    out = run.Outcome(times=[1.0, 1.0])
    out.record_output(w, 0, b"same")
    out.record_output(w, 1, b"different")
    assert list(out.failures) == [1]


# --- BENCHMARK.json names what the code reports ----------------------------------

def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.per_layer_metrics()
