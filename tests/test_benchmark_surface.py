"""What the benchmark under perfbench/ uses of the package still works.

The benchmark calls layer functions by name, reads the JSON blocks and CSV
columns of the command-line output, and checks every number against scipy.
These tests run its own checks on the package's current output; they read
perfbench/ and change nothing there.
"""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from mediation_bounds import cli  # noqa: E402

# Mediator ATE -1/(n0 n1): every restricted assumption set is incompatible.
REPRODUCER = (1, 21164, 0, 18836, 1, 30111, 0, 9888)


@pytest.mark.parametrize("layer", tracing.LAYERS, ids=lambda layer: layer[2] + ":" + layer[1])
def test_every_traced_layer_resolves(layer):
    module, path, _, _ = layer
    _, _, fn = tracing._resolve(module, path)
    assert callable(fn)


def test_sweep_tables_pass_the_table_check():
    for counts in workloads.synth_sweep_tables(7, 64).tolist():
        outcomes = workloads.sweep_table(tuple(counts))
        assert checks.check_table(tuple(counts), outcomes) == [], counts


def _cli_output(counts, fmt: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(workloads.CountsCli._argv(counts, fmt, 3)) == 0
    return out.getvalue()


@pytest.mark.parametrize("counts", [REPRODUCER, *workloads.synth_count_tables(11, 1, 2)], ids=str)
def test_counts_output_passes_the_deep_checks(counts):
    total = sum(counts)
    assert checks.check_cli_json(_cli_output(counts, "json"), {"counts": counts}, total, True) == []
    assert checks.check_cli_csv(_cli_output(counts, "csv"), counts, True) == []
    assert checks.check_cli_plotdata(_cli_output(counts, "plotdata"), counts, True) == []


def test_inference_replications_pass_the_wald_check():
    pool, seeds = workloads.synth_mc_pool(3, 4)
    for records, seed in zip(pool, seeds):
        intervals, ate, iot = workloads.replicate(records, seed)
        assert len(intervals) == len(workloads.CLR_SPECS)
        assert checks.check_wald(records, ate, iot) == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_setup_code_runs(name, tmp_path, monkeypatch):
    # The CLI workloads write their set-up inputs in generate(); the CSV one
    # builds its set-up argv from a 40-row file whatever CSV_ROWS is.
    monkeypatch.setattr(workloads, "CSV_ROWS", 40)
    workload = workloads.WORKLOADS[name]()
    if workload.cli:
        workload.generate(5, tmp_path)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    child = subprocess.run(
        [sys.executable, "-c", workload.setup_code], cwd=ROOT, env=env, capture_output=True, timeout=120
    )
    assert child.returncode == 0, child.stderr.decode()[-2000:]
