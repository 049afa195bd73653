"""The tools under tools/: what they refuse before doing any work, how they stop when a run fails, what they record."""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("pairs", ["1", "0", "-3"])
def test_bench_pairs_refuses_fewer_than_two_pairs(tmp_path, pairs):
    # One pair used to run every benchmark and then die in statistics.quantiles without writing --out.
    out, workdir = tmp_path / "bench.json", tmp_path / "work"
    child = subprocess.run(
        [sys.executable, "tools/bench_pairs.py", "--parent", "HEAD", "--workload", "csv_250k",
         "--pairs", pairs, "--first-seed", "1", "--out", str(out), "--workdir", str(workdir)],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert child.returncode == 2
    assert f"--pairs must be at least 2, got {pairs}" in child.stderr
    assert child.stdout == ""
    assert not out.exists() and not workdir.exists()


def bench_pairs_on(tmp_path, run_py: str, env=None) -> subprocess.CompletedProcess:
    """Two pairs of ``tools/bench_pairs.py`` on a one-commit repository whose ``perfbench/run.py`` is ``run_py``."""
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "src").mkdir()
    (repo / "src" / "pkg.py").write_text("")
    metrics = [{"name": "op_ms_p50", "better": "lower"}, {"name": "peak_rss_mb", "better": "lower"}]
    (repo / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 1, "end_to_end": metrics}))
    (repo / "perfbench" / "run.py").write_text(run_py)
    identity = ["-c", "user.name=bench", "-c", "user.email=bench@example.invalid"]
    for args in (["init", "-q"], ["add", "-A"], [*identity, "commit", "-q", "-m", "benchmark"]):
        subprocess.run(["git", *args], cwd=repo, check=True, capture_output=True)
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_pairs.py"), "--parent", "HEAD", "--workload", "w",
         "--pairs", "2", "--first-seed", "5", "--out", str(tmp_path / "bench.json"),
         "--workdir", str(tmp_path / "work")],
        cwd=repo, capture_output=True, text=True, timeout=60, env=env,
    )


def test_bench_pairs_shows_a_failed_run(tmp_path):
    # A run that exits non-zero used to raise CalledProcessError, whose text names only the command.
    child = bench_pairs_on(
        tmp_path, "import sys\nfor i in range(30):\n    print(f'trace line {i}', file=sys.stderr)\nsys.exit(1)\n"
    )
    out = tmp_path / "bench.json"
    assert child.returncode == 2
    lines = child.stderr.splitlines()
    assert lines[0] == "w seed=5 parent: perfbench/run.py exited 1; its stderr ends:"
    assert lines[1:] == [f"trace line {i}" for i in range(10, 30)]
    assert not out.exists()


@pytest.mark.parametrize("no_bytecode", [True, False])
def test_bench_pairs_records_what_the_children_run_on(tmp_path, no_bytecode):
    # With PYTHONDONTWRITEBYTECODE set, every CLI child compiles the package from source.
    run_py = (
        "import json\nprint('sha256 0')\nprint(json.dumps({'metrics': {'op_ms_p50': {'value': 1.0}, "
        "'peak_rss_mb': {'value': 2.0}}, 'correct': True, 'attempted': 1, 'failed': 0}))\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    if no_bytecode:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    child = bench_pairs_on(tmp_path, run_py, env)
    assert child.returncode == 0, child.stderr
    block = json.loads((tmp_path / "bench.json").read_text())["workloads"]["w"]
    expected = {"python": platform.python_version(), "numpy": np.__version__, "writes_bytecode": not no_bytecode}
    assert block["environment"] == {"parent": expected, "change": expected}
