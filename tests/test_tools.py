"""The repository tools under tools/: what they refuse before doing any work."""

import subprocess
import sys
from pathlib import Path

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
