"""The repository tools under tools/: what they refuse before doing any work, and how they stop when a run fails."""

import json
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


def test_bench_pairs_shows_a_failed_run(tmp_path):
    # A run that exits non-zero used to raise CalledProcessError, whose text names only the command.
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "src").mkdir()
    (repo / "src" / "pkg.py").write_text("")
    bench = {"run_seconds": 1, "end_to_end": [{"name": "op_ms_p50", "better": "lower"}]}
    (repo / "BENCHMARK.json").write_text(json.dumps(bench))
    (repo / "perfbench" / "run.py").write_text(
        "import sys\nfor i in range(30):\n    print(f'trace line {i}', file=sys.stderr)\nsys.exit(1)\n"
    )
    identity = ["-c", "user.name=bench", "-c", "user.email=bench@example.invalid"]
    for args in (["init", "-q"], ["add", "-A"], [*identity, "commit", "-q", "-m", "failing benchmark"]):
        subprocess.run(["git", *args], cwd=repo, check=True, capture_output=True)
    out = tmp_path / "bench.json"
    child = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_pairs.py"), "--parent", "HEAD", "--workload", "w",
         "--pairs", "2", "--first-seed", "5", "--out", str(out), "--workdir", str(tmp_path / "work")],
        cwd=repo, capture_output=True, text=True, timeout=60,
    )
    assert child.returncode == 2
    lines = child.stderr.splitlines()
    assert lines[0] == "w seed=5 parent: perfbench/run.py exited 1; its stderr ends:"
    assert lines[1:] == [f"trace line {i}" for i in range(10, 30)]
    assert not out.exists()
