"""The scripts under demos/ run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mediation_bounds

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    assert {"bounds_walkthrough.py", "inference_walkthrough.py", "oracle_blindspot.py"} <= {d.name for d in DEMOS}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.name)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(mediation_bounds.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
