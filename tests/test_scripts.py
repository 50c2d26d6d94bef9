"""The scripts in scripts/ run end to end on tiny arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SCRIPTS = {
    "level_recovery_experiment.py": (
        ["--episodes", "80", "--n-states", "2", "--samples", "60", "--levels", "0.5"],
        "wrote 2 fits to recovery.csv",
    ),
    "gp_linearity_check.py": (
        ["--episodes", "80", "--n-states", "2", "--grid-step", "0.5"],
        "worst-case residual over 2 states, grid step 0.5",
    ),
}


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_script_runs_on_tiny_arguments(script, tmp_path):
    args, expected = SCRIPTS[script]
    paths = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert expected in done.stdout
