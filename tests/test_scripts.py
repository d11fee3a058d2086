"""Smoke tests: each experiment script in scripts/ runs to completion on a
tiny scenario."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mcmot

ROOT = Path(__file__).resolve().parents[1]
TINY = ["--cameras", "2", "--identities", "3", "--frames", "20"]


@pytest.mark.parametrize(
    "script, args",
    [
        # Explicit ids: removing a script must not rename the other cases.
        pytest.param("run_synthetic_experiment.py", TINY + ["--sets", "1"],
                     id="run_synthetic_experiment.py-args1"),
        pytest.param("sweep_threshold.py", TINY, id="sweep_threshold.py-args2"),
    ],
)
def test_script_runs(script, args):
    src = str(Path(mcmot.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
