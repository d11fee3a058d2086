"""Smoke tests: each experiment script in scripts/ runs to completion on a
tiny scenario."""

import json
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


def test_byte_manifest_is_reproducible(tmp_path):
    # Two builds of one tiny scene give equal manifests, and compare says so;
    # a changed output is named.
    src = str(Path(mcmot.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    scene = tmp_path / "scene.json"
    scene.write_text('{"cameras": 2, "identities": 3, "frames": 20, "embedding_dim": 8, '
                     '"embedding_noise_sigma": 0.05}', encoding="utf-8")

    def manifest(*args):
        return subprocess.run([sys.executable, str(ROOT / "scripts" / "byte_manifest.py"), *args],
                              env=env, capture_output=True, text=True, timeout=300)

    for run in ("a", "b"):
        proc = manifest("build", "--scenario-config", str(scene), "--seeds", "5", "6",
                        "--work", str(tmp_path / run), "--manifest", str(tmp_path / f"{run}.json"))
        assert proc.returncode == 0, proc.stderr
    a, b = (json.loads((tmp_path / f"{run}.json").read_text()) for run in ("a", "b"))
    assert a == b
    # Per seed: 6 scenario files, 2 cameras x 2 track files, 5 results, 5 x 2 eval files.
    assert len(a["files"]) == 2 * (6 + 2 * 2 + 5 + 5 * 2)
    assert {"seed5/count_both_parallel.json", "seed6/eval_associate_voting.stdout",
            "seed6/tracks/cam1.tracklets.json"} <= a["files"].keys()
    proc = manifest("compare", str(tmp_path / "a.json"), str(tmp_path / "b.json"))
    assert (proc.returncode, proc.stdout) == (0, f"all {len(a['files'])} files identical\n")

    b["files"]["seed6/tracks/cam1.csv"] = "0" * 64
    del b["files"]["seed5/eval_count_both.json"]
    (tmp_path / "b.json").write_text(json.dumps(b))
    proc = manifest("compare", str(tmp_path / "a.json"), str(tmp_path / "b.json"))
    assert proc.returncode == 1
    assert proc.stdout == (f"only in {tmp_path / 'a.json'}: seed5/eval_count_both.json\n"
                           "differs: seed6/tracks/cam1.csv\n")
