"""Golden bytes: the files the CLI writes for one committed tiny scenario.

`tests/data/golden/scenario/` holds the inputs as files (2 cameras,
4 identities, 30 frames, D=8, with detector noise), so these tests do not
depend on numpy's random stream. `config.json` exports every confirmed
track and sets refinement bounds under which one tracklet is removed.
`expected/` holds what the engine wrote for them: `count --method both`
and `count --method voting` results, camera 0's track CSV and sidecar with
and without its embeddings (`cam0_motion.*`, the motion-only IoU path),
`associate --method both` results over both cameras' sidecars, and the
`eval` report of the count results. Each test regenerates one file and
compares bytes; `simulate` of the committed `scenario.json` regenerates the
whole scenario directory. `--method both` takes its clusters from `euclidean`, so
`count_voting.json` is the one file that pins `euclidean_voting`'s
clusters.

Regenerate `expected/` only for a deliberate change of an output format,
and say so where the change is recorded.
"""

from pathlib import Path

import numpy as np
import pytest

from mcmot import formats
from mcmot.cli import main
from mcmot.sim import GroundTruth

GOLDEN = Path(__file__).parent / "data" / "golden"
SCENARIO = GOLDEN / "scenario"
CONFIG = GOLDEN / "config.json"
EXPECTED = GOLDEN / "expected"


def track(out_dir: Path, camera: int) -> Path:
    out = out_dir / f"cam{camera}.csv"
    assert main([
        "track", "--detections", str(SCENARIO / f"detections_cam{camera}.csv"),
        "--embeddings", str(SCENARIO / f"embeddings_cam{camera}.csv"),
        "--camera-id", str(camera), "--config", str(CONFIG), "--output", str(out),
    ]) == 0
    return out


def test_simulate_rewrites_the_scenario(tmp_path):
    out = tmp_path / "scenario"
    assert main(["simulate", "--config", str(SCENARIO / "scenario.json"), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in SCENARIO.iterdir())
    for path in sorted(SCENARIO.iterdir()):
        assert (out / path.name).read_bytes() == path.read_bytes(), path.name


@pytest.mark.parametrize("parallel", [False, True], ids=["sequential", "parallel"])
def test_count_results(tmp_path, parallel):
    out = tmp_path / "results.json"
    argv = ["count", "--scenario", str(SCENARIO), "--config", str(CONFIG),
            "--method", "both", "--output", str(out)]
    assert main(argv + (["--parallel"] if parallel else [])) == 0
    assert out.read_bytes() == (EXPECTED / "count_both.json").read_bytes()


@pytest.mark.parametrize("parallel", [False, True], ids=["sequential", "parallel"])
def test_count_voting_results(tmp_path, parallel):
    out = tmp_path / "results.json"
    argv = ["count", "--scenario", str(SCENARIO), "--config", str(CONFIG),
            "--method", "voting", "--output", str(out)]
    assert main(argv + (["--parallel"] if parallel else [])) == 0
    assert out.read_bytes() == (EXPECTED / "count_voting.json").read_bytes()


def test_track_csv_and_sidecar(tmp_path):
    out = track(tmp_path, 0)
    assert out.read_bytes() == (EXPECTED / "cam0.csv").read_bytes()
    sidecar = formats.tracklet_sidecar_path(out)
    assert sidecar.read_bytes() == (EXPECTED / "cam0.tracklets.json").read_bytes()


def test_motion_only_track_csv_and_sidecar(tmp_path):
    out = tmp_path / "cam0_motion.csv"
    assert main([
        "track", "--detections", str(SCENARIO / "detections_cam0.csv"),
        "--camera-id", "0", "--config", str(CONFIG), "--output", str(out),
    ]) == 0
    assert out.read_bytes() == (EXPECTED / "cam0_motion.csv").read_bytes()
    sidecar = formats.tracklet_sidecar_path(out)
    assert sidecar.read_bytes() == (EXPECTED / "cam0_motion.tracklets.json").read_bytes()


def test_associate_results(tmp_path):
    tracks = tmp_path / "tracks"
    tracks.mkdir()
    for camera in (0, 1):
        track(tracks, camera)
    out = tmp_path / "results.json"
    assert main(["associate", "--tracks", str(tracks), "--config", str(CONFIG),
                 "--method", "both", "--output", str(out)]) == 0
    assert out.read_bytes() == (EXPECTED / "associate_both.json").read_bytes()


def test_eval_report(tmp_path, capsys):
    out = tmp_path / "eval.json"
    assert main(["eval", "--results", str(EXPECTED / "count_both.json"),
                 "--truth", str(SCENARIO / "truth.json"), "--output", str(out)]) == 0
    assert out.read_bytes() == (EXPECTED / "eval.json").read_bytes()


def test_truth_json_rewrites_to_the_same_bytes(tmp_path):
    """The truth writer, fed what the committed truth file holds, writes it
    back unchanged (simulate writes truth.json through it)."""
    got = formats.read_truth_json(SCENARIO / "truth.json")
    truth = GroundTruth(
        embeddings=np.asarray(got.embeddings),
        boxes={
            cam: [frames[f] for f in range(len(frames))]
            for cam, frames in got.cameras.items()
        },
    )
    out = tmp_path / "truth.json"
    formats.write_truth_json(out, truth)
    assert out.read_bytes() == (SCENARIO / "truth.json").read_bytes()
