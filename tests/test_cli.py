import gc
import json
import multiprocessing
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mcmot
from mcmot import cli, formats, geometry, pipeline
from mcmot.cli import main


def write_scenario_config(tmp_path, **kwargs) -> Path:
    path = tmp_path / "scenario_cfg.json"
    path.write_text(json.dumps(kwargs))
    return path


def simulate(tmp_path, out="scn", seed=1, **kwargs) -> Path:
    cfg = write_scenario_config(tmp_path, **kwargs)
    out_dir = tmp_path / out
    assert main(["simulate", "--config", str(cfg), "--seed", str(seed), "--out", str(out_dir)]) == 0
    return out_dir


def dir_fingerprint(root: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


SCN = dict(cameras=3, identities=2, frames=40, embedding_dim=16)


class TestSimulateCli:
    def test_same_seed_byte_identical_tree(self, tmp_path):
        a = simulate(tmp_path, out="a", seed=9, **SCN)
        b = simulate(tmp_path, out="b", seed=9, **SCN)
        assert dir_fingerprint(a) == dir_fingerprint(b)

    def test_files_written_per_camera(self, tmp_path):
        out = simulate(tmp_path, **SCN)
        names = {p.name for p in out.iterdir()}
        assert names == {
            "scenario.json", "truth.json",
            "detections_cam0.csv", "detections_cam1.csv", "detections_cam2.csv",
            "embeddings_cam0.csv", "embeddings_cam1.csv", "embeddings_cam2.csv",
        }
        for cam in range(3):
            frames = set(formats.read_detections(out / f"detections_cam{cam}.csv").frame.tolist())
            assert len(frames) <= 40

    def test_truth_lists_ground_embeddings(self, tmp_path):
        out = simulate(tmp_path, identities=20, cameras=1, frames=5, embedding_dim=8)
        truth = formats.read_truth_json(out / "truth.json")
        assert truth.embeddings.shape == (20, 8)
        assert truth.identity_count == 20

    def test_bad_config_is_config_error(self, tmp_path, capsys):
        cfg = write_scenario_config(tmp_path, bogus_key=1)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
        assert "error[config]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [("false_positive_rate", -1.0), ("camera_motion_sigma", -1.0),
         ("embedding_noise_sigma", -0.1), ("box_jitter_sigma", -1.0),
         ("embedding_dim", -1), ("embedding_dim", 0), ("seed", -1), ("speed_max", -3.0)],
    )
    def test_out_of_range_value_is_config_error(self, tmp_path, capsys, field, value):
        cfg = write_scenario_config(tmp_path, identities=1, **{field: value})
        out = tmp_path / "x"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error[config]: {field} must be >= ") and err.count("\n") == 1
        assert not out.exists()

    def test_negative_seed_option_is_config_error(self, tmp_path, capsys):
        # Checked before numpy sees it: its Philox error named neither the
        # field nor the category.
        out = tmp_path / "x"
        assert main(["simulate", "--seed", "-1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error[config]: seed must be >= 0, got -1\n"
        assert not out.exists()

    def test_zero_speed_max_is_accepted(self, tmp_path):
        still = simulate(tmp_path, cameras=1, identities=2, frames=5, embedding_dim=4,
                         speed_max=0.0)
        assert formats.read_detections(still / "detections_cam0.csv").frame.size

    @pytest.mark.parametrize("bounds", [[-5, -1], [0, 10], [40, 20]])
    @pytest.mark.parametrize("field", ["box_width_range", "box_height_range", "fp_size_range"])
    def test_bad_size_range_is_config_error(self, tmp_path, capsys, field, bounds):
        # Such a range once wrote boxes that `count` rejected, or failed in
        # numpy's sampler as error[input].
        cfg = write_scenario_config(tmp_path, identities=1, **{field: bounds})
        out = tmp_path / "x"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error[config]: {field} must be [low, high] with 0 < low <= high, "
            f"got {[float(b) for b in bounds]}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("fields, error", [
        ({"fp_size_range": [15, 1500]}, True),
        ({"fp_size_range": [15, 1081]}, True),
        ({"fp_size_range": [15, 1080]}, False),
        ({"fp_size_range": [15, 500], "image_size": [1920, 400]}, True),
    ], ids=["1500", "1081", "1080", "small-image"])
    def test_oversized_fp_range_is_config_error(self, tmp_path, capsys, fields, error):
        # A false-positive box wider than the image once failed in numpy's
        # sampler: "error[input]: high - low < 0".
        cfg = write_scenario_config(tmp_path, cameras=1, identities=1, frames=20,
                                    embedding_dim=4, false_positive_rate=0.5, **fields)
        out = tmp_path / "x"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == int(error)
        if error:
            assert capsys.readouterr().err == \
                "error[config]: false-positive boxes must fit inside the image\n"
            assert not out.exists()
        else:
            assert formats.read_detections(out / "detections_cam0.csv").frame.size

    @pytest.mark.parametrize("entry", ["scenario.json", ".hidden", "subdir/"])
    def test_non_empty_out_directory_is_refused(self, tmp_path, capsys, monkeypatch, entry):
        # Files of an earlier run would stay beside the new scenario's. The
        # directory is refused before the scenario is generated, and left
        # as it was.
        out = tmp_path / "scn"
        out.mkdir()
        if entry.endswith("/"):
            (out / entry).mkdir()
        else:
            (out / entry).write_text("old")
        before = sorted((p.relative_to(out), p.is_file() and p.read_bytes())
                        for p in out.rglob("*"))
        monkeypatch.setattr(cli, "generate", lambda cfg: pytest.fail("generated"))
        cfg = write_scenario_config(tmp_path, cameras=1, identities=1, frames=5)
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == \
            f"error[input]: {out}: the output directory is not empty\n"
        assert sorted((p.relative_to(out), p.is_file() and p.read_bytes())
                      for p in out.rglob("*")) == before

    def test_empty_out_directory_is_accepted(self, tmp_path):
        (tmp_path / "scn").mkdir()
        out = simulate(tmp_path, cameras=1, identities=1, frames=5, embedding_dim=4)
        assert (out / "scenario.json").exists()

    def test_unplaceable_identities_leave_no_directory(self, tmp_path, capsys):
        cfg = write_scenario_config(tmp_path, identities=50, embedding_dim=2,
                                    identity_min_separation=1.9)
        out = tmp_path / "x"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[config]: cannot place 50 identities") and err.count("\n") == 1
        assert not out.exists()


class TestTrackCli:
    def test_empty_detections_empty_track_file(self, tmp_path):
        det = tmp_path / "dets.csv"
        det.write_text(formats.DETECTION_HEADER + "\n")
        out = tmp_path / "tracks.csv"
        assert main(["track", "--detections", str(det), "--output", str(out)]) == 0
        assert out.read_text() == formats.TRACK_HEADER + "\n"
        assert formats.tracklet_sidecar_path(out).exists()

    def test_zero_noise_single_identity_single_track(self, tmp_path):
        scn = simulate(tmp_path, cameras=1, identities=1, frames=40, embedding_dim=16)
        out = tmp_path / "tracks.csv"
        assert (
            main(
                [
                    "track",
                    "--detections", str(scn / "detections_cam0.csv"),
                    "--embeddings", str(scn / "embeddings_cam0.csv"),
                    "--output", str(out),
                ]
            )
            == 0
        )
        rows = out.read_text().splitlines()[1:]
        track_ids = {r.split(",")[1] for r in rows}
        frames = sorted(int(r.split(",")[0]) for r in rows)
        assert track_ids == {"1"}
        assert frames == list(range(40))

    def test_frame_stride_quarters_processed_frames(self, tmp_path, capsys):
        scn = simulate(tmp_path, cameras=1, identities=1, frames=300, embedding_dim=8)
        out = tmp_path / "tracks.csv"
        assert (
            main(
                [
                    "track",
                    "--detections", str(scn / "detections_cam0.csv"),
                    "--embeddings", str(scn / "embeddings_cam0.csv"),
                    "--output", str(out),
                    "--frame-stride", "4",
                ]
            )
            == 0
        )
        assert "300 frames" not in capsys.readouterr().out
        rows = out.read_text().splitlines()[1:]
        frames = sorted({int(r.split(",")[0]) for r in rows})
        assert frames == list(range(0, 300, 4))
        assert len(frames) == 75

    def test_malformed_csv_reports_line(self, tmp_path, capsys):
        det = tmp_path / "dets.csv"
        det.write_text(formats.DETECTION_HEADER + "\n0,0,bad,0,1,1,0.5,0\n")
        assert main(["track", "--detections", str(det), "--output", str(tmp_path / "t.csv")]) == 1
        err = capsys.readouterr().err
        assert "error[format]" in err and ":2:" in err

    def test_non_finite_box_rejected(self, tmp_path, capsys):
        det = tmp_path / "dets.csv"
        det.write_text(formats.DETECTION_HEADER + "\n0,0,1,1,5,5,0.9,0\n1,0,nan,1,5,5,0.9,0\n")
        assert main(["track", "--detections", str(det), "--output", str(tmp_path / "t.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error[format]: {det}:3: ") and err.count("\n") == 1

    def test_detection_beyond_frames_is_input_error(self, tmp_path, capsys):
        det = tmp_path / "dets.csv"
        det.write_text(formats.DETECTION_HEADER + "\n0,0,1,1,5,5,0.9,0\n12,0,1,1,5,5,0.9,0\n")
        out = tmp_path / "t.csv"
        assert main(["track", "--detections", str(det), "--output", str(out), "--frames", "10"]) == 1
        err = capsys.readouterr().err
        assert "error[input]" in err and "frame 12" in err

    @pytest.mark.parametrize(
        "doc",
        [{"frame_keep": [1]}, {"tracker": {"max_age": "5"}}, {"detection_threshold": 10**400}],
        ids=["frame_keep", "max_age", "huge-integer-float"],
    )
    def test_mistyped_config_is_config_error(self, tmp_path, capsys, doc):
        det = tmp_path / "dets.csv"
        det.write_text(formats.DETECTION_HEADER + "\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        argv = ["track", "--detections", str(det), "--config", str(cfg),
                "--output", str(tmp_path / "t.csv")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[config]: ") and err.count("\n") == 1

    def test_embedding_key_mismatch_reported(self, tmp_path, capsys):
        det = tmp_path / "dets.csv"
        det.write_text(formats.DETECTION_HEADER + "\n0,0,1,1,5,5,0.9,0\n")
        emb = tmp_path / "embs.csv"
        emb.write_text("frame,det_id,e0\n1,7,0.5\n")
        assert (
            main(
                [
                    "track",
                    "--detections", str(det),
                    "--embeddings", str(emb),
                    "--output", str(tmp_path / "t.csv"),
                ]
            )
            == 1
        )
        err = capsys.readouterr().err
        assert "error[format]" in err and "frame=0, det_id=0" in err


def track_all(tmp_path, scn, cameras, config_args=()):
    tracks_dir = tmp_path / "tracks"
    tracks_dir.mkdir(exist_ok=True)
    for cam in range(cameras):
        assert (
            main(
                [
                    "track",
                    "--detections", str(scn / f"detections_cam{cam}.csv"),
                    "--embeddings", str(scn / f"embeddings_cam{cam}.csv"),
                    "--camera-id", str(cam),
                    "--output", str(tracks_dir / f"cam{cam}.csv"),
                    *config_args,
                ]
            )
            == 0
        )
    return tracks_dir


class TestAssociateCli:
    def test_single_camera_single_tracklet(self, tmp_path, capsys):
        scn = simulate(tmp_path, cameras=1, identities=1, frames=30, embedding_dim=8)
        tracks = track_all(tmp_path, scn, 1)
        res = tmp_path / "results.json"
        assert main(["associate", "--tracks", str(tracks), "--output", str(res)]) == 0
        assert formats.read_results_json(res).unique_count == 1
        assert "unique_count: 1" in capsys.readouterr().out

    def test_three_cameras_two_identities(self, tmp_path):
        scn = simulate(tmp_path, cameras=3, identities=2, frames=40, embedding_dim=16)
        tracks = track_all(tmp_path, scn, 3)
        res = tmp_path / "results.json"
        assert (
            main(
                [
                    "associate",
                    "--tracks", str(tracks),
                    "--method", "euclidean",
                    "--threshold", "0.5",
                    "--output", str(res),
                ]
            )
            == 0
        )
        assert formats.read_results_json(res).unique_count == 2

    def test_method_both_reports_side_by_side(self, tmp_path):
        scn = simulate(tmp_path, cameras=2, identities=2, frames=30, embedding_dim=16)
        tracks = track_all(tmp_path, scn, 2)
        res = tmp_path / "results.json"
        assert (
            main(
                ["associate", "--tracks", str(tracks), "--method", "both", "--output", str(res)]
            )
            == 0
        )
        got = formats.read_results_json(res)
        assert set(got.method_counts) == {"euclidean", "euclidean_voting"}
        assert got.method_counts["euclidean"] == got.unique_count == 2

    def test_missing_embeddings_explicit_error(self, tmp_path, capsys):
        tracks_dir = tmp_path / "tracks"
        tracks_dir.mkdir()
        from mcmot.tracker import Tracklet

        t = Tracklet(0, 1, [0, 1], [(0, 0, 5, 5)] * 2, [0.9, 0.9], None)
        formats.write_tracklets_json(tracks_dir / "cam0.tracklets.json", 0, [t])
        assert (
            main(["associate", "--tracks", str(tracks_dir), "--output", str(tmp_path / "r.json")])
            == 1
        )
        err = capsys.readouterr().err
        assert "error[config]" in err and "no embeddings" in err

    def test_empty_tracks_dir_error(self, tmp_path, capsys):
        (tmp_path / "tracks").mkdir()
        assert (
            main(
                ["associate", "--tracks", str(tmp_path / "tracks"), "--output", str(tmp_path / "r.json")]
            )
            == 1
        )
        assert "error[format]" in capsys.readouterr().err


def write_sidecar(tracks_dir: Path, camera_id: int, mean_embedding_json: str) -> Path:
    """A one-tracklet sidecar whose mean_embedding is the given JSON text."""
    tracks_dir.mkdir(exist_ok=True)
    path = tracks_dir / f"cam{camera_id}.tracklets.json"
    path.write_text(
        f'{{"camera_id": {camera_id}, "tracklets": [{{"track_id": 1, "frames": [0], '
        f'"boxes": [[0.0, 0.0, 5.0, 5.0]], "confidences": [0.9], '
        f'"mean_embedding": {mean_embedding_json}}}]}}'
    )
    return path


class TestAssociateInputChecks:
    def test_mismatched_embedding_widths_is_input_error(self, tmp_path, capsys):
        tracks = tmp_path / "tracks"
        write_sidecar(tracks, 0, "[0.5]")
        write_sidecar(tracks, 1, "[1.0, 2.0, 3.0]")
        argv = ["associate", "--tracks", str(tracks), "--output", str(tmp_path / "r.json")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[input]: ") and err.count("\n") == 1
        assert "(camera 1, track 1) has a 3-wide embedding" in err

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999", "-1e999"])
    def test_non_finite_sidecar_is_format_error(self, tmp_path, capsys, literal):
        tracks = tmp_path / "tracks"
        path = write_sidecar(tracks, 0, f"[{literal}, 1.0]")
        argv = ["associate", "--tracks", str(tracks), "--output", str(tmp_path / "r.json")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error[format]: {path}: ") and literal.lstrip("-") in err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("where", ["mean_confidence", "entry_key", "top_level_key"])
    def test_overflowing_literal_anywhere_in_a_sidecar(self, tmp_path, capsys, where):
        """Every JSON input rejects a float literal past the float range,
        also where no reader rule looks: in the derived mean_confidence, or
        under a key the reader ignores."""
        entry = {"track_id": 1, "frames": [0], "boxes": [[0.0, 0.0, 5.0, 5.0]],
                 "confidences": [0.9], "mean_confidence": 0.9, "mean_embedding": [1.0]}
        doc = {"camera_id": 0, "tracklets": [entry]}
        if where == "mean_confidence":
            entry["mean_confidence"] = "OVERFLOW"
        elif where == "entry_key":
            entry["note"] = [1.0, "OVERFLOW"]
        else:
            doc["note"] = [1.0, "OVERFLOW"]
        tracks = tmp_path / "tracks"
        tracks.mkdir()
        path = tracks / "cam0.tracklets.json"
        path.write_text(json.dumps(doc).replace('"OVERFLOW"', "1e999"))
        argv = ["associate", "--tracks", str(tracks), "--output", str(tmp_path / "r.json")]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error[format]: {path}: number 1e999 overflows a float\n")
        assert not (tmp_path / "r.json").exists()

    def test_overflow_reported_before_a_missing_key(self, tmp_path, capsys):
        """The parse rejects an overflowing literal before any entry is
        checked: entry 0 lacks frames, entry 5 holds 1e999."""
        entries = [
            {"track_id": k, "frames": [0], "boxes": [[0.0, 0.0, 5.0, 5.0]],
             "confidences": [0.9], "mean_embedding": None}
            for k in range(8)
        ]
        del entries[0]["frames"]
        entries[5]["confidences"] = ["OVERFLOW"]
        tracks = tmp_path / "tracks"
        tracks.mkdir()
        path = tracks / "cam0.tracklets.json"
        path.write_text(json.dumps({"camera_id": 0, "tracklets": entries})
                        .replace('"OVERFLOW"', "1e999"))
        argv = ["associate", "--tracks", str(tracks), "--output", str(tmp_path / "r.json")]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error[format]: {path}: number 1e999 overflows a float\n")
        assert not (tmp_path / "r.json").exists()

    def test_associate_never_imports_the_assignment_solver(self, tmp_path):
        scn = simulate(tmp_path, cameras=2, identities=2, frames=20, embedding_dim=8)
        tracks = track_all(tmp_path, scn, 2)
        out = run_cli_reporting_scipy(
            ["associate", "--tracks", str(tracks), "--method", "both",
             "--output", str(tmp_path / "r.json")])
        assert out == ["False", "0 False"]


def cli_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(Path(mcmot.__file__).parents[1]))


def run_cli_reporting_scipy(argv) -> list[str]:
    """Run the CLI in a fresh interpreter; report whether scipy was loaded
    after `import mcmot.cli` and after the command."""
    code = (
        "import sys, mcmot.cli\n"
        "print('scipy' in sys.modules)\n"
        "rc = mcmot.cli.main(sys.argv[1:])\n"
        "print(rc, 'scipy' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=cli_env(), capture_output=True, text=True, timeout=120, check=True,
    ).stdout.splitlines()
    return [out[0], out[-1]]


def test_cli_import_does_not_load_the_process_pool():
    """Only --parallel needs ProcessPoolExecutor; every other run would pay
    for importing it at start-up."""
    code = (
        "import sys, mcmot.cli\n"
        "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=cli_env(), capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    assert out.strip() == "[]"


GOLDEN = Path(__file__).parent / "data" / "golden"


class TestProgramEntry:
    """run() freezes the imported heap before main() parses, so the
    collection at exit skips it; main() leaves the collector alone."""

    def test_main_leaves_the_collector_unfrozen(self, tmp_path):
        frozen = gc.get_freeze_count()
        scn = simulate(tmp_path, cameras=2, identities=2, frames=10, embedding_dim=4)
        assert main(["count", "--scenario", str(scn), "--output", str(tmp_path / "r.json")]) == 0
        assert gc.get_freeze_count() == frozen

    @pytest.mark.parametrize("rc", [0, 1])
    def test_run_freezes_before_main_parses(self, monkeypatch, rc):
        calls = []
        monkeypatch.setattr(cli.gc, "freeze", lambda: calls.append("freeze"))

        def recording_main(argv=None):
            calls.append(("main", argv))
            return rc

        monkeypatch.setattr(cli, "main", recording_main)
        with pytest.raises(SystemExit) as info:
            cli.run()
        assert calls == ["freeze", ("main", None)]  # main parses sys.argv itself
        assert info.value.code == rc

    def test_module_entry_writes_the_bytes_of_main(self, tmp_path, capsys):
        argv = ["count", "--scenario", str(GOLDEN / "scenario"), "--config",
                str(GOLDEN / "config.json"), "--method", "both", "--output"]
        assert main(argv + [str(tmp_path / "in_process.json")]) == 0
        printed = capsys.readouterr().out
        proc = subprocess.run([sys.executable, "-m", "mcmot.cli", *argv, str(tmp_path / "entry.json")],
                              env=cli_env(), capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert (tmp_path / "entry.json").read_bytes() == (tmp_path / "in_process.json").read_bytes()

        def untimed(text):
            return [line for line in text.splitlines() if not line.startswith("timing: ")]
        assert untimed(proc.stdout) == untimed(printed) != []


class TestTrackingWithoutScipy:
    """Assignment is solved in-house: tracking never loads scipy."""

    @pytest.mark.parametrize("command", ["count", "track"])
    def test_tracking_never_imports_scipy(self, tmp_path, command):
        scn = simulate(tmp_path, cameras=2, identities=3, frames=30, embedding_dim=8)
        if command == "count":
            argv = ["count", "--scenario", str(scn), "--method", "both",
                    "--output", str(tmp_path / "r.json")]
        else:
            argv = ["track", "--detections", str(scn / "detections_cam0.csv"),
                    "--embeddings", str(scn / "embeddings_cam0.csv"), "--camera-id", "0",
                    "--output", str(tmp_path / "cam0.csv")]
        assert run_cli_reporting_scipy(argv) == ["False", "0 False"]

    def test_count_runs_with_scipy_blocked(self, tmp_path):
        scn = simulate(tmp_path, cameras=3, identities=4, frames=40, embedding_dim=8,
                       false_positive_rate=0.5, miss_prob=0.1)
        free, blocked = tmp_path / "free.json", tmp_path / "blocked.json"
        argv = ["count", "--scenario", str(scn), "--method", "both", "--output"]
        assert main(argv + [str(free)]) == 0
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys\nsys.modules['scipy'] = None\n"
             "import mcmot.cli\nsys.exit(mcmot.cli.main(sys.argv[1:]))\n",
             *argv, str(blocked)],
            env=cli_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert blocked.read_bytes() == free.read_bytes()


class TestEvalCli:
    def _results_for(self, tmp_path, scn, cameras=3, threshold="0.5"):
        tracks = track_all(tmp_path, scn, cameras)
        res = tmp_path / "results.json"
        assert (
            main(
                [
                    "associate",
                    "--tracks", str(tracks),
                    "--method", "euclidean",
                    "--threshold", threshold,
                    "--output", str(res),
                ]
            )
            == 0
        )
        return res

    def test_exact_results_score_perfectly(self, tmp_path, capsys):
        scn = simulate(tmp_path, cameras=3, identities=4, frames=40, embedding_dim=16)
        res = self._results_for(tmp_path, scn)
        out_json = tmp_path / "report.json"
        assert (
            main(
                [
                    "eval",
                    "--results", str(res),
                    "--truth", str(scn / "truth.json"),
                    "--output", str(out_json),
                ]
            )
            == 0
        )
        report = json.loads(out_json.read_text())
        assert report["l2_error"] == 0.0
        assert report["recall"] == 1.0
        assert report["per_set_predicted"] == [4]

    def test_l2_error_on_count_gap(self, tmp_path):
        # Truth says 6 identities; fabricated results say 4.
        truth_doc = {
            "identity_count": 6,
            "embeddings": None,
            "cameras": {"0": {"0": [[i, 10.0 * i, 0.0, 5.0, 5.0] for i in range(6)]}},
        }
        truth = tmp_path / "truth.json"
        truth.write_text(json.dumps(truth_doc))
        tracklets = [
            {"track_id": i + 1, "frames": [0], "boxes": [[10.0 * i, 0.0, 5.0, 5.0]],
             "confidences": [0.9]}
            for i in range(4)
        ]
        results_doc = {
            "cameras": [{"camera_id": 0, "tracklets": tracklets}],
            "clusters": [{"global_id": i + 1, "members": [[0, i + 1]]} for i in range(4)],
            "unique_count": 4,
            "method_counts": None,
            "count_report": None,
            "timing": {"frames_processed": 0, "cameras": 1},
        }
        res = tmp_path / "results.json"
        res.write_text(json.dumps(results_doc))
        out_json = tmp_path / "report.json"
        assert (
            main(
                ["eval", "--results", str(res), "--truth", str(truth), "--output", str(out_json)]
            )
            == 0
        )
        report = json.loads(out_json.read_text())
        assert report["l2_error"] == 2.0
        assert report["per_set_predicted"] == [4]
        assert report["per_set_truth"] == [6]

    def test_confusion_reference_numbers(self, tmp_path):
        # Construct a set where 5 clusters map one-to-one to truth identities,
        # 1 cluster maps to nothing, and 2 truth identities go unmatched:
        # TP=5, FP=1, FN=2 -> 62.5 / 71.4 / 76.9 percent.
        truth_frames = {}
        for identity in range(7):
            box = [identity, 100.0 * identity, 0.0, 30.0, 60.0]
            truth_frames["0"] = truth_frames.get("0", []) + [box]
        truth_doc = {"identity_count": 7, "embeddings": None, "cameras": {"0": truth_frames}}
        truth = tmp_path / "truth.json"
        truth.write_text(json.dumps(truth_doc))

        tracklet_docs = []
        for i in range(5):  # five matching tracklets
            tracklet_docs.append(
                {
                    "track_id": i + 1,
                    "frames": [0],
                    "boxes": [[100.0 * i, 0.0, 30.0, 60.0]],
                    "confidences": [0.9],
                }
            )
        tracklet_docs.append(  # one tracklet overlapping nothing
            {"track_id": 6, "frames": [0], "boxes": [[5000.0, 0.0, 30.0, 60.0]], "confidences": [0.9]}
        )
        results_doc = {
            "cameras": [{"camera_id": 0, "tracklets": tracklet_docs}],
            "clusters": [
                {"global_id": i + 1, "members": [[0, i + 1]]} for i in range(6)
            ],
            "unique_count": 6,
            "method_counts": None,
            "count_report": None,
            "timing": {"frames_processed": 1, "cameras": 1},
        }
        res = tmp_path / "results.json"
        res.write_text(json.dumps(results_doc))
        out_json = tmp_path / "report.json"
        assert (
            main(
                ["eval", "--results", str(res), "--truth", str(truth), "--output", str(out_json)]
            )
            == 0
        )
        report = json.loads(out_json.read_text())
        assert (report["tp"], report["fp"], report["fn"]) == (5, 1, 2)
        assert round(100 * report["accuracy"], 1) == 62.5
        assert round(100 * report["recall"], 1) == 71.4
        assert round(100 * report["f1"], 1) == 76.9

    def test_stdout_is_the_output_file(self, tmp_path, capsys):
        # Two camera sets, each associated at threshold 1e-6 (one cluster per
        # tracklet), so the report's ratios and L2 error are not round numbers.
        results, truths = [], []
        for seed in (1, 2):
            set_dir = tmp_path / f"set{seed}"
            set_dir.mkdir()
            scn = simulate(set_dir, seed=seed, cameras=2, identities=3, frames=30, embedding_dim=8,
                           embedding_noise_sigma=0.2)
            results.append(str(self._results_for(set_dir, scn, cameras=2, threshold="1e-6")))
            truths.append(str(scn / "truth.json"))
        out_json = tmp_path / "report.json"
        capsys.readouterr()
        assert main(["eval", "--results", *results, "--truth", *truths,
                     "--output", str(out_json)]) == 0
        assert capsys.readouterr().out.encode() == out_json.read_bytes()
        report = json.loads(out_json.read_text())
        assert all(report[k] != round(report[k], 3) for k in ("f1", "l2_error"))

    def test_camera_set_mismatch_rejected(self, tmp_path, capsys):
        truth_doc = {"identity_count": 1, "embeddings": None, "cameras": {"5": {}}}
        truth = tmp_path / "truth.json"
        truth.write_text(json.dumps(truth_doc))
        results_doc = {
            "cameras": [{"camera_id": 0, "tracklets": []}],
            "clusters": [],
            "unique_count": 0,
            "method_counts": None,
            "count_report": None,
            "timing": {"frames_processed": 0, "cameras": 1},
        }
        res = tmp_path / "results.json"
        res.write_text(json.dumps(results_doc))
        assert main(["eval", "--results", str(res), "--truth", str(truth)]) == 1
        assert "camera-set mismatch" in capsys.readouterr().err


    @pytest.mark.parametrize("which", ["results", "truth"])
    def test_non_finite_number_is_format_error(self, tmp_path, capsys, which):
        truth = tmp_path / "truth.json"
        truth.write_text(
            '{"identity_count": 1, "embeddings": null, '
            '"cameras": {"0": {"0": [[0, 0.0, 0.0, 5.0, 5.0]]}}}'
        )
        res = tmp_path / "results.json"
        res.write_text(
            '{"cameras": [{"camera_id": 0, "tracklets": [{"track_id": 1, "frames": [0], '
            '"boxes": [[0.0, 0.0, 5.0, 5.0]], "confidences": [0.9]}]}], '
            '"clusters": [{"global_id": 1, "members": [[0, 1]]}], "unique_count": 1, '
            '"method_counts": null, "count_report": null, '
            '"timing": {"frames_processed": 1, "cameras": 1}}'
        )
        assert main(["eval", "--results", str(res), "--truth", str(truth)]) == 0
        capsys.readouterr()
        bad = res if which == "results" else truth
        bad.write_text(bad.read_text().replace("5.0, 5.0]", "5.0, NaN]", 1))
        assert main(["eval", "--results", str(res), "--truth", str(truth)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error[format]: {bad}: ") and "NaN" in err


def sidecar_entry(track_id=1, frames=(0, 1)):
    n = len(frames)
    return {
        "track_id": track_id, "frames": list(frames), "boxes": [[0.0, 0.0, 5.0, 5.0]] * n,
        "confidences": [0.9] * n, "mean_confidence": 0.9, "mean_embedding": [1.0, 0.0],
    }


def valid_results_doc():
    return {
        "cameras": [{"camera_id": 0, "tracklets": [
            {"track_id": 1, "frames": [0], "boxes": [[0.0, 0.0, 5.0, 5.0]], "confidences": [0.9]},
        ]}],
        "clusters": [{"global_id": 1, "members": [[0, 1]]}],
        "unique_count": 1, "method_counts": None, "count_report": None,
        "timing": {"frames_processed": 1, "cameras": 1},
    }


def valid_truth_doc():
    return {"identity_count": 1, "embeddings": None,
            "cameras": {"0": {"0": [[0, 0.0, 0.0, 5.0, 5.0]]}}}


def format_error(capsys, argv) -> str:
    """Run the CLI; it must fail with exactly one error[format] line."""
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[format]: ") and err.count("\n") == 1, err
    return err


class TestTrackletJsonRules:
    """Ids are JSON integers, tracklet keys are unique and a tracklet
    entry's frames, boxes and confidences have one length."""

    def associate(self, tmp_path, docs):
        tracks = tmp_path / "tracks"
        tracks.mkdir()
        for name, doc in docs.items():
            (tracks / f"{name}.tracklets.json").write_text(json.dumps(doc))
        return ["associate", "--tracks", str(tracks), "--output", str(tmp_path / "r.json")]

    def eval(self, tmp_path, results, truth=None):
        res, tru = tmp_path / "results.json", tmp_path / "truth.json"
        res.write_text(json.dumps(results))
        tru.write_text(json.dumps(truth if truth is not None else valid_truth_doc()))
        return ["eval", "--results", str(res), "--truth", str(tru)]

    def test_valid_files_pass(self, tmp_path, capsys):
        doc = {"camera_id": 0, "tracklets": [sidecar_entry(1), sidecar_entry(2)]}
        assert main(self.associate(tmp_path, {"cam0": doc})) == 0
        assert main(self.eval(tmp_path, valid_results_doc())) == 0

    @pytest.mark.parametrize("bad", [1.5, "abc", True], ids=["float", "string", "bool"])
    @pytest.mark.parametrize("field", ["camera_id", "track_id", "frame"])
    def test_sidecar_ids_must_be_integers(self, tmp_path, capsys, field, bad):
        doc = {"camera_id": 0, "tracklets": [sidecar_entry()]}
        if field == "camera_id":
            doc["camera_id"] = bad
        elif field == "track_id":
            doc["tracklets"][0]["track_id"] = bad
        else:
            doc["tracklets"][0]["frames"][1] = bad
        err = format_error(capsys, self.associate(tmp_path, {"cam0": doc}))
        assert "must be an integer, got " + json.dumps(bad) in err

    @pytest.mark.parametrize("bad", [1.5, "abc", True], ids=["float", "string", "bool"])
    @pytest.mark.parametrize("field", ["camera_id", "track_id", "frame", "global_id", "member"])
    def test_results_ids_must_be_integers(self, tmp_path, capsys, field, bad):
        doc = valid_results_doc()
        entry = doc["cameras"][0]["tracklets"][0]
        if field == "camera_id":
            doc["cameras"][0]["camera_id"] = bad
        elif field == "track_id":
            entry["track_id"] = bad
        elif field == "frame":
            entry["frames"][0] = bad
        elif field == "global_id":
            doc["clusters"][0]["global_id"] = bad
        else:
            doc["clusters"][0]["members"][0][1] = bad
        err = format_error(capsys, self.eval(tmp_path, doc))
        assert json.dumps(bad) in err

    @pytest.mark.parametrize("bad", [1.5, "abc", True], ids=["float", "string", "bool"])
    def test_truth_identity_must_be_integer(self, tmp_path, capsys, bad):
        truth = valid_truth_doc()
        truth["cameras"]["0"]["0"][0][0] = bad
        err = format_error(capsys, self.eval(tmp_path, valid_results_doc(), truth))
        assert "integer identity" in err

    @pytest.mark.parametrize("key", ["1_0", "01", "+0", " 0", "x", "9" * 5000],
                             ids=["underscore", "leading-zero", "plus", "space", "letter", "huge"])
    @pytest.mark.parametrize("where", ["camera", "frame"])
    def test_truth_keys_must_be_decimal_integers(self, tmp_path, capsys, where, key):
        truth = valid_truth_doc()
        if where == "camera":
            truth["cameras"] = {key: truth["cameras"]["0"]}
        else:
            truth["cameras"]["0"] = {key: truth["cameras"]["0"]["0"]}
        err = format_error(capsys, self.eval(tmp_path, valid_results_doc(), truth))
        assert f"{where} key {json.dumps(key)[:37]}" in err and "must be a decimal integer" in err

    def test_duplicate_track_in_one_sidecar(self, tmp_path, capsys):
        doc = {"camera_id": 0, "tracklets": [sidecar_entry(1), sidecar_entry(1)]}
        err = format_error(capsys, self.associate(tmp_path, {"cam0": doc}))
        assert "camera 0: track 1 is listed twice" in err

    def test_duplicate_track_across_sidecars_names_both_files(self, tmp_path, capsys):
        docs = {name: {"camera_id": 0, "tracklets": [sidecar_entry(1)]} for name in ("a", "b")}
        err = format_error(capsys, self.associate(tmp_path, docs))
        tracks = tmp_path / "tracks"
        assert err == (
            f"error[format]: {tracks / 'b.tracklets.json'}: tracklet (camera 0, track 1) "
            f"is also in {tracks / 'a.tracklets.json'}\n"
        )

    def test_same_track_id_on_two_cameras_is_fine(self, tmp_path):
        docs = {f"cam{c}": {"camera_id": c, "tracklets": [sidecar_entry(1)]} for c in (0, 1)}
        assert main(self.associate(tmp_path, docs)) == 0

    def test_results_repeated_camera(self, tmp_path, capsys):
        doc = valid_results_doc()
        doc["cameras"].append({"camera_id": 0, "tracklets": []})
        err = format_error(capsys, self.eval(tmp_path, doc))
        assert "camera 0 is listed twice" in err

    def test_results_repeated_track(self, tmp_path, capsys):
        doc = valid_results_doc()
        tracklets = doc["cameras"][0]["tracklets"]
        tracklets.append(dict(tracklets[0]))
        err = format_error(capsys, self.eval(tmp_path, doc))
        assert "camera 0: track 1 is listed twice" in err

    @pytest.mark.parametrize("member", [[0, 99], [7, 1]], ids=["unknown-track", "unknown-camera"])
    def test_results_member_must_be_listed(self, tmp_path, capsys, member):
        doc = valid_results_doc()
        doc["clusters"].append({"global_id": 2, "members": [member]})
        doc["unique_count"] = 2
        err = format_error(capsys, self.eval(tmp_path, doc))
        assert err == (
            f"error[format]: {tmp_path / 'results.json'}: cluster 2: member "
            f"(camera {member[0]}, track {member[1]}) is not a listed tracklet\n"
        )

    @pytest.mark.parametrize("where", ["same-cluster", "two-clusters"])
    def test_results_member_in_one_cluster_only(self, tmp_path, capsys, where):
        doc = valid_results_doc()
        if where == "same-cluster":
            doc["clusters"][0]["members"].append([0, 1])
        else:
            doc["clusters"].append({"global_id": 2, "members": [[0, 1]]})
            doc["unique_count"] = 2
        err = format_error(capsys, self.eval(tmp_path, doc))
        gid = 1 if where == "same-cluster" else 2
        assert err == (
            f"error[format]: {tmp_path / 'results.json'}: cluster {gid}: member "
            "(camera 0, track 1) is also in cluster 1\n"
        )

    @pytest.mark.parametrize("key, value", [
        ("boxes", [[0.0, 0.0, 5.0, 5.0]]),
        ("confidences", [0.9, 0.9, 0.9]),
        ("frames", [0, 1, 2]),
    ])
    def test_ragged_sidecar_entry(self, tmp_path, capsys, key, value):
        entry = sidecar_entry(frames=(0, 1))
        entry[key] = value
        doc = {"camera_id": 0, "tracklets": [entry]}
        err = format_error(capsys, self.associate(tmp_path, {"cam0": doc}))
        assert "frames, boxes and confidences must have one non-zero length" in err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("frame", [2**63, -(2**63) - 1, 10**400])
    @pytest.mark.parametrize("which", ["sidecar", "results"])
    def test_frame_must_fit_64_bits(self, tmp_path, capsys, which, frame):
        if which == "sidecar":
            entry = sidecar_entry(frames=(0, frame))
            argv = self.associate(tmp_path, {"cam0": {"camera_id": 0, "tracklets": [entry]}})
        else:
            doc = valid_results_doc()
            doc["cameras"][0]["tracklets"][0]["frames"] = [frame]
            argv = self.eval(tmp_path, doc)
        err = format_error(capsys, argv)
        assert err.endswith(
            f"camera 0, track 1: frame {frame} is outside the 64-bit integer range\n")

    def test_frame_at_the_64_bit_limits_is_read(self, tmp_path):
        for frame in (2**63 - 1, -(2**63)):
            doc = valid_results_doc()
            doc["cameras"][0]["tracklets"][0]["frames"] = [frame]
            path = tmp_path / "results.json"
            path.write_text(json.dumps(doc))
            (t,) = formats.read_results_json(path).camera_tracklets[0]
            assert t.frames.tolist() == [frame]

    @pytest.mark.parametrize("which, frames, message", [
        ("sidecar", [5, 2, 2], "got 2 after 5"),
        ("results", [3, 3, 1], "got 3 after 3"),
    ])
    def test_frames_must_be_strictly_increasing(self, tmp_path, capsys, which, frames,
                                                message):
        # Once accepted with exit 0, though the tracker writes one box per
        # tracklet per frame and refine and eval match frame by frame.
        if which == "sidecar":
            entry = sidecar_entry(frames=frames)
            argv = self.associate(tmp_path, {"cam0": {"camera_id": 0, "tracklets": [entry]}})
            path = tmp_path / "tracks" / "cam0.tracklets.json"
        else:
            doc = valid_results_doc()
            doc["cameras"][0]["tracklets"][0].update(
                frames=frames, boxes=[[0.0, 0.0, 5.0, 5.0]] * 3, confidences=[0.9] * 3)
            argv = self.eval(tmp_path, doc)
            path = tmp_path / "results.json"
        assert format_error(capsys, argv) == (
            f"error[format]: {path}: camera 0, track 1: frames must be strictly increasing, "
            f"{message}\n")

    def test_negative_identity_count(self, tmp_path, capsys):
        # Once accepted with exit 0: per_set_truth [-2] and an l2_error of 3.0.
        truth = {"identity_count": -2, "cameras": {"0": {}}}
        report = tmp_path / "report.json"
        argv = self.eval(tmp_path, valid_results_doc(), truth) + ["--output", str(report)]
        assert format_error(capsys, argv) == (
            f"error[format]: {tmp_path / 'truth.json'}: identity_count must be >= 0, got -2\n")
        assert not report.exists()

    def test_zero_identity_count_is_valid(self, tmp_path):
        truth = {"identity_count": 0, "cameras": {"0": {}}}
        assert main(self.eval(tmp_path, valid_results_doc(), truth)) == 0

    def test_empty_tracklet_entry(self, tmp_path, capsys):
        entry = dict(sidecar_entry(), frames=[], boxes=[], confidences=[])
        doc = {"camera_id": 0, "tracklets": [entry]}
        err = format_error(capsys, self.associate(tmp_path, {"cam0": doc}))
        assert "got 0, 0 and 0" in err

    @pytest.mark.parametrize("which", ["sidecar", "results", "truth"])
    def test_repeated_json_key(self, tmp_path, capsys, which):
        if which == "sidecar":
            doc = {"camera_id": 0, "tracklets": [sidecar_entry()]}
            argv = self.associate(tmp_path, {"cam0": doc})
            path = tmp_path / "tracks" / "cam0.tracklets.json"
            old, new = '{"camera_id": 0', '{"camera_id": 0, "camera_id": 1'
        else:
            argv = self.eval(tmp_path, valid_results_doc())
            path = tmp_path / f"{which}.json"
            old, new = (('"unique_count": 1', '"unique_count": 1, "unique_count": 2')
                        if which == "results" else ('"0": {"0"', '"0": {"0": [], "0"'))
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new, 1))
        err = format_error(capsys, argv)
        assert err.startswith(f"error[format]: {path}: duplicate key ")

    def test_ragged_results_entry(self, tmp_path, capsys):
        doc = valid_results_doc()
        doc["cameras"][0]["tracklets"][0]["confidences"] = []
        err = format_error(capsys, self.eval(tmp_path, doc))
        assert "got 1, 1 and 0" in err

    @pytest.mark.parametrize("box", [[0.0, 0.0, 5.0], [0.0, 0.0, 5.0, 5.0, 1.0], [0, 0, "5", 5],
                                     [0, 0, True, 5], 5.0, [0, 0, 5, 10**400]])
    @pytest.mark.parametrize("which", ["sidecar", "results"])
    def test_box_must_be_four_numbers(self, tmp_path, capsys, which, box):
        if which == "sidecar":
            entry = sidecar_entry(frames=(0,))
            entry["boxes"] = [box]
            argv = self.associate(tmp_path, {"cam0": {"camera_id": 0, "tracklets": [entry]}})
        else:
            doc = valid_results_doc()
            doc["cameras"][0]["tracklets"][0]["boxes"] = [box]
            argv = self.eval(tmp_path, doc)
        assert "box must be a list of 4 numbers" in format_error(capsys, argv)


    @pytest.mark.parametrize("box, confidence, message", [
        ([0, 0, -5, 0], 0.9, "non-positive box size -5.0x0.0"),
        ([1000.0, 0, 1e-14, 5], 0.9,
         "box size 1e-14x5.0 vanishes at (1000.0, 0.0): x + w == x or y + h == y"),
        ([0, 0, 1e-200, 1e-200], 0.9,
         "box size 1e-200x1e-200 has zero area in float64: w * h == 0"),
        ([0, 0, 1e300, 1e300], 0.9,
         f"box (0.0, 0.0, 1e+300, 1e+300) out of range: {geometry.BOX_RANGE}"),
        ([0, 0, 5, 5], 7.0, "confidence 7.0 outside [0, 1]"),
        ([0, 0, 5, 5], -2.0, "confidence -2.0 outside [0, 1]"),
    ], ids=["negative-w", "vanishing", "zero-area", "out-of-range", "confidence-7",
            "confidence-negative"])
    @pytest.mark.parametrize("which", ["sidecar", "results"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_tracklet_boxes_keep_the_detection_rules(self, tmp_path, capsys, which, box,
                                                     confidence, message):
        # Once accepted: associate wrote them out, and eval overflowed in IoU.
        entries = [sidecar_entry(1), sidecar_entry(2, frames=(0, 1, 2))]
        entries[1]["boxes"][2], entries[1]["confidences"][2] = box, confidence
        if which == "sidecar":
            argv = self.associate(tmp_path, {"cam0": {"camera_id": 0, "tracklets": entries}})
            path = tmp_path / "tracks" / "cam0.tracklets.json"
        else:
            doc = valid_results_doc()
            doc["cameras"][0]["tracklets"] = entries
            argv = self.eval(tmp_path, doc)
            path = tmp_path / "results.json"
        assert format_error(capsys, argv) == (
            f"error[format]: {path}: camera 0, track 2: box 2: {message}\n")

    @pytest.mark.parametrize("box, message", [
        ([0, 0, 0, 0], "non-positive box size 0.0x0.0"),
        ([0, 0, -3, 5], "non-positive box size -3.0x5.0"),
        ([0, 0, 5, 1e200], f"box (0.0, 0.0, 5.0, 1e+200) out of range: {geometry.BOX_RANGE}"),
    ], ids=["zero-size", "negative-w", "out-of-range"])
    def test_truth_boxes_keep_the_box_rules(self, tmp_path, capsys, box, message):
        truth = valid_truth_doc()
        truth["cameras"]["0"]["3"] = [[0, 0.0, 0.0, 5.0, 5.0], [0, *box]]
        assert format_error(capsys, self.eval(tmp_path, valid_results_doc(), truth)) == (
            f"error[format]: {tmp_path / 'truth.json'}: camera 0, frame 3: box 1: {message}\n")

    @pytest.mark.parametrize("fault", ["repeated-track", "track-in-two-sidecars",
                                       "unlisted-member"])
    def test_box_rules_come_after_the_other_checks(self, tmp_path, capsys, fault):
        bad = dict(sidecar_entry(1), boxes=[[0, 0, -5, 0]] * 2)
        if fault == "repeated-track":
            argv = self.associate(tmp_path, {"cam0": {"camera_id": 0, "tracklets": [bad, bad]}})
            expected = "camera 0: track 1 is listed twice"
        elif fault == "track-in-two-sidecars":
            docs = {"a": {"camera_id": 0, "tracklets": [sidecar_entry(1)]},
                    "b": {"camera_id": 0, "tracklets": [bad]}}
            argv = self.associate(tmp_path, docs)
            expected = "tracklet (camera 0, track 1) is also in "
        else:
            doc = valid_results_doc()
            doc["cameras"][0]["tracklets"][0]["boxes"] = [[0, 0, -5, 0]]
            doc["clusters"][0]["members"] = [[0, 9]]
            argv = self.eval(tmp_path, doc)
            expected = "member (camera 0, track 9) is not a listed tracklet"
        assert expected in format_error(capsys, argv)


class TestCountCli:
    def test_full_pipeline_and_determinism(self, tmp_path):
        scn = simulate(tmp_path, cameras=3, identities=5, frames=60, embedding_dim=16)
        res_a = tmp_path / "a.json"
        res_b = tmp_path / "b.json"
        for res in (res_a, res_b):
            assert (
                main(
                    [
                        "count",
                        "--scenario", str(scn),
                        "--method", "both",
                        "--threshold", "0.5",
                        "--output", str(res),
                    ]
                )
                == 0
            )
        assert res_a.read_bytes() == res_b.read_bytes()
        got = formats.read_results_json(res_a)
        assert got.unique_count == 5

    def test_parallel_matches_sequential(self, tmp_path):
        scn = simulate(tmp_path, cameras=2, identities=3, frames=40, embedding_dim=8)
        res_seq = tmp_path / "seq.json"
        res_par = tmp_path / "par.json"
        assert main(["count", "--scenario", str(scn), "--output", str(res_seq)]) == 0
        assert main(["count", "--scenario", str(scn), "--parallel", "--output", str(res_par)]) == 0
        assert res_seq.read_bytes() == res_par.read_bytes()

    def test_timing_sidecar(self, tmp_path):
        scn = simulate(tmp_path, cameras=1, identities=1, frames=20, embedding_dim=8)
        timing = tmp_path / "timing.json"
        assert (
            main(
                ["count", "--scenario", str(scn), "--timing-out", str(timing),
                 "--output", str(tmp_path / "r.json")]
            )
            == 0
        )
        doc = json.loads(timing.read_text())
        assert doc["frames_processed"] == 20
        assert doc["wall_time_s"] > 0
        assert "effective_fps" in doc
        # The results file itself carries only the deterministic frame count.
        res = json.loads((tmp_path / "r.json").read_text())
        assert res["timing"] == {"frames_processed": 20, "cameras": 1}

    @pytest.mark.parametrize(
        "text, category",
        [('{"frames": "5"}', "config"), ('{"occlusions": [{"camera": 0}]}', "config"),
         ('{"frames": 5', "format"), ('{"frames": NaN}', "format")],
        ids=["mistyped", "occlusion", "invalid", "non-finite"],
    )
    def test_bad_scenario_json(self, tmp_path, capsys, text, category):
        scn = simulate(tmp_path, cameras=1, identities=1, frames=5, embedding_dim=4)
        (scn / "scenario.json").write_text(text)
        assert main(["count", "--scenario", str(scn), "--output", str(tmp_path / "r.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error[{category}]: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "text",
        ['{"tracker": {"max_age": 5, "max_age": 7}}',
         '{"detection_threshold": 0.1, "detection_threshold": 0.9}',
         '{"preset": "study1", "preset": "study2"}'],
        ids=["nested", "top-level", "preset"],
    )
    def test_repeated_config_key_is_format_error(self, tmp_path, capsys, text):
        scn = simulate(tmp_path, cameras=1, identities=1, frames=5, embedding_dim=4)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        out = tmp_path / "r.json"
        argv = ["count", "--scenario", str(scn), "--config", str(cfg), "--output", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error[format]: {cfg}: duplicate key ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("threshold", [-0.5, 1.5])
    def test_nms_threshold_out_of_range_is_config_error(self, tmp_path, capsys, threshold):
        # Reported from the config, before any CSV is read: this one is malformed.
        scn = simulate(tmp_path, cameras=1, identities=1, frames=5, embedding_dim=4)
        replace_line(scn / "detections_cam0.csv", 1, "0,0,oops")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"preset": "study1", "tracker": {"nms_threshold": threshold}}))
        argv = ["count", "--scenario", str(scn), "--config", str(cfg)]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error[config]: invalid tracker config: nms_threshold must be in [0, 1], "
            f"got {threshold}\n"
        )

    def test_negative_match_distance_is_config_error(self, tmp_path, capsys):
        # This config once ran count to exit 0 with unique_count 0.
        scn = simulate(tmp_path, cameras=1, identities=2, frames=10, embedding_dim=4)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"tracker": {"max_appearance_distance": -1.0, "max_iou_distance": -5.0}}))
        out = tmp_path / "r.json"
        assert main(["count", "--scenario", str(scn), "--config", str(cfg),
                     "--output", str(out)]) == 1
        assert capsys.readouterr().err == ("error[config]: invalid tracker config: "
                                           "max_appearance_distance must be >= 0, got -1.0\n")
        assert not out.exists()

    @pytest.mark.parametrize("name", ["detections_cam01.csv", "detections_cam1_0.csv",
                                      "detections_cam.csv", "detections_cam+1.csv"])
    def test_camera_id_in_file_name_must_be_canonical(self, tmp_path, capsys, name):
        # A second spelling of camera 1 once replaced it silently, and
        # "1_0" read as camera 10.
        scn = simulate(tmp_path, cameras=2, identities=2, frames=10, embedding_dim=4)
        bad = scn / name
        bad.write_bytes((scn / "detections_cam1.csv").read_bytes())
        out = tmp_path / "r.json"
        assert main(["count", "--scenario", str(scn), "--output", str(out)]) == 1
        key = json.dumps(name.removeprefix("detections_cam").removesuffix(".csv"))
        assert capsys.readouterr().err == (
            f"error[format]: {bad}: camera key {key} must be a decimal integer\n"
        )
        assert not out.exists()

    def test_config_method_voting_is_config_error(self, tmp_path, capsys):
        # "voting" names only the CLI's --method voting (euclidean_voting).
        scn = simulate(tmp_path, cameras=1, identities=1, frames=5, embedding_dim=4)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"association": {"method": "voting"}}))
        out = tmp_path / "r.json"
        assert main(["count", "--scenario", str(scn), "--config", str(cfg),
                     "--output", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error[config]: invalid association config: method must be one of "
            "('euclidean', 'euclidean_voting'), got 'voting'\n"
        )
        assert not out.exists()

    def test_repeated_scenario_config_key_is_format_error(self, tmp_path, capsys):
        cfg = write_scenario_config(tmp_path)
        cfg.write_text('{"frames": 5, "frames": 6}')
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error[format]: {cfg}: duplicate key ") and err.count("\n") == 1


def timing_sidecar(tmp_path, command: str) -> tuple[str, dict]:
    """The --timing-out text of `command` (associate or count) on a small
    scenario, and the results file's timing block."""
    scn = simulate(tmp_path, cameras=2, identities=2, frames=20, embedding_dim=8)
    timing, res = tmp_path / "timing.json", tmp_path / "r.json"
    if command == "associate":
        args = ["associate", "--tracks", str(track_all(tmp_path, scn, 2))]
    else:
        args = ["count", "--scenario", str(scn)]
    assert main([*args, "--timing-out", str(timing), "--output", str(res)]) == 0
    return timing.read_text(), json.loads(res.read_text())["timing"]


class TestTimingSidecar:
    def test_associate_sidecar(self, tmp_path):
        text, res_timing = timing_sidecar(tmp_path, "associate")
        doc = json.loads(text)
        assert set(doc) == {"frames_processed", "wall_time_s", "effective_fps"}
        assert doc["frames_processed"] == res_timing["frames_processed"] > 0
        assert doc["wall_time_s"] > 0

    @pytest.mark.parametrize("command", ["associate", "count"])
    def test_floats_carry_9_significant_digits(self, tmp_path, command):
        floats: list[str] = []
        json.loads(timing_sidecar(tmp_path, command)[0], parse_float=floats.append)
        assert len(floats) == 2  # wall_time_s and effective_fps
        for text in floats:
            mantissa = text.split("e")[0].lstrip("-").replace(".", "").strip("0")
            assert len(mantissa) <= 9, text


class TestFrameRulesBeyondInt64:
    """A frame stride or frame_keep block past int64 cannot be applied to the
    int64 frame column; it once ended in an OverflowError traceback."""

    @pytest.mark.parametrize("value", [2**63, 10**400], ids=["2**63", "10**400"])
    @pytest.mark.parametrize("key", ["frame_stride", "frame_keep"])
    @pytest.mark.parametrize("command", ["track", "count", "count --parallel"])
    def test_config_value_is_config_error(self, tmp_path, capsys, command, key, value):
        scn = simulate(tmp_path, cameras=2, identities=2, frames=10, embedding_dim=4)
        if key == "frame_stride":
            doc = {"tracker": {"frame_stride": value}}
            want = "error[config]: invalid tracker config: frame_stride must be at most 2**63 - 1\n"
        else:
            doc = {"frame_keep": [1, value]}
            want = (f"error[config]: frame_keep must satisfy 1 <= keep <= block <= 2**63 - 1, "
                    f"got (1, {value})\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        if command == "track":
            argv = ["track", "--detections", str(scn / "detections_cam0.csv"),
                    "--output", str(tmp_path / "t.csv")]
        else:
            argv = ["count", "--scenario", str(scn), "--output", str(tmp_path / "r.json")]
            argv += command.split()[1:]
        assert main(argv + ["--config", str(cfg)]) == 1
        assert capsys.readouterr().err == want

    def test_frame_stride_option(self, tmp_path, capsys):
        scn = simulate(tmp_path, cameras=1, identities=2, frames=10, embedding_dim=4)
        argv = ["track", "--detections", str(scn / "detections_cam0.csv"),
                "--output", str(tmp_path / "t.csv"), "--frame-stride"]
        assert main(argv + [str(2**63)]) == 1
        assert capsys.readouterr().err == "error[input]: frame_stride must be at most 2**63 - 1\n"
        assert not (tmp_path / "t.csv").exists()
        assert main(argv + [str(2**63 - 1)]) == 0
        assert "1 frames" in capsys.readouterr().out


class TestColumnarStreams:
    @pytest.mark.parametrize("command", ["count", "track"])
    def test_no_per_row_objects_between_ingest_and_export(self, tmp_path, monkeypatch, command):
        # study1 runs NMS; false positives give it boxes to suppress.
        scn = simulate(tmp_path, cameras=2, identities=3, frames=30, embedding_dim=8,
                       false_positive_rate=0.5, box_jitter_sigma=2.0)
        if command == "count":
            argv = ["count", "--scenario", str(scn), "--method", "both"]
        else:
            argv = ["track", "--detections", str(scn / "detections_cam0.csv"),
                    "--embeddings", str(scn / "embeddings_cam0.csv")]
        built = []
        for cls in (geometry.Detection, geometry.BoundingBox):
            def counting_init(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
                built.append(_name)
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting_init)
        assert main(argv + ["--config", "study1", "--output", str(tmp_path / "out.json")]) == 0
        assert built == []
        geometry.BoundingBox(0.0, 0.0, 1.0, 1.0)  # the counter itself works
        assert built == ["BoundingBox"]


def replace_line(path: Path, index: int, text: str) -> None:
    lines = path.read_text().splitlines()
    lines[index] = text
    path.write_text("\n".join(lines) + "\n")


class TestCountErrorParity:
    """A camera is one unit of work (parse, track, export), run in camera
    order: `count` prints the same single error line with and without
    --parallel."""

    def errors(self, capsys, argv) -> list[str]:
        out = []
        for extra in ([], ["--parallel"]):
            capsys.readouterr()
            assert main(argv + extra) == 1
            out.append(capsys.readouterr().err)
        return out

    def test_malformed_embeddings_csv_in_camera_1(self, tmp_path, capsys):
        scn = simulate(tmp_path, cameras=3, identities=2, frames=20, embedding_dim=4)
        emb = scn / "embeddings_cam1.csv"
        replace_line(emb, 3, "0,1,not,a,number,row")
        argv = ["count", "--scenario", str(scn), "--output", str(tmp_path / "r.json")]
        seq, par = self.errors(capsys, argv)
        assert seq == par
        assert seq.startswith(f"error[format]: {emb}:4: ") and seq.count("\n") == 1

    def test_first_failing_camera_wins(self, tmp_path, capsys):
        # Camera 0 parses but has a detection beyond the scenario's 20
        # frames; camera 2's detections CSV does not parse. Camera 0 fails
        # first in camera order, in both modes.
        scn = simulate(tmp_path, cameras=3, identities=2, frames=20, embedding_dim=4)
        with open(scn / "detections_cam0.csv", "a") as fh:
            fh.write("25,0,10,10,20,40,0.9,0\n")
        with open(scn / "embeddings_cam0.csv", "a") as fh:
            fh.write("25,0,0.5,0.5,0.5,0.5\n")
        replace_line(scn / "detections_cam2.csv", 2, "1,0,10,10,20")
        argv = ["count", "--scenario", str(scn), "--output", str(tmp_path / "r.json")]
        seq, par = self.errors(capsys, argv)
        assert seq == par == (
            "error[input]: camera 0: detection at frame 25 is outside the stream's "
            "frames [0, 20)\n"
        )
        assert not (tmp_path / "r.json").exists()

    def test_embeddings_error_before_frame_range(self, tmp_path, capsys):
        # Camera 0 has a detection beyond the scenario's 20 frames and an
        # unparsable embeddings row: the file's error comes first, as the
        # camera's files are read before its rows are checked.
        scn = simulate(tmp_path, cameras=2, identities=2, frames=20, embedding_dim=4)
        with open(scn / "detections_cam0.csv", "a") as fh:
            fh.write("25,0,10,10,20,40,0.9,0\n")
        emb = scn / "embeddings_cam0.csv"
        with open(emb, "a") as fh:
            fh.write("25,0,0.5,0.5,0.5,0.5\n")
        replace_line(emb, 3, "0,1,not,a,number,row")
        argv = ["count", "--scenario", str(scn), "--output", str(tmp_path / "r.json")]
        seq, par = self.errors(capsys, argv)
        assert seq == par
        assert seq.startswith(f"error[format]: {emb}:4: ") and seq.count("\n") == 1
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("name", ["embeddings_cam1.csv", "embeddings_cam01.csv"])
    def test_orphan_embeddings_file(self, tmp_path, capsys, name):
        # An embeddings file that no detections file pairs with would never
        # be read: camera 1's detections are gone, or the name spells
        # camera 1 another way.
        scn = simulate(tmp_path, cameras=2, identities=2, frames=10, embedding_dim=4)
        orphan = scn / name
        if orphan.exists():
            (scn / "detections_cam1.csv").unlink()
        else:
            orphan.write_bytes((scn / "embeddings_cam1.csv").read_bytes())
        argv = ["count", "--scenario", str(scn), "--output", str(tmp_path / "r.json")]
        seq, par = self.errors(capsys, argv)
        assert seq == par == (
            f"error[format]: {orphan}: no detections_cam<K>.csv matches this file\n"
        )
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("stale", [2, 10, -1])
    def test_camera_the_scenario_lacks(self, tmp_path, capsys, stale):
        # Camera 2's files of a 3-camera scenario beside a scenario.json of 2
        # cameras, as a simulate over an old run once left them; count once
        # tracked them.
        old = simulate(tmp_path, out="old", cameras=3, identities=2, frames=10, embedding_dim=4)
        scn = simulate(tmp_path, cameras=2, identities=2, frames=10, embedding_dim=4)
        for kind in ("detections", "embeddings"):
            (old / f"{kind}_cam2.csv").rename(scn / f"{kind}_cam{stale}.csv")
        argv = ["count", "--scenario", str(scn), "--output", str(tmp_path / "r.json")]
        seq, par = self.errors(capsys, argv)
        assert seq == par == (
            f"error[format]: {scn / f'detections_cam{stale}.csv'}: camera {stale} is not one "
            f"of the 2 cameras (0 to 1) of {scn / 'scenario.json'}\n"
        )
        assert not (tmp_path / "r.json").exists()
        (scn / f"detections_cam{stale}.csv").unlink()
        (scn / f"embeddings_cam{stale}.csv").unlink()
        assert main(argv) == 0

    def test_box_vanishing_in_float64(self, tmp_path, capsys):
        # w and h are positive, but x + w == x: IoU would divide 0 by 0.
        scn = simulate(tmp_path, cameras=2, identities=2, frames=20, embedding_dim=4)
        det = scn / "detections_cam1.csv"
        key = det.read_text().splitlines()[3].split(",")[:2]
        replace_line(det, 3, ",".join(key + ["1000.0", "500.0", "1e-14", "1e-14", "0.9", "0"]))
        argv = ["count", "--scenario", str(scn), "--output", str(tmp_path / "r.json")]
        seq, par = self.errors(capsys, argv)
        assert seq == par == (
            f"error[format]: {det}:4: box size 1e-14x1e-14 vanishes at (1000.0, 500.0): "
            "x + w == x or y + h == y\n"
        )
        assert not (tmp_path / "r.json").exists()

    def test_box_out_of_range(self, tmp_path, capsys):
        scn = simulate(tmp_path, cameras=2, identities=2, frames=20, embedding_dim=4)
        det = scn / "detections_cam1.csv"
        key = det.read_text().splitlines()[3].split(",")[:2]
        replace_line(det, 3, ",".join(key + ["0.0", "0.0", "1e200", "1e200", "0.9", "0"]))
        argv = ["count", "--scenario", str(scn), "--output", str(tmp_path / "r.json")]
        seq, par = self.errors(capsys, argv)
        assert seq == par == (
            f"error[format]: {det}:4: box (0.0, 0.0, 1e+200, 1e+200) out of range: "
            "|x|, |y|, w, h, w/h and h/w must be at most 1e+150\n"
        )
        assert not (tmp_path / "r.json").exists()

    def test_box_area_underflow(self, tmp_path, capsys):
        scn = simulate(tmp_path, cameras=2, identities=2, frames=20, embedding_dim=4)
        det = scn / "detections_cam1.csv"
        key = det.read_text().splitlines()[3].split(",")[:2]
        replace_line(det, 3, ",".join(key + ["0.0", "0.0", "1e-200", "1e-200", "0.9", "0"]))
        argv = ["count", "--scenario", str(scn), "--output", str(tmp_path / "r.json")]
        seq, par = self.errors(capsys, argv)
        assert seq == par == (
            f"error[format]: {det}:4: box size 1e-200x1e-200 has zero area in float64: "
            "w * h == 0\n"
        )
        assert not (tmp_path / "r.json").exists()

    def test_embedding_out_of_range(self, tmp_path, capsys):
        scn = simulate(tmp_path, cameras=2, identities=2, frames=20, embedding_dim=4)
        emb = scn / "embeddings_cam1.csv"
        key = emb.read_text().splitlines()[3].split(",")[:2]
        replace_line(emb, 3, ",".join(key + ["0.5", "-1e300", "0.0", "0.5"]))
        argv = ["count", "--scenario", str(scn), "--output", str(tmp_path / "r.json")]
        seq, par = self.errors(capsys, argv)
        assert seq == par == (
            f"error[format]: {emb}:4: embedding value -1e+300 out of range: "
            "every embedding value must be within [-1e+100, 1e+100]\n"
        )
        assert not (tmp_path / "r.json").exists()

    def test_missing_embeddings_file_given_to_track(self, tmp_path, capsys):
        scn = simulate(tmp_path, cameras=1, identities=2, frames=20, embedding_dim=4)
        missing = tmp_path / "missing.csv"
        argv = ["track", "--detections", str(scn / "detections_cam0.csv"),
                "--embeddings", str(missing), "--output", str(tmp_path / "t.csv")]
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error[io]: [Errno 2] No such file or directory: '{missing}'\n"
        )
        assert not (tmp_path / "t.csv").exists()


GOLDEN = Path(__file__).parent / "data" / "golden"


class TestEmbeddingKeySets:
    """An embeddings file whose keys differ from its detections' fails
    `track`, `count` and `count --parallel` alike: one error line that
    names the file, and no output."""

    @pytest.fixture(params=["missing", "unknown"])
    def case(self, request, tmp_path) -> tuple[Path, Path, str]:
        scn = tmp_path / "scenario"
        scn.mkdir()
        for path in (GOLDEN / "scenario").iterdir():
            (scn / path.name).write_bytes(path.read_bytes())
        emb = scn / "embeddings_cam1.csv"
        lines = emb.read_text().splitlines(keepends=True)
        if request.param == "missing":
            del lines[4]  # data row 4
            message = "detection (frame=0, det_id=3) has no embedding"
        else:
            lines.append("999,0," + ",".join(["0.5"] * 8) + "\n")
            message = "embedding key (frame=999, det_id=0) matches no detection"
        emb.write_text("".join(lines))
        return scn, emb, f"error[format]: {emb}: {message}\n"

    def test_track(self, tmp_path, capsys, case):
        scn, emb, error = case
        out = tmp_path / "t.csv"
        assert main(["track", "--detections", str(scn / "detections_cam1.csv"),
                     "--embeddings", str(emb), "--camera-id", "1",
                     "--config", str(GOLDEN / "config.json"), "--output", str(out)]) == 1
        assert capsys.readouterr().err == error
        assert list(tmp_path.glob("t.*")) == []

    @pytest.mark.parametrize("extra", [[], ["--parallel"]], ids=["sequential", "parallel"])
    def test_count(self, tmp_path, capsys, case, extra):
        scn, _, error = case
        out = tmp_path / "r.json"
        assert main(["count", "--scenario", str(scn), "--config", str(GOLDEN / "config.json"),
                     "--output", str(out), *extra]) == 1
        assert capsys.readouterr().err == error
        assert not out.exists()


class TestThresholdMustBeFinite:
    """A NaN threshold passes a `<= 0` check and gives wrong counts; an
    infinite one merges everyone. Both are rejected before any work."""

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command", ["count", "associate"])
    def test_non_finite_threshold_is_input_error(self, tmp_path, capsys, command, value):
        scn = simulate(tmp_path, cameras=2, identities=2, frames=20, embedding_dim=8)
        if command == "count":
            argv = ["count", "--scenario", str(scn)]
        else:
            argv = ["associate", "--tracks", str(track_all(tmp_path, scn, 2))]
        out = tmp_path / "r.json"
        capsys.readouterr()
        assert main(argv + [f"--threshold={value}", "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[input]: threshold must be a finite number > 0"), err
        assert err.count("\n") == 1, err
        assert not out.exists()


def track_rows(tmp_path, capsys, row: str, frames: int = 7) -> tuple[int, str, Path]:
    """`mcmot track` on `frames` frames holding one detection each, `row`
    after its frame and det_id: (exit code, stderr, output path)."""
    det = tmp_path / "dets.csv"
    det.write_text(formats.DETECTION_HEADER + "\n"
                   + "".join(f"{f},0,{row}\n" for f in range(frames)))
    out = tmp_path / "t.csv"
    capsys.readouterr()
    code = main(["track", "--detections", str(det), "--output", str(out)])
    return code, capsys.readouterr().err, out


class TestDegenerateBoxes:
    def test_box_vanishing_in_float64_is_format_error(self, tmp_path, capsys):
        # Once a RuntimeWarning from IoU's 0/0, exit 0 and no tracklet for a
        # box seen in 7 frames.
        code, err, out = track_rows(tmp_path, capsys, "1000.0,500.0,1e-14,1e-14,0.9,0")
        assert code == 1
        assert err == (f"error[format]: {tmp_path / 'dets.csv'}:2: box size 1e-14x1e-14 "
                       "vanishes at (1000.0, 500.0): x + w == x or y + h == y\n")
        assert not out.exists()

    @pytest.mark.parametrize("row", ["0.0,0.0,1e200,1e200,0.9,0", "0.0,0.0,1e155,1e155,0.9,0",
                                     "0.0,0.0,1.0,1e160,0.9,0", "0.0,0.0,1e150,1e-300,0.9,0",
                                     "-2e150,0.0,1e140,1.0,0.9,0"],
                             ids=["size", "just-past", "height", "aspect", "x"])
    def test_box_out_of_range_is_format_error(self, tmp_path, capsys, row):
        # Once numpy overflow and invalid-value RuntimeWarnings, exit 0 and
        # no tracklet for a box seen in 7 frames.
        code, err, out = track_rows(tmp_path, capsys, row)
        box = ", ".join(repr(float(v)) for v in row.split(",")[:4])
        assert code == 1
        assert err == (f"error[format]: {tmp_path / 'dets.csv'}:2: box ({box}) out of range: "
                       "|x|, |y|, w, h, w/h and h/w must be at most 1e+150\n")
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("row", ["1e150,-1e150,1e150,1e150,0.9,0", "0.0,0.0,1e150,1.0,0.9,0",
                                     "-1e150,0.0,1e135,1e-15,0.9,0"],
                             ids=["corner", "aspect", "thin"])
    def test_box_at_the_bound_tracks_without_warning(self, tmp_path, capsys, row):
        code, err, out = track_rows(tmp_path, capsys, row)
        assert code == 0, err
        assert len(out.read_text().splitlines()) > 1

    @pytest.mark.parametrize("row", ["0.0,0.0,1e-200,1e-200,0.9,0", "0.0,0.0,5e-324,0.5,0.9,0"],
                             ids=["both", "denormal"])
    def test_box_area_underflow_is_format_error(self, tmp_path, capsys, row):
        # Once a RuntimeWarning from IoU's 0/0, exit 0 and no tracklet for a
        # box seen in 7 frames.
        code, err, out = track_rows(tmp_path, capsys, row)
        w, h = (repr(float(v)) for v in row.split(",")[2:4])
        assert code == 1
        assert err == (f"error[format]: {tmp_path / 'dets.csv'}:2: box size {w}x{h} has zero "
                       "area in float64: w * h == 0\n")
        assert not out.exists()

    def test_innovation_covariance_underflow_is_numeric_error(self, tmp_path, capsys):
        # The box keeps its extent (0 + w > 0), but its height squared
        # underflows to 0, so the innovation covariance is singular.
        code, err, out = track_rows(tmp_path, capsys, "0.0,0.0,1e-130,1e-170,0.9,0")
        assert code == 1
        assert err == "error[numeric]: Matrix is not positive definite\n"
        assert not out.exists()


def alternating_embeddings(tmp_path, value: str, frames: int = 5) -> tuple[Path, Path]:
    """One box in each of `frames` frames, its embedding (value, 0) and
    (-value, 0) in turn: (detections, embeddings) paths."""
    det, emb = tmp_path / "dets.csv", tmp_path / "embs.csv"
    det.write_text(formats.DETECTION_HEADER + "\n"
                   + "".join(f"{f},0,100.0,50.0,30.0,60.0,0.9,0\n" for f in range(frames)))
    emb.write_text("frame,det_id,e0,e1\n"
                   + "".join(f"{f},0,{'-' * (f % 2)}{value},0\n" for f in range(frames)))
    return det, emb


class TestEmbeddingBound:
    """An embedding value past geometry.EMBEDDING_LIMIT (1e100) is one
    error[format] line; once the appearance cost and the association
    overflowed with RuntimeWarnings and the run exited 0."""

    RANGE = "every embedding value must be within [-1e+100, 1e+100]"

    def test_track(self, tmp_path, capsys):
        det, emb = alternating_embeddings(tmp_path, "1e300")
        out = tmp_path / "t.csv"
        argv = ["track", "--detections", str(det), "--embeddings", str(emb), "--output", str(out)]
        assert format_error(capsys, argv) == (
            f"error[format]: {emb}:2: embedding value 1e+300 out of range: {self.RANGE}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("parallel", [False, True], ids=["sequential", "parallel"])
    def test_count(self, tmp_path, capsys, parallel):
        scn = tmp_path / "scn"
        scn.mkdir()
        det, emb = alternating_embeddings(scn, "1e300")
        det.rename(scn / "detections_cam0.csv")
        emb.rename(scn / "embeddings_cam0.csv")
        out = tmp_path / "r.json"
        argv = ["count", "--scenario", str(scn), "--output", str(out)]
        assert format_error(capsys, argv + (["--parallel"] if parallel else [])) == (
            f"error[format]: {scn / 'embeddings_cam0.csv'}:2: embedding value 1e+300 out of "
            f"range: {self.RANGE}\n"
        )
        assert not out.exists()

    def test_associate(self, tmp_path, capsys):
        tracks = tmp_path / "tracks"
        tracks.mkdir()
        entries = [{**sidecar_entry(track_id), "mean_embedding": [sign * 1e300, 0]}
                   for track_id, sign in ((1, 1), (2, -1))]
        sidecar = tracks / "cam0.tracklets.json"
        sidecar.write_text(json.dumps({"camera_id": 0, "tracklets": entries}))
        out = tmp_path / "r.json"
        argv = ["associate", "--tracks", str(tracks), "--method", "both", "--output", str(out)]
        assert format_error(capsys, argv) == (
            f"error[format]: {sidecar}: camera 0, track 1: mean_embedding entry 0: "
            f"embedding value 1e+300 out of range: {self.RANGE}\n"
        )
        assert not out.exists()

    def test_sidecar_names_the_entry(self, tmp_path, capsys):
        tracks = tmp_path / "tracks"
        path = write_sidecar(tracks, 3, "[0.5, 1.0, -2e100]")
        argv = ["associate", "--tracks", str(tracks), "--output", str(tmp_path / "r.json")]
        assert format_error(capsys, argv) == (
            f"error[format]: {path}: camera 3, track 1: mean_embedding entry 2: "
            f"embedding value -2e+100 out of range: {self.RANGE}\n"
        )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_values_at_the_bound_track_and_associate_without_warning(self, tmp_path, capsys):
        det, emb = alternating_embeddings(tmp_path, "1e100")
        tracks = tmp_path / "tracks"
        tracks.mkdir()
        out = tracks / "cam0.csv"
        assert main(["track", "--detections", str(det), "--embeddings", str(emb),
                     "--output", str(out), "--config", "study1"]) == 0
        assert len(out.read_text().splitlines()) > 1
        write_sidecar(tracks, 1, "[-1e100, 1e100]")
        assert main(["associate", "--tracks", str(tracks), "--method", "both",
                     "--output", str(tmp_path / "r.json")]) == 0


def spoil_byte(path: Path, line: int) -> int:
    """Replace the second byte of the given line (0 is the header) with
    0xff; returns the byte's position in the file."""
    data = bytearray(path.read_bytes())
    start = 0
    for _ in range(line):
        start = data.index(b"\n", start) + 1
    data[start + 1] = 0xFF
    path.write_bytes(bytes(data))
    return start + 1


def undecodable(path: Path, position: int) -> str:
    return (f"error[format]: {path}: 'utf-8' codec can't decode byte 0xff in position "
            f"{position}: invalid start byte\n")


class TestUndecodableCsv:
    """A detections or embeddings file that is not UTF-8 is a format error
    that names the file, with the bad byte's position counted from the
    file's start, in its header or in a data row."""

    @pytest.mark.parametrize("kind", ["detections", "embeddings"])
    @pytest.mark.parametrize("line", [0, 1, 150], ids=["header", "first-row", "later-row"])
    def test_track(self, tmp_path, capsys, kind, line):
        scn = simulate(tmp_path, cameras=1, identities=4, frames=60, embedding_dim=4)
        det, emb = scn / "detections_cam0.csv", scn / "embeddings_cam0.csv"
        position = spoil_byte(scn / f"{kind}_cam0.csv", line)
        out = tmp_path / "t.csv"
        assert main(["track", "--detections", str(det), "--embeddings", str(emb),
                     "--output", str(out)]) == 1
        assert capsys.readouterr().err == undecodable(scn / f"{kind}_cam0.csv", position)
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["detections", "embeddings"])
    @pytest.mark.parametrize("line", [0, 150], ids=["header", "later-row"])
    def test_count(self, tmp_path, capsys, kind, line):
        scn = simulate(tmp_path, cameras=2, identities=4, frames=60, embedding_dim=4)
        bad = scn / f"{kind}_cam1.csv"
        position = spoil_byte(bad, line)
        argv = ["count", "--scenario", str(scn), "--output", str(tmp_path / "r.json")]
        for extra in ([], ["--parallel"]):
            assert main(argv + extra) == 1
            assert capsys.readouterr().err == undecodable(bad, position)
            assert not (tmp_path / "r.json").exists()


def fail_camera(monkeypatch, failures):
    """Patch process_camera so camera k runs failures[k]() instead; the
    other cameras run as usual. A --parallel worker, forked after the
    patch, inherits it."""
    run = pipeline.process_camera

    def process_camera(camera_id, *args):
        if camera_id in failures:
            failures[camera_id]()
        return run(camera_id, *args)

    monkeypatch.setattr(pipeline, "process_camera", process_camera)


def out_of_memory():
    raise MemoryError("Unable to allocate 146. TiB for an array with shape (10000000000000, 2)")


def bad_value():
    raise ValueError("a bad value")


class TestResourceErrors:
    """A lost worker and a failed allocation are one error[resource] line
    and exit 1, and no results file or output directory is written."""

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the workers inherit the patch only when forked")
    def test_dead_worker(self, tmp_path, capsys, monkeypatch):
        scn = simulate(tmp_path, cameras=3, identities=2, frames=20, embedding_dim=4)
        fail_camera(monkeypatch, {1: lambda: os._exit(9)})  # as if killed
        out = tmp_path / "r.json"
        assert main(["count", "--scenario", str(scn), "--parallel", "--output", str(out)]) == 1
        # Camera 0's result is lost too unless it came back before the pool broke.
        assert re.fullmatch(r"error\[resource\]: camera [01]: result lost: a worker process ended "
                            r"abruptly \(killed, or out of memory\)\n", capsys.readouterr().err)
        assert not out.exists()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("parallel", [[], ["--parallel"]], ids=["sequential", "parallel"])
    @pytest.mark.parametrize("first", ["memory", "value"])
    def test_failed_allocation_in_a_camera(self, tmp_path, capsys, monkeypatch, parallel, first):
        # The first failing camera's error is reported, whichever kind it is.
        scn = simulate(tmp_path, cameras=3, identities=2, frames=20, embedding_dim=4)
        if first == "memory":
            fail_camera(monkeypatch, {1: out_of_memory, 2: bad_value})
            want = ("error[resource]: Unable to allocate 146. TiB for an array with shape "
                    "(10000000000000, 2)\n")
        else:
            fail_camera(monkeypatch, {1: bad_value, 2: out_of_memory})
            want = "error[input]: a bad value\n"
        out = tmp_path / "r.json"
        assert main(["count", "--scenario", str(scn), "--output", str(out), *parallel]) == 1
        assert capsys.readouterr().err == want
        assert not out.exists()

    def test_failed_allocation_in_simulate(self, tmp_path, capsys, monkeypatch):
        def generate(cfg):
            raise MemoryError  # numpy's message is not always there

        monkeypatch.setattr(cli, "generate", generate)
        out = tmp_path / "scn"
        assert main(["simulate", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error[resource]: out of memory\n"
        assert not out.exists()
