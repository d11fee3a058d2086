"""Command-line pipeline driver.

Subcommands: simulate (write a synthetic scenario), track (one camera's
detections to tracks), associate (tracklet files to global identities),
eval (results vs. truth metrics), count (full pipeline on a scenario
directory). Exit code 0 on success; on failure a machine-parsable
``error[<category>]: <message>`` line goes to stderr and the exit code is 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import formats
from .config import PRESETS, load_config
from .errors import ConfigError, ResourceError
from .formats import FormatError
from .pipeline import (CameraFiles, PipelineResult, associate_and_refine, fix_malloc_thresholds,
                       process_camera, run_pipeline)
from .refine import (
    ConfusionCounts,
    cluster_identity_claims,
    count_confusion,
    match_tracklets_to_identities,
)
from .sim import GroundTruth, generate, scenario_from_dict, scenario_to_dict
from .tracker import Tracklet

# CLI method names: "voting" is euclidean_voting (greedy clustering followed
# by the majority-vote merge); "both" reports euclidean and euclidean_voting
# side by side with euclidean providing the primary clustering. Without
# --method, the config's association.method runs.
_CLI_METHODS = {
    "euclidean": ["euclidean"],
    "voting": ["euclidean_voting"],
    "both": ["euclidean", "euclidean_voting"],
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.func in (_cmd_simulate, _cmd_track, _cmd_count):
        fix_malloc_thresholds()  # associate and eval free no per-camera arrays
    try:
        return args.func(args)
    except ConfigError as exc:
        return _fail("config", exc)
    except FormatError as exc:
        return _fail("format", exc)
    except np.linalg.LinAlgError as exc:
        return _fail("numeric", exc)
    except ValueError as exc:
        return _fail("input", exc)
    except OSError as exc:
        return _fail("io", exc)
    except (MemoryError, ResourceError) as exc:
        return _fail("resource", str(exc) or "out of memory")


def _fail(category: str, exc: object) -> int:
    print(f"error[{category}]: {exc}", file=sys.stderr)
    return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mcmot", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic multi-camera scenario")
    p.add_argument("--config", help="scenario config JSON (defaults used if omitted)")
    p.add_argument("--seed", type=int, help="override the scenario seed")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("track", help="track one camera's detection file")
    p.add_argument("--detections", required=True)
    p.add_argument("--embeddings", help="embedding sidecar CSV keyed by (frame, det_id)")
    p.add_argument("--config", help=f"preset {sorted(PRESETS)} or config JSON path")
    p.add_argument("--camera-id", type=int, default=0)
    p.add_argument(
        "--output",
        required=True,
        help="track CSV path (a .tracklets.json sidecar is written next to it)",
    )
    p.add_argument("--frame-stride", type=int, help="override the config frame stride")
    p.add_argument("--frames", type=int, help="total stream length; default: last frame + 1")
    p.set_defaults(func=_cmd_track)

    p = sub.add_parser("associate", help="associate tracklet files across cameras")
    p.add_argument("--tracks", required=True, help="directory of *.tracklets.json files")
    p.add_argument("--method", choices=sorted(_CLI_METHODS), help="association method")
    p.add_argument("--threshold", type=float, help="override the association distance threshold")
    p.add_argument("--config", help=f"preset {sorted(PRESETS)} or config JSON path")
    p.add_argument("--output", required=True, help="results JSON path")
    p.add_argument("--timing-out", help="optional wall-time sidecar JSON")
    p.set_defaults(func=_cmd_associate)

    p = sub.add_parser("eval", help="score results files against truth files")
    p.add_argument("--results", required=True, nargs="+")
    p.add_argument("--truth", required=True, nargs="+")
    p.add_argument("--output", help="also write the report JSON here")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("count", help="full pipeline on a simulated scenario directory")
    p.add_argument("--scenario", required=True, help="directory written by 'simulate'")
    p.add_argument("--config", help=f"preset {sorted(PRESETS)} or config JSON path")
    p.add_argument("--method", choices=sorted(_CLI_METHODS))
    p.add_argument("--threshold", type=float)
    p.add_argument("--parallel", action="store_true", help="one worker process per camera")
    p.add_argument("--output", help="results JSON path")
    p.add_argument("--timing-out", help="optional wall-time sidecar JSON")
    p.set_defaults(func=_cmd_count)
    return parser


# ----------------------------------------------------------------------


def _cmd_simulate(args) -> int:
    out = Path(args.out)
    # A scenario's files from an earlier run would stay beside the new ones.
    if out.is_dir() and any(out.iterdir()):
        raise ValueError(f"{out}: the output directory is not empty")
    doc = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"scenario config file not found: {path}")
        doc = formats.read_json(path)
    if args.seed is not None:
        doc = dict(doc)
        doc["seed"] = args.seed
    cfg = scenario_from_dict(doc)

    truth, streams = generate(cfg)  # before the directory: a failure leaves none behind
    out.mkdir(parents=True, exist_ok=True)

    # Each float at its exact repr, not formats' 9 digits: simulate --config
    # <out>/scenario.json must regenerate this same tree.
    (out / "scenario.json").write_text(
        json.dumps(scenario_to_dict(cfg), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    formats.write_truth_json(out / "truth.json", truth)
    for cam, stream in sorted(streams.items()):
        formats.write_detections(out / f"detections_cam{cam}.csv", stream)
        formats.write_embeddings(out / f"embeddings_cam{cam}.csv", stream, cfg.embedding_dim)
    print(f"wrote scenario with {cfg.cameras} cameras, {cfg.identities} identities to {out}")
    return 0


def _override_config(cfg, threshold: Optional[float]):
    if threshold is not None:
        cfg = dataclasses.replace(
            cfg, association=dataclasses.replace(cfg.association, threshold=threshold)
        )
    return cfg


def _cmd_track(args) -> int:
    cfg = load_config(args.config)
    if args.frame_stride is not None:
        cfg = dataclasses.replace(
            cfg, tracker=dataclasses.replace(cfg.tracker, frame_stride=args.frame_stride)
        )
    files = CameraFiles(Path(args.detections), Path(args.embeddings) if args.embeddings else None)
    run = process_camera(args.camera_id, files, cfg, total_frames=args.frames)
    formats.write_tracks_csv(args.output, run.tracklets)
    formats.write_tracklets_json(
        formats.tracklet_sidecar_path(args.output), args.camera_id, run.tracklets
    )
    print(
        f"camera {args.camera_id}: {run.frames_processed} frames, "
        f"{len(run.tracklets)} tracklets -> {args.output}"
    )
    return 0


def _cmd_associate(args) -> int:
    cfg = _override_config(load_config(args.config), args.threshold)
    tracks_dir = Path(args.tracks)
    files = sorted(tracks_dir.glob("*.tracklets.json"))
    if not files:
        raise FormatError(f"no *.tracklets.json files found in {tracks_dir}")
    camera_tracklets: dict[int, list[Tracklet]] = {}
    source: dict[tuple[int, int], Path] = {}  # (camera_id, track_id) -> sidecar
    for f in files:
        camera_id, tracklets = formats.read_tracklets_json(f)
        for t in tracklets:
            key = (camera_id, t.track_id)
            if key in source:
                raise FormatError(
                    f"{f}: tracklet (camera {camera_id}, track {t.track_id}) is also in "
                    f"{source[key]}"
                )
            source[key] = f
        formats.check_tracklet_boxes(f, tracklets)
        camera_tracklets.setdefault(camera_id, []).extend(tracklets)

    start = time.perf_counter()
    clusters, counts = associate_and_refine(camera_tracklets, cfg, _CLI_METHODS.get(args.method))
    wall = time.perf_counter() - start

    frames_processed = sum(
        len(set().union(*(t.frames.tolist() for t in tracklets)))
        for tracklets in camera_tracklets.values()
    )
    return _report_run(
        args, PipelineResult(camera_tracklets, clusters, counts, frames_processed, wall)
    )


def _cmd_count(args) -> int:
    cfg = _override_config(load_config(args.config), args.threshold)
    scenario = Path(args.scenario)
    det_files = sorted(scenario.glob("detections_cam*.csv"))
    if not det_files:
        raise FormatError(f"no detections_cam*.csv files found in {scenario}")
    scenario_cfg = None
    scenario_json = scenario / "scenario.json"
    if scenario_json.exists():
        scenario_cfg = scenario_from_dict(formats.read_json(scenario_json))
    streams = {}
    for det_path in det_files:
        cam = formats.int_key(det_path, "camera", det_path.stem.removeprefix("detections_cam"))
        emb_path = scenario / f"embeddings_cam{cam}.csv"
        streams[cam] = CameraFiles(det_path, emb_path if emb_path.exists() else None)
    paired = {files.embeddings for files in streams.values()}
    for emb_path in sorted(scenario.glob("embeddings_cam*.csv")):
        if emb_path not in paired:
            raise FormatError(f"{emb_path}: no detections_cam<K>.csv matches this file")
    if scenario_cfg is not None:
        # A camera the scenario lacks, such as one a simulate with more
        # cameras left in the directory.
        n = scenario_cfg.cameras
        for cam in sorted(streams):
            if not 0 <= cam < n:
                raise FormatError(f"{streams[cam].detections}: camera {cam} is not one of the "
                                  f"{n} cameras (0 to {n - 1}) of {scenario_json}")

    result = run_pipeline(
        streams,
        cfg,
        parallel=args.parallel,
        total_frames=None if scenario_cfg is None else scenario_cfg.frames,
        methods=_CLI_METHODS.get(args.method),
    )
    return _report_run(args, result)


def _report_run(args, result: PipelineResult) -> int:
    """The finish of count and associate: the results file (with --output),
    the timing line and its --timing-out sidecar, then the count line."""
    if args.output:
        formats.write_results_json(args.output, formats.results_doc(
            result.camera_tracklets, result.clusters, result.method_counts, result.frames_processed
        ))
    frames, wall, fps = result.frames_processed, result.wall_time_s, result.effective_fps
    print(f"timing: frames={frames} wall={wall:.3f}s fps={fps:.1f}")
    if args.timing_out:
        formats.write_json(args.timing_out,
                           {"frames_processed": frames, "wall_time_s": wall, "effective_fps": fps})
    extra = f"  (by method: {result.method_counts})" if result.method_counts else ""
    print(f"unique_count: {result.unique_count}{extra}")
    return 0


def _truth_identity_labels(truth: GroundTruth, path: str) -> list[int]:
    labels = sorted(
        {identity for frames in truth.cameras.values() for entries in frames.values()
         for identity, _ in entries}
    )
    if not labels:
        return list(range(truth.identity_count))
    if len(labels) != truth.identity_count:
        raise FormatError(
            f"{path}: identity_count {truth.identity_count} does not match the "
            f"{len(labels)} identities appearing in frames"
        )
    return labels


def _evaluate_set(camera_tracklets, clusters, truth: GroundTruth, truth_path) -> ConfusionCounts:
    """Identity-level confusion for one camera set against its truth."""
    identity_map: dict = {}
    for cam in sorted(camera_tracklets):
        identity_map.update(
            match_tracklets_to_identities(camera_tracklets[cam], truth.cameras[cam])
        )
    claims = cluster_identity_claims(clusters, identity_map)
    return count_confusion(claims, _truth_identity_labels(truth, truth_path))


def _cmd_eval(args) -> int:
    if len(args.results) != len(args.truth):
        raise FormatError(
            f"got {len(args.results)} results files but {len(args.truth)} truth files"
        )
    per_set_pred: list[int] = []
    per_set_truth: list[int] = []
    tp = fp = fn = 0
    for res_path, truth_path in zip(args.results, args.truth):
        results = formats.read_results_json(res_path)
        truth = formats.read_truth_json(truth_path)
        res_cams = set(results.camera_tracklets)
        truth_cams = set(truth.cameras)
        if res_cams != truth_cams:
            raise FormatError(
                f"camera-set mismatch between {res_path} ({sorted(res_cams)}) "
                f"and {truth_path} ({sorted(truth_cams)})"
            )
        per_set_pred.append(results.unique_count)
        per_set_truth.append(truth.identity_count)
        conf = _evaluate_set(results.camera_tracklets, results.clusters, truth, truth_path)
        tp += conf.tp
        fp += conf.fp
        fn += conf.fn

    report = formats.count_report_doc(per_set_pred, per_set_truth, ConfusionCounts(tp, fp, fn))
    print(formats.json_text(report))
    if args.output:
        formats.write_json(args.output, report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
