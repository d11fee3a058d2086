"""End-to-end drivers: per-camera tracking runs, cross-camera association with
refinement, and the optional per-camera parallel harness.

A camera is one unit of work: parse its files (when given as CameraFiles),
track its stream, export its tracklets. Workers own their tracker state
exclusively: per-camera runs are pure functions of (camera_id, stream,
config), so parallel and sequential execution produce bit-identical results,
and both report the first failing camera's error.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from . import formats
from .association import Cluster, associate_multicamera
from .config import PipelineConfig
from .geometry import CameraStream, Detection, nms
from .refine import refine
from .tracker import Tracker, Tracklet


def keep_frame(frame, frame_keep: Optional[tuple[int, int]], stride: int):
    """Decimation rule: block rule (keep first m of every n) AND stride rule.

    Takes a frame index or an array of them."""
    kept = frame % stride == 0
    if frame_keep is not None:
        keep, block = frame_keep
        kept = kept & (frame % block < keep)
    return kept


@dataclass(frozen=True)
class CameraFiles:
    """A camera's detections CSV and optional embeddings CSV, parsed by
    whichever process tracks the camera."""

    detections: Path
    embeddings: Optional[Path] = None

    def load(self) -> CameraStream:
        stream = formats.read_detections(self.detections)
        if self.embeddings is None:
            return stream
        embeddings = formats.read_embeddings(self.embeddings)
        return replace(stream, embeddings=formats.merge_embeddings(stream, embeddings))


# What a camera's input may be: a Detection list (the simulator, the Python
# API), its columns, or its files.
CameraSource = Union[Sequence[Detection], CameraStream, CameraFiles]


@dataclass(eq=False)
class CameraRun:
    camera_id: int
    tracklets: list[Tracklet]
    frames_processed: int


def process_camera(
    camera_id: int,
    stream: CameraStream,
    cfg: PipelineConfig,
    total_frames: Optional[int] = None,
) -> CameraRun:
    """Track one camera's detection stream under the given config.

    Every kept frame index in [0, total_frames) is stepped, including empty
    ones, so track aging matches the stream clock. total_frames defaults to
    one past the last detection's frame. A detection outside that range is
    an error (ValueError), never silently dropped.

    The confidence filter, the decimation, NMS and the split into frames
    each run once over the whole stream.
    """
    tcfg = cfg.tracker
    frame = stream.frame
    if total_frames is None:
        total_frames = int(frame.max(initial=-1)) + 1
    outside = np.flatnonzero((frame < 0) | (frame >= total_frames))
    if outside.size:
        raise ValueError(
            f"camera {camera_id}: detection at frame {frame[outside[0]]} is outside the "
            f"stream's frames [0, {total_frames})"
        )

    frames = [f for f in range(total_frames) if keep_frame(f, cfg.frame_keep, tcfg.frame_stride)]
    rows = np.flatnonzero(
        (stream.confidence >= cfg.detection_threshold)
        & (stream.confidence >= tcfg.min_confidence)
        & keep_frame(frame, cfg.frame_keep, tcfg.frame_stride)
    )
    rows = rows[np.argsort(frame[rows], kind="stable")]  # a no-op on a sorted stream
    if rows.size and tcfg.nms_threshold < 1.0:
        rows = rows[nms(stream.box[rows], stream.confidence[rows], tcfg.nms_threshold,
                        stream.class_id[rows], frame[rows])]
    row_frame = frame[rows]
    bounds = zip(np.searchsorted(row_frame, frames).tolist(),
                 np.searchsorted(row_frame, frames, side="right").tolist())
    boxes, confidences = stream.box[rows], stream.confidence[rows]

    tracker = Tracker(tcfg, camera_id=camera_id)
    for f, (lo, hi) in zip(frames, bounds):
        embeddings = None if stream.embeddings is None else stream.embeddings[rows[lo:hi]]
        tracker.step(f, boxes[lo:hi], confidences[lo:hi], embeddings)

    tracklets = [
        t for t in tracker.export_tracklets() if t.mean_confidence >= cfg.export_confidence
    ]
    return CameraRun(camera_id=camera_id, tracklets=tracklets, frames_processed=len(frames))


def _run_camera(
    job: tuple[int, Union[CameraStream, CameraFiles], PipelineConfig, Optional[int]]
) -> CameraRun:
    """One camera's unit of work: parse its files if given, then track it."""
    camera_id, source, cfg, total_frames = job
    if isinstance(source, CameraFiles):
        source = source.load()
    return process_camera(camera_id, source, cfg, total_frames)


def _columns(source: CameraSource) -> Union[CameraStream, CameraFiles]:
    """A Detection list as columns; columns and files as they are."""
    if isinstance(source, (CameraStream, CameraFiles)):
        return source
    return CameraStream.from_detections(source)


def run_cameras(
    streams: Mapping[int, CameraSource],
    cfg: PipelineConfig,
    parallel: bool = False,
    total_frames: Optional[int] = None,
) -> list[CameraRun]:
    """Run every camera in camera order, optionally one worker process per
    camera.

    Every Detection list is converted to a CameraStream here, in camera
    order, before any camera runs, so a malformed list is reported first
    and a worker never receives Detection objects. A worker gets only its
    camera's columns or file paths, and returns only its CameraRun. Either
    way the error raised is that of the first camera, in camera order, that
    fails.
    """
    jobs = [(cam, _columns(streams[cam]), cfg, total_frames) for cam in sorted(streams)]
    if parallel and len(jobs) > 1:
        # Imported here: the pool's modules cost every other command start-up time.
        from concurrent.futures import ProcessPoolExecutor

        workers = min(len(jobs), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_run_camera, jobs))
    return [_run_camera(job) for job in jobs]


@dataclass(eq=False)
class PipelineResult:
    camera_tracklets: dict[int, list[Tracklet]]
    clusters: list[Cluster]
    method_counts: Optional[dict[str, int]]
    frames_processed: int
    wall_time_s: float

    @property
    def unique_count(self) -> int:
        return len(self.clusters)

    @property
    def effective_fps(self) -> float:
        return self.frames_processed / self.wall_time_s if self.wall_time_s > 0 else float("inf")


def associate_and_refine(
    camera_tracklets: Mapping[int, Sequence[Tracklet]],
    cfg: PipelineConfig,
    methods: Optional[Sequence[str]] = None,
) -> tuple[list[Cluster], Optional[dict[str, int]]]:
    """Refine once, associate once per method (default: the configured
    one), and drop refined-away members and then emptied clusters.

    Returns the first method's clusters, renumbered from 1, and the number
    of clusters per method when more than one method ran (None otherwise).
    """
    all_tracklets = [t for cam in sorted(camera_tracklets) for t in camera_tracklets[cam]]
    surviving = {(t.camera_id, t.track_id) for t in refine(all_tracklets, cfg.refine)}
    methods = methods or [cfg.association.method]
    per_method: dict[str, list[Cluster]] = {}
    for method in methods:
        clusters = associate_multicamera(camera_tracklets, replace(cfg.association, method=method))
        kept = [[m for m in c.members if m in surviving] for c in clusters]
        per_method[method] = [
            Cluster(global_id=i + 1, members=members)
            for i, members in enumerate(m for m in kept if m)
        ]
    counts = {m: len(c) for m, c in per_method.items()}
    return per_method[methods[0]], counts if len(methods) > 1 else None


def run_pipeline(
    streams: Mapping[int, CameraSource],
    cfg: PipelineConfig,
    parallel: bool = False,
    total_frames: Optional[int] = None,
    methods: Optional[Sequence[str]] = None,
) -> PipelineResult:
    """Full run: track each camera (parsing its files, for CameraFiles),
    associate, refine, count.

    `methods` requests side-by-side counts; the first entry provides the
    primary clustering.
    """
    start = time.perf_counter()
    runs = run_cameras(streams, cfg, parallel=parallel, total_frames=total_frames)
    camera_tracklets = {r.camera_id: r.tracklets for r in runs}

    clusters, counts = associate_and_refine(camera_tracklets, cfg, methods)
    wall = time.perf_counter() - start

    return PipelineResult(
        camera_tracklets=camera_tracklets,
        clusters=clusters,
        method_counts=counts,
        frames_processed=sum(r.frames_processed for r in runs),
        wall_time_s=wall,
    )
