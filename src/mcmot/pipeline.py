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
from .association import (
    AssociationConfig,
    Cluster,
    associate_multicamera,
    count_unique,
)
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
    unique_count: int
    method_counts: Optional[dict[str, int]]
    frames_processed: int
    wall_time_s: float
    report: object = None

    @property
    def effective_fps(self) -> float:
        return self.frames_processed / self.wall_time_s if self.wall_time_s > 0 else float("inf")


def _prune_clusters(clusters: list[Cluster], surviving: set[tuple[int, int]]) -> list[Cluster]:
    """Drop refined-away members from clusters, then empty clusters; renumber."""
    out: list[Cluster] = []
    for c in clusters:
        kept = [(i, m) for i, m in enumerate(c.members) if m in surviving]
        if not kept:
            continue
        c.members = [m for _, m in kept]
        if c.member_embeddings:
            c.member_embeddings = [c.member_embeddings[i] for i, _ in kept]
            c.recompute_centroid()
        out.append(c)
    for i, c in enumerate(out):
        c.global_id = i + 1
    return out


def refined_keys(
    camera_tracklets: Mapping[int, Sequence[Tracklet]], cfg: PipelineConfig
) -> set[tuple[int, int]]:
    """(camera_id, track_id) of every tracklet that survives refinement."""
    all_tracklets = [t for cam in sorted(camera_tracklets) for t in camera_tracklets[cam]]
    return {(t.camera_id, t.track_id) for t in refine(all_tracklets, cfg.refine)}


def associate_and_refine(
    camera_tracklets: Mapping[int, Sequence[Tracklet]],
    cfg: PipelineConfig,
    method: Optional[str] = None,
    surviving: Optional[set[tuple[int, int]]] = None,
) -> tuple[list[Cluster], int]:
    """Cluster tracklets, apply output refinement, and count unique persons.

    `surviving` is refined_keys(camera_tracklets, cfg), computed here when
    not given; it does not depend on the method.
    """
    acfg = cfg.association
    if method is not None:
        acfg = AssociationConfig(
            method=method, threshold=acfg.threshold, intra_first=acfg.intra_first
        )
    clusters = associate_multicamera(camera_tracklets, acfg)
    if surviving is None:
        surviving = refined_keys(camera_tracklets, cfg)
    clusters = _prune_clusters(clusters, surviving)
    return clusters, count_unique(clusters)


def associate_methods(
    camera_tracklets: Mapping[int, Sequence[Tracklet]],
    cfg: PipelineConfig,
    methods: Sequence[str],
) -> tuple[list[Cluster], Optional[dict[str, int]]]:
    """Associate once per method, refining once for all of them.

    The first method provides the clustering. The per-method unique counts
    are returned only when more than one method ran (side-by-side report);
    otherwise the counts are None.
    """
    surviving = refined_keys(camera_tracklets, cfg)
    clusters: list[Cluster] = []
    counts: dict[str, int] = {}
    for i, m in enumerate(methods):
        cl, counts[m] = associate_and_refine(camera_tracklets, cfg, method=m, surviving=surviving)
        if i == 0:
            clusters = cl
    return clusters, counts if len(methods) > 1 else None


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

    if methods is None:
        methods = [cfg.association.method]
    clusters, counts = associate_methods(camera_tracklets, cfg, methods)
    wall = time.perf_counter() - start

    return PipelineResult(
        camera_tracklets=camera_tracklets,
        clusters=clusters,
        unique_count=len(clusters),
        method_counts=counts,
        frames_processed=sum(r.frames_processed for r in runs),
        wall_time_s=wall,
    )
