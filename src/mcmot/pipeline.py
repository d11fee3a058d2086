"""End-to-end drivers: per-camera tracking runs, cross-camera association with
refinement, and the optional per-camera parallel harness.

Workers own their tracker state exclusively: per-camera runs are pure
functions of (camera_id, detections, config), so parallel and sequential
execution produce bit-identical results.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .association import (
    AssociationConfig,
    Cluster,
    associate_multicamera,
    count_unique,
)
from .config import PipelineConfig
from .geometry import Detection, nms
from .refine import refine
from .tracker import Tracker, Tracklet


def keep_frame(frame: int, frame_keep: Optional[tuple[int, int]], stride: int) -> bool:
    """Decimation rule: block rule (keep first m of every n) AND stride rule."""
    if frame_keep is not None:
        keep, block = frame_keep
        if frame % block >= keep:
            return False
    return frame % stride == 0


@dataclass(eq=False)
class CameraRun:
    camera_id: int
    tracklets: list[Tracklet]
    frames_processed: int


def process_camera(
    camera_id: int,
    detections: Sequence[Detection],
    cfg: PipelineConfig,
    total_frames: Optional[int] = None,
) -> CameraRun:
    """Track one camera's detection stream under the given config.

    Every kept frame index in [0, total_frames) is stepped, including empty
    ones, so track aging matches the stream clock. total_frames defaults to
    one past the last detection's frame. A detection outside that range is
    an error (ValueError), never silently dropped.
    """
    tcfg = cfg.tracker
    if total_frames is None:
        total_frames = max((d.frame for d in detections), default=-1) + 1

    by_frame: dict[int, list[Detection]] = {}
    for d in detections:
        if not 0 <= d.frame < total_frames:
            raise ValueError(
                f"camera {camera_id}: detection at frame {d.frame} is outside the "
                f"stream's frames [0, {total_frames})"
            )
        if d.confidence < cfg.detection_threshold or d.confidence < tcfg.min_confidence:
            continue
        by_frame.setdefault(d.frame, []).append(d)

    tracker = Tracker(tcfg, camera_id=camera_id)
    frames_processed = 0
    for frame in range(total_frames):
        if not keep_frame(frame, cfg.frame_keep, tcfg.frame_stride):
            continue
        dets = by_frame.get(frame, [])
        if dets and tcfg.nms_threshold < 1.0:
            dets = nms(dets, tcfg.nms_threshold)
        tracker.step(frame, dets)
        frames_processed += 1

    tracklets = [
        t for t in tracker.export_tracklets() if t.mean_confidence >= cfg.export_confidence
    ]
    return CameraRun(camera_id=camera_id, tracklets=tracklets, frames_processed=frames_processed)


def _process_camera_star(args) -> CameraRun:
    return process_camera(*args)


def run_cameras(
    streams: Mapping[int, Sequence[Detection]],
    cfg: PipelineConfig,
    parallel: bool = False,
    total_frames: Optional[int] = None,
) -> list[CameraRun]:
    """Run every camera, optionally one worker process per camera."""
    jobs = [(cam, streams[cam], cfg, total_frames) for cam in sorted(streams)]
    if parallel and len(jobs) > 1:
        # Imported here: the pool's modules cost every other command start-up time.
        from concurrent.futures import ProcessPoolExecutor

        workers = min(len(jobs), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_process_camera_star, jobs))
    return [_process_camera_star(job) for job in jobs]


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
    streams: Mapping[int, Sequence[Detection]],
    cfg: PipelineConfig,
    parallel: bool = False,
    total_frames: Optional[int] = None,
    methods: Optional[Sequence[str]] = None,
) -> PipelineResult:
    """Full run: track each camera, associate, refine, count.

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
