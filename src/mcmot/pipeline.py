"""End-to-end drivers: per-camera tracking runs, cross-camera association with
refinement, and the optional per-camera parallel harness.

A camera is one unit of work: parse its files (when given as CameraFiles),
track its stream, export its tracklets. Workers own their tracker state
exclusively: per-camera runs are pure functions of (camera_id, stream,
config), so parallel and sequential execution produce bit-identical results,
and both report the first failing camera's error.
"""

from __future__ import annotations

import ctypes
import os
import sys
import time
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from . import formats
from .association import Cluster, associate_methods
from .config import PipelineConfig
from .errors import ResourceError
from .geometry import CameraStream, first_bad_detection, nms
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


def kept_count(total_frames: int, frame_keep: Optional[tuple[int, int]], stride: int) -> int:
    """Number of kept frames in [0, total_frames), without visiting them.

    The stride rule leaves the K multiples x = k * stride. Of those, the
    block rule keeps x iff x mod block < keep, and for 0 < keep <= block
    that indicator is floor(x / block) - floor((x + block - keep) / block) + 1,
    so the count is K plus two floor sums over k < K."""
    multiples = -(-max(total_frames, 0) // stride)
    if frame_keep is None:
        return multiples
    keep, block = frame_keep
    return (multiples + _floor_sum(multiples, block, stride, 0)
            - _floor_sum(multiples, block, stride, block - keep))


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """sum(floor((a * i + b) / m) for i in range(n)) for a, b >= 0 and
    m >= 1, in O(log m) steps of exact integer arithmetic."""
    total = 0
    while True:
        if a >= m:
            total += n * (n - 1) // 2 * (a // m)
            a %= m
        if b >= m:
            total += n * (b // m)
            b %= m
        top = a * n + b
        if top < m:
            return total
        n, b, m, a = top // m, top % m, a, m


def _next_kept(start: int, limit: int, frame_keep: Optional[tuple[int, int]], stride: int) -> int:
    """The first kept frame in [start, limit), or limit when there is none."""
    f = -(-start // stride) * stride
    if frame_keep is not None:
        keep, block = frame_keep
        while f < limit and f % block >= keep:
            f = -(-(f // block + 1) * block // stride) * stride  # the next block's first candidate
    return min(f, limit)


@dataclass(frozen=True)
class CameraFiles:
    """A camera's detections CSV and optional embeddings CSV, parsed by
    whichever process tracks the camera."""

    detections: Path
    embeddings: Optional[Path] = None


# What a camera's input may be: its columns or its files.
CameraSource = Union[CameraStream, CameraFiles]


def _checked(camera_id: int, source) -> CameraSource:
    """The source, if it is a CameraStream or CameraFiles; TypeError otherwise."""
    if not isinstance(source, (CameraStream, CameraFiles)):
        raise TypeError(f"camera {camera_id}: expected a CameraStream or CameraFiles, got "
                        f"{type(source).__name__}; convert a Detection list with "
                        "CameraStream.from_detections")
    return source


@dataclass(eq=False)
class CameraRun:
    camera_id: int
    tracklets: list[Tracklet]
    frames_processed: int


def process_camera(
    camera_id: int,
    source: CameraSource,
    cfg: PipelineConfig,
    total_frames: Optional[int] = None,
) -> CameraRun:
    """Track one camera's detection stream, given as columns or as files
    (parsed here), under the given config.

    Every kept frame index in [0, total_frames) is a tick of the stream
    clock, including empty ones, so track aging matches it. An empty frame
    is stepped only while a track is live: without one, stepping it would
    change nothing, so the run jumps to the next frame holding detections.
    Its cost follows the detections and the tracks' lifetimes, not the
    stream's length. total_frames defaults to one past the last detection's
    frame. A detection outside that range is an error (ValueError), never
    silently dropped.

    The confidence filter, the decimation, NMS and the split into frames
    each run once over the whole stream. The tracked rows' embeddings are
    then gathered once, and the tracker reads only those. Given files, the
    detections are read first and the tracked rows chosen from them; the
    embeddings file is then read a block at a time, keeping only those
    rows' vectors, so the file's whole matrix is never held.

    The detection and embedding rules also run once, over the whole stream:
    file ingest checks a camera's files, and _check_columns checks the
    float64 copies of columns, which are what the tracker tracks. The
    tracked rows are a subset of those rows, so Tracker.step skips its own
    pass of the rules.
    """
    _checked(camera_id, source)
    tcfg = cfg.tracker
    if isinstance(source, CameraFiles):
        stream = formats.read_detections(source.detections)
        rows = _tracked_rows(stream, cfg)
        embeddings = None
        if source.embeddings is not None:
            embeddings = formats.read_embeddings(source.embeddings, stream, rows).vectors
        total_frames = _frame_range(camera_id, stream.frame, total_frames)
        box, confidence = stream.box, stream.confidence
    else:
        stream = source
        total_frames = _frame_range(camera_id, stream.frame, total_frames)
        box, confidence, embeddings = _check_columns(camera_id, stream)
        rows = _tracked_rows(stream, cfg)
        embeddings = None if embeddings is None else embeddings[rows]
    det_frames, starts = np.unique(stream.frame[rows], return_index=True)
    det_frames, bounds = det_frames.tolist(), [*starts.tolist(), len(rows)]
    boxes, confidences = box[rows], confidence[rows]
    del source, stream, box, confidence  # the tracker reads only the gathered rows

    tracker = Tracker(tcfg, camera_id=camera_id)
    tracker._checked_stream = True
    f, i = -1, 0  # the last frame stepped; det_frames[i] is the next holding detections
    while i < len(det_frames) or len(tracker.table):
        next_det = det_frames[i] if i < len(det_frames) else total_frames
        # A live track ticks on every kept frame. Without one, an empty frame
        # would change nothing, so the run jumps to the next detections.
        if len(tracker.table):
            f = _next_kept(f + 1, next_det, cfg.frame_keep, tcfg.frame_stride)
        else:
            f = next_det
        if f == total_frames:
            break
        lo = hi = 0
        if f == next_det:
            lo, hi = bounds[i], bounds[i + 1]
            i += 1
        tracker.step(f, boxes[lo:hi], confidences[lo:hi],
                     None if embeddings is None else embeddings[lo:hi])

    tracklets = [
        t for t in tracker.export_tracklets() if t.mean_confidence >= cfg.export_confidence
    ]
    frames_processed = kept_count(total_frames, cfg.frame_keep, tcfg.frame_stride)
    return CameraRun(camera_id=camera_id, tracklets=tracklets, frames_processed=frames_processed)


def _frame_range(camera_id: int, frame: np.ndarray, total_frames: Optional[int]) -> int:
    """total_frames, by default one past the last detection's frame;
    ValueError for a detection outside [0, total_frames)."""
    if total_frames is None:
        total_frames = int(frame.max(initial=-1)) + 1
    outside = np.flatnonzero((frame < 0) | (frame >= total_frames))
    if outside.size:
        raise ValueError(
            f"camera {camera_id}: detection at frame {frame[outside[0]]} is outside the "
            f"stream's frames [0, {total_frames})"
        )
    return total_frames


def _tracked_rows(stream: CameraStream, cfg: PipelineConfig) -> np.ndarray:
    """The rows a camera tracks, in frame order: those the confidence filter
    and the decimation keep, less those NMS suppresses."""
    tcfg = cfg.tracker
    frame = stream.frame
    rows = np.flatnonzero(
        (stream.confidence >= cfg.detection_threshold)
        & (stream.confidence >= tcfg.min_confidence)
        & keep_frame(frame, cfg.frame_keep, tcfg.frame_stride)
    )
    rows = rows[np.argsort(frame[rows], kind="stable")]  # a no-op on a sorted stream
    if rows.size and tcfg.nms_threshold < 1.0:
        rows = rows[nms(stream.box[rows], stream.confidence[rows], tcfg.nms_threshold,
                        stream.class_id[rows], frame[rows])]
    return rows


def _check_columns(
    camera_id: int, stream: CameraStream
) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """The rules file ingest applies, over every row of columns given
    through the Python API: one length, then geometry.first_bad_detection.
    ValueError names the first bad row.

    The rules run on float64 copies of the box, confidence and embedding
    columns (the columns themselves when they are float64), and those
    copies are returned for the tracker: a value that keeps the rules in
    its own dtype need not keep them in float64.
    """
    n = len(stream.frame)
    columns = (stream.frame, stream.det_id, stream.box, stream.confidence, stream.class_id)
    shapes = [np.shape(c) for c in columns]
    embeddings = stream.embeddings
    e_shape = None if embeddings is None else np.shape(embeddings)
    if shapes != [(n,), (n,), (n, 4), (n,), (n,)] or (
        e_shape is not None and (len(e_shape) != 2 or e_shape[0] != n)
    ):
        raise ValueError(
            f"camera {camera_id}: frame, det_id, box (n, 4), confidence, class_id and "
            f"embeddings (n, D) or None must be columns of one length n, got shapes "
            f"{', '.join(map(str, shapes))} and {e_shape}"
        )
    box = np.asarray(stream.box, dtype=np.float64)
    confidence = np.asarray(stream.confidence, dtype=np.float64)
    if embeddings is not None:
        embeddings = np.asarray(embeddings, dtype=np.float64)
    found = first_bad_detection(box, confidence, embeddings)
    if found is not None:
        raise ValueError(f"camera {camera_id}: detection {found[0]}: {found[1]}")
    return box, confidence, embeddings


def run_cameras(
    streams: Mapping[int, CameraSource],
    cfg: PipelineConfig,
    parallel: bool = False,
    total_frames: Optional[int] = None,
) -> list[CameraRun]:
    """Run every camera in camera order, optionally one worker process per
    camera.

    Every camera's source is checked before any camera runs: a source
    that is neither a CameraStream nor CameraFiles is a TypeError. A worker
    gets only its camera's columns or file paths, and returns only its
    CameraRun. Either way the error raised is that of the first camera, in
    camera order, that fails. A worker that ends abruptly breaks the pool,
    which loses the results of every camera not yet returned: that is a
    ResourceError naming the first of them.
    """
    cams = sorted(streams)
    sources = [_checked(cam, streams[cam]) for cam in cams]
    if parallel and len(cams) > 1:
        # Imported here: the pool's modules cost every other command start-up time.
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        runs: list[CameraRun] = []
        with ProcessPoolExecutor(max_workers=min(len(cams), os.cpu_count() or 1)) as pool:
            try:
                for run in pool.map(_run_camera, cams, sources, repeat(cfg), repeat(total_frames)):
                    runs.append(run)
            except BrokenProcessPool as exc:  # runs holds the results returned before it broke
                raise ResourceError(f"camera {cams[len(runs)]}: result lost: a worker process "
                                    "ended abruptly (killed, or out of memory)") from exc
        return runs
    return [_run_camera(cam, source, cfg, total_frames) for cam, source in zip(cams, sources)]


def _run_camera(
    camera_id: int, source: CameraSource, cfg: PipelineConfig,
    total_frames: Optional[int],
) -> CameraRun:
    """process_camera, then the free pages inside glibc's heap back to the
    OS (malloc_trim; a no-op without glibc).

    A camera's tracker frees arrays of some MB, below the 4 MiB mmap
    threshold the CLI sets, when process_camera returns. While a block still
    in use sits above them, the heap cannot shrink, and they stayed resident
    through the next camera's parse: the peak RSS of a count moved by up to
    4.6 MB with nothing but the heap's layout changed.
    """
    run = process_camera(camera_id, source, cfg, total_frames)
    if sys.platform.startswith("linux"):
        try:
            ctypes.CDLL(None).malloc_trim(0)
        except (OSError, AttributeError):
            pass  # not glibc
    return run


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
    """Refine once, associate under every method (default: the configured
    one) in one associate_methods call, and drop refined-away members and
    then emptied clusters.

    Returns the first method's clusters, renumbered from 1, and the number
    of clusters per method when more than one method ran (None otherwise).
    """
    all_tracklets = [t for cam in sorted(camera_tracklets) for t in camera_tracklets[cam]]
    surviving = {(t.camera_id, t.track_id) for t in refine(all_tracklets, cfg.refine)}
    methods = methods or [cfg.association.method]
    per_method: dict[str, list[Cluster]] = {}
    for method, clusters in zip(methods, associate_methods(camera_tracklets, cfg.association,
                                                           methods)):
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
