"""Single-camera online tracker: lifecycle, appearance galleries, tracklet export.

Per frame: predict all live tracks, associate confirmed tracks to detections
by appearance (Mahalanobis-gated, age-ordered cascade), associate the rest by
IoU, then apply the lifecycle rules (confirmation after n_init hits, deletion
after max_age missed frames). Detections without embeddings are tracked
motion-only: the appearance stage is skipped and every live track competes in
the IoU stage.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .assignment import INFEASIBLE, gate, iou_matching, matching_cascade, solve_assignment
from .geometry import BoundingBox, Detection
from .kalman import CHI2_GATE_95, KalmanFilter, KalmanState, NoiseProfile


@dataclass(frozen=True)
class TrackerConfig:
    """Per-camera tracking hyperparameters.

    min_confidence and nms_threshold describe the ingest filtering the caller
    applies before step(); frame_stride describes the stream decimation.
    nms_threshold 1.0 disables suppression.
    """

    min_confidence: float = 0.0
    nms_threshold: float = 1.0
    max_age: int = 30
    n_init: int = 3
    nn_budget: int = 100
    max_appearance_distance: float = 0.2
    max_iou_distance: float = 0.7
    appearance_metric: str = "euclidean"
    frame_stride: int = 1
    single_shot_matching: bool = False

    def __post_init__(self) -> None:
        if self.max_age < 1 or self.n_init < 1 or self.nn_budget < 1 or self.frame_stride < 1:
            raise ValueError("max_age, n_init, nn_budget and frame_stride must be >= 1")
        if self.appearance_metric not in ("euclidean", "cosine"):
            raise ValueError(f"unknown appearance metric: {self.appearance_metric!r}")


class TrackStatus(enum.Enum):
    TENTATIVE = "tentative"
    CONFIRMED = "confirmed"
    DELETED = "deleted"


class Gallery:
    """Appearance-embedding ring buffer: once the budget is reached, a new
    embedding overwrites the oldest. Backed by one preallocated matrix so the
    per-frame cost gather is a view, not a copy."""

    def __init__(self, embeddings: Sequence[np.ndarray] = ()):
        self._buf: Optional[np.ndarray] = None
        self._len = 0
        self._pos = 0
        for e in embeddings:
            self.append(e, budget=max(len(embeddings), 1))

    def append(self, e: np.ndarray, budget: int) -> None:
        if self._buf is None:
            self._buf = np.empty((min(8, budget), len(e)))
        if self._len == self._buf.shape[0] < budget:
            grown = np.empty((min(2 * self._buf.shape[0], budget), self._buf.shape[1]))
            grown[: self._len] = self._buf[: self._len]
            self._buf = grown
        if self._len < budget:
            self._buf[self._len] = e
            self._len += 1
            self._pos = self._len % budget
        else:
            self._buf[self._pos] = e
            self._pos = (self._pos + 1) % budget

    def matrix(self) -> np.ndarray:
        """(len, D) view of the stored embeddings, in ring order."""
        if self._buf is None:
            return np.empty((0, 0))
        return self._buf[: self._len]

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        return iter(self.matrix())


@dataclass(eq=False)
class Track:
    """Identity-bearing lifecycle record for one tracked object.

    The history stores the matched detection's box and confidence per updated
    frame; the Kalman state is used for motion prediction and gating only.
    """

    track_id: int
    kstate: KalmanState
    status: TrackStatus = TrackStatus.TENTATIVE
    hits: int = 1
    age: int = 1
    time_since_update: int = 0
    gallery: Gallery = field(default_factory=Gallery)
    history: list[tuple[int, BoundingBox, float]] = field(default_factory=list)
    embeddings: list[np.ndarray] = field(default_factory=list)  # pooled at export
    ever_confirmed: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.gallery, Gallery):
            self.gallery = Gallery(self.gallery)

    def predicted_box(self) -> BoundingBox:
        return BoundingBox.from_xyah(*self.kstate.mean[:4])

    @property
    def is_confirmed(self) -> bool:
        return self.status is TrackStatus.CONFIRMED


@dataclass(eq=False)
class Tracklet:
    """A completed per-camera track exported for cross-camera association.

    `embedding` is the pooled appearance descriptor, the mean of the
    per-frame embeddings; None when any update had no embedding.
    """

    camera_id: int
    track_id: int
    frames: list[int]
    boxes: list[BoundingBox]
    confidences: list[float]
    embedding: Optional[np.ndarray] = None

    @property
    def mean_confidence(self) -> float:
        return float(np.mean(self.confidences)) if self.confidences else 0.0

    def __len__(self) -> int:
        return len(self.frames)


def appearance_cost(tracks: Sequence[Track], dets: Sequence[Detection], metric: str = "euclidean") -> np.ndarray:
    """Appearance cost matrix: min over each track's gallery of the embedding
    distance to each detection (plain L2 by default, 1 - cosine optional)."""
    if any(not t.gallery for t in tracks):
        raise ValueError("appearance_cost requires a non-empty gallery per track")
    if any(d.embedding is None for d in dets):
        raise ValueError("appearance_cost requires an embedding per detection")
    if not tracks or not dets:
        return np.zeros((len(tracks), len(dets)))
    gallery = np.concatenate([t.gallery.matrix() for t in tracks], axis=0)
    sizes = [len(t.gallery) for t in tracks]
    offsets = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    embs = np.stack([d.embedding for d in dets])
    dots = gallery @ embs.T
    if metric == "euclidean":
        g2 = np.einsum("ij,ij->i", gallery, gallery)[:, None]
        e2 = np.einsum("ij,ij->i", embs, embs)[None, :]
        dist = np.sqrt(np.clip(g2 + e2 - 2.0 * dots, 0.0, None))
    elif metric == "cosine":
        g_norm = np.linalg.norm(gallery, axis=1, keepdims=True)
        e_norm = np.linalg.norm(embs, axis=1, keepdims=True)
        dist = 1.0 - dots / np.clip(g_norm * e_norm.T, 1e-12, None)
    else:
        raise ValueError(f"unknown appearance metric: {metric!r}")
    return np.minimum.reduceat(dist, offsets, axis=0)


class Tracker:
    """Online tracker for one camera. Calls to step() must be serialized;
    distinct Tracker instances share no state and may run in parallel."""

    def __init__(
        self,
        config: TrackerConfig | None = None,
        camera_id: int = 0,
        noise_profile: NoiseProfile | None = None,
    ):
        self.config = config if config is not None else TrackerConfig()
        self.camera_id = camera_id
        self.kf = KalmanFilter(noise_profile)
        self.tracks: list[Track] = []
        self._finished: list[Track] = []
        self._next_id = 1
        self._last_frame: int | None = None

    def step(self, frame: int, dets: Sequence[Detection]) -> list[Track]:
        """Advance one frame with NMS/confidence-filtered detections.

        Returns the confirmed tracks updated at this frame. Frame indices must
        be strictly increasing across calls; each call is one motion tick
        regardless of gaps (decimation is re-indexed upstream).
        """
        if self._last_frame is not None and frame <= self._last_frame:
            raise ValueError(f"frame indices must be strictly increasing: {frame} after {self._last_frame}")
        self._last_frame = frame

        self._predict_all()
        matches, unmatched_tracks, unmatched_dets = self._associate(dets)

        if matches:
            means = np.stack([self.tracks[ti].kstate.mean for ti, _ in matches])
            covs = np.stack([self.tracks[ti].kstate.covariance for ti, _ in matches])
            zs = np.array([dets[di].box.to_xyah() for _, di in matches])
            means, covs = self.kf.update_batch(means, covs, zs)
            for row, (ti, di) in enumerate(matches):
                self._finish_update(
                    self.tracks[ti], frame, dets[di], KalmanState(means[row], covs[row])
                )
        for ti in unmatched_tracks:
            self._mark_missed(self.tracks[ti])
        for di in unmatched_dets:
            self._start_track(frame, dets[di])

        live = []
        for t in self.tracks:
            if t.status is TrackStatus.DELETED:
                if t.ever_confirmed:
                    self._finished.append(t)
            else:
                live.append(t)
        self.tracks = live
        return [t for t in self.tracks if t.is_confirmed and t.time_since_update == 0]

    def export_tracklets(self) -> list[Tracklet]:
        """One Tracklet per track that ever reached Confirmed, in id order."""
        out = []
        for t in self._finished + self.tracks:
            if not t.ever_confirmed:
                continue
            pooled = (
                np.mean(np.asarray(t.embeddings), axis=0)
                if len(t.embeddings) == len(t.history)
                else None
            )
            out.append(
                Tracklet(
                    camera_id=self.camera_id,
                    track_id=t.track_id,
                    frames=[f for f, _, _ in t.history],
                    boxes=[b for _, b, _ in t.history],
                    confidences=[c for _, _, c in t.history],
                    embedding=pooled,
                )
            )
        return sorted(out, key=lambda tl: tl.track_id)

    # ------------------------------------------------------------------

    def _predict_all(self) -> None:
        if not self.tracks:
            return
        means = np.stack([t.kstate.mean for t in self.tracks])
        covs = np.stack([t.kstate.covariance for t in self.tracks])
        means, covs = self.kf.predict_batch(means, covs)
        for i, t in enumerate(self.tracks):
            t.kstate = KalmanState(means[i], covs[i])
            t.age += 1
            t.time_since_update += 1

    def _associate(self, dets: Sequence[Detection]) -> tuple[list, list, list]:
        cfg = self.config
        use_appearance = bool(dets) and all(d.embedding is not None for d in dets)
        # Confirmed tracks without gallery entries (mixed embedding input)
        # cannot join the appearance cascade; they compete in the IoU stage.
        confirmed = [
            i for i, t in enumerate(self.tracks)
            if t.is_confirmed and (not use_appearance or t.gallery)
        ]
        unconfirmed = [
            i for i, t in enumerate(self.tracks)
            if not t.is_confirmed or (use_appearance and not t.gallery)
        ]

        matches: list[tuple[int, int]] = []
        if confirmed and use_appearance:
            ctracks = [self.tracks[i] for i in confirmed]
            if cfg.single_shot_matching:
                cost = self._gated_cost(ctracks, dets, list(range(len(ctracks))), list(range(len(dets))))
                cost = np.where(cost > cfg.max_appearance_distance, INFEASIBLE, cost)
                m = solve_assignment(cost)
            else:
                m = matching_cascade(
                    ctracks, dets, self._gated_cost, cfg.max_age, cfg.max_appearance_distance
                )
            matches = [(confirmed[r], c) for r, c in m.pairs]
            unmatched_confirmed = [confirmed[r] for r in m.unmatched_rows]
            unmatched_dets = list(m.unmatched_cols)
        else:
            unmatched_confirmed = list(confirmed)
            unmatched_dets = list(range(len(dets)))

        if use_appearance:
            # Appearance mode: only tracks missed for exactly one frame fall
            # back to IoU; older misses wait for the cascade.
            iou_candidates = unconfirmed + [
                i for i in unmatched_confirmed if self.tracks[i].time_since_update == 1
            ]
            leftover = [i for i in unmatched_confirmed if self.tracks[i].time_since_update != 1]
        else:
            iou_candidates = unconfirmed + unmatched_confirmed
            leftover = []

        if iou_candidates and unmatched_dets:
            tboxes = np.array([self.tracks[i].predicted_box().to_array() for i in iou_candidates])
            dboxes = np.array([dets[j].box.to_array() for j in unmatched_dets])
            m = iou_matching(tboxes, dboxes, cfg.max_iou_distance)
            matches += [(iou_candidates[r], unmatched_dets[c]) for r, c in m.pairs]
            unmatched_tracks = leftover + [iou_candidates[r] for r in m.unmatched_rows]
            unmatched_dets = [unmatched_dets[c] for c in m.unmatched_cols]
        else:
            unmatched_tracks = leftover + iou_candidates
        return matches, unmatched_tracks, unmatched_dets

    def _gated_cost(self, tracks, dets, track_idx, det_idx) -> np.ndarray:
        sub_tracks = [tracks[i] for i in track_idx]
        sub_dets = [dets[j] for j in det_idx]
        cost = appearance_cost(sub_tracks, sub_dets, self.config.appearance_metric)
        means = np.stack([t.kstate.mean for t in sub_tracks])
        covs = np.stack([t.kstate.covariance for t in sub_tracks])
        zs = np.array([d.box.to_xyah() for d in sub_dets])
        gating = self.kf.gating_matrix(means, covs, zs)
        return gate(cost, gating <= CHI2_GATE_95)

    def _finish_update(self, t: Track, frame: int, det: Detection, kstate: KalmanState) -> None:
        t.kstate = kstate
        t.hits += 1
        t.time_since_update = 0
        t.history.append((frame, det.box, det.confidence))
        if det.embedding is not None:
            t.gallery.append(det.embedding, self.config.nn_budget)
            t.embeddings.append(det.embedding)
        if t.status is TrackStatus.TENTATIVE and t.hits >= self.config.n_init:
            t.status = TrackStatus.CONFIRMED
            t.ever_confirmed = True

    def _mark_missed(self, t: Track) -> None:
        if t.status is TrackStatus.TENTATIVE:
            t.status = TrackStatus.DELETED
        elif t.time_since_update > self.config.max_age:
            t.status = TrackStatus.DELETED

    def _start_track(self, frame: int, det: Detection) -> None:
        kstate = self.kf.initiate(np.array(det.box.to_xyah()))
        t = Track(track_id=self._next_id, kstate=kstate)
        self._next_id += 1
        t.history.append((frame, det.box, det.confidence))
        if det.embedding is not None:
            t.gallery.append(det.embedding, self.config.nn_budget)
            t.embeddings.append(det.embedding)
        if self.config.n_init <= 1:
            t.status = TrackStatus.CONFIRMED
            t.ever_confirmed = True
        self.tracks.append(t)
