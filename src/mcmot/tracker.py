"""Single-camera online tracker: lifecycle, appearance galleries, tracklet export.

Per frame: predict all live tracks, associate confirmed tracks to detections
by appearance (Mahalanobis-gated, age-ordered cascade), associate the rest by
IoU, then apply the lifecycle rules (confirmation after n_init hits, deletion
after max_age missed frames). Detections without embeddings are tracked
motion-only: the appearance stage is skipped and every live track competes in
the IoU stage.

The live tracks' state is one struct-of-arrays TrackTable. A frame runs one
Kalman predict over the whole table, one chi-square gating matrix of the
confirmed tracks against all detections, appearance distances for the
gated-in cells only (every cascade level slices the resulting cost matrix),
and one Kalman update over the matched rows.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .assignment import INFEASIBLE, iou_matching, matching_cascade, solve_assignment
from .geometry import BoundingBox, Detection
from .kalman import CHI2_GATE_95, KalmanFilter, NoiseProfile


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


# TrackTable.status codes; a deleted track leaves the table.
_TENTATIVE, _CONFIRMED = 0, 1
_STATUS_OF_CODE = (TrackStatus.TENTATIVE, TrackStatus.CONFIRMED)
# The TrackTable arrays with one entry per row.
_ROW_COLUMNS = (
    "means", "covs", "status", "hits", "time_since_update", "n_embeddings", "slot"
)


class TrackTable:
    """State of the live tracks as parallel arrays, one row per track in
    creation order: Kalman `means` (n, 8) and `covs` (n, 8, 8), and the
    `status`, `hits` and `time_since_update` counters.

    Appearance galleries share one tensor of shape (slots, cap, D). Each row
    owns the slot `slot[row]` (the lowest free one at its birth) holding its
    last `budget` embeddings as a ring: its k-th embedding goes to position
    k % budget.
    `cap` starts at 8 and doubles with the fullest ring, up to `budget`.
    `norms` holds each stored embedding's squared norm (euclidean metric) or
    norm (cosine metric).
    """

    def __init__(self, budget: int, metric: str):
        # No int64 embedding count reaches a larger budget, so clamping it
        # keeps the ring arithmetic in int64 without changing any result.
        self.budget = min(budget, np.iinfo(np.int64).max)
        self.metric = metric
        self.means = np.empty((0, 8))
        self.covs = np.empty((0, 8, 8))
        self.status = np.empty(0, dtype=np.int8)
        self.hits = np.empty(0, dtype=np.int64)
        self.time_since_update = np.empty(0, dtype=np.int64)
        self.n_embeddings = np.empty(0, dtype=np.int64)  # ever pushed, per row
        self.slot = np.empty(0, dtype=np.intp)
        self.gallery: Optional[np.ndarray] = None  # allocated at the first embedding
        self.norms: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.status)

    @property
    def fill(self) -> np.ndarray:
        """Embeddings held per row."""
        return np.minimum(self.n_embeddings, self.budget)

    def append(self, means: np.ndarray, covs: np.ndarray, status: int) -> None:
        """Add len(means) rows with one hit and an empty gallery."""
        k = len(means)
        taken = np.zeros(max(len(self) + k, int(self.slot.max(initial=-1)) + 1), dtype=bool)
        taken[self.slot] = True
        ones = np.ones(k, dtype=np.int64)
        new_rows = {
            "means": means, "covs": covs, "status": np.full(k, status, dtype=np.int8),
            "hits": ones, "time_since_update": ones - 1,
            "n_embeddings": ones - 1, "slot": np.flatnonzero(~taken)[:k],
        }
        for name in _ROW_COLUMNS:
            setattr(self, name, np.concatenate([getattr(self, name), new_rows[name]]))

    def remove(self, rows: np.ndarray) -> None:
        """Drop the given rows (their slots become free); the others keep
        their relative order."""
        keep = np.ones(len(self), dtype=bool)
        keep[rows] = False
        for name in _ROW_COLUMNS:
            setattr(self, name, getattr(self, name)[keep])

    def add_embeddings(self, rows: np.ndarray, embs: np.ndarray) -> None:
        """Push embs[i] onto the gallery ring of rows[i] (rows distinct)."""
        pos = self.n_embeddings[rows] % self.budget
        slots = self.slot[rows]
        self._reserve(int(self.slot.max()) + 1, int(pos.max()) + 1, embs.shape[1])
        self.gallery[slots, pos] = embs
        self.norms[slots, pos] = _row_norms(embs, self.metric)
        self.n_embeddings[rows] += 1

    def _reserve(self, n_slots: int, width: int, dim: int) -> None:
        """Grow the gallery tensor, by doubling, to at least n_slots slots of
        width positions."""
        slots, cap = (0, 0) if self.gallery is None else self.gallery.shape[:2]
        if slots >= n_slots and cap >= width:
            return
        new_slots = slots if slots >= n_slots else max(n_slots, 2 * slots)
        new_cap = cap if cap >= width else min(self.budget, max(width, 2 * cap, 8))
        # Zeroed, so the unfilled positions a cost computes over are finite.
        gallery = np.zeros((new_slots, new_cap, dim))
        norms = np.zeros((new_slots, new_cap))
        if self.gallery is not None:
            gallery[:slots, :cap] = self.gallery
            norms[:slots, :cap] = self.norms
        self.gallery, self.norms = gallery, norms

    def predicted_tlwh(self, rows: np.ndarray) -> np.ndarray:
        """(x, y, w, h) boxes of the rows' predicted means."""
        cx, cy, a, h = self.means[rows, :4].T
        w = a * h
        return np.column_stack((cx - w / 2.0, cy - h / 2.0, w, h))


def appearance_cost(
    tracks: Sequence[Track], dets: Sequence[Detection], feasible: np.ndarray
) -> np.ndarray:
    """Appearance cost of live tracks (rows of one TrackTable) against
    detections, computed only where `feasible` (len(tracks), len(dets)) holds;
    INFEASIBLE elsewhere.

    A cell's cost is the minimum over the track's gallery of the embedding
    distance: plain L2 (euclidean) or 1 - cosine similarity, as the table's
    metric says.
    """
    rows = [t.row for t in tracks]
    if None in rows or (tracks and np.any(tracks[0].table.n_embeddings[rows] == 0)):
        raise ValueError("appearance_cost requires a non-empty gallery per track")
    if any(d.embedding is None for d in dets):
        raise ValueError("appearance_cost requires an embedding per detection")
    cost = np.full((len(tracks), len(dets)), INFEASIBLE)
    if np.shape(feasible) != cost.shape:
        raise ValueError(f"shape mismatch: {cost.shape} cells vs mask {np.shape(feasible)}")
    r, c = np.nonzero(feasible)
    if r.size == 0:
        return cost
    table = tracks[0].table
    cell_rows = np.array(rows, dtype=np.intp)[r]
    fill = table.fill[cell_rows]
    width = int(fill.max())
    slots = table.slot[cell_rows]
    g = table.gallery[slots, :width]  # (cells, width, D)
    e = np.array([d.embedding for d in dets])[c]
    dots = np.matmul(g, e[:, :, None])[:, :, 0]
    g_norms = table.norms[slots, :width]
    e_norms = _row_norms(e, table.metric)[:, None]
    if table.metric == "euclidean":
        dist = np.sqrt(np.clip(g_norms + e_norms - 2.0 * dots, 0.0, None))
    else:
        dist = 1.0 - dots / np.clip(g_norms * e_norms, 1e-12, None)
    dist[np.arange(width)[None, :] >= fill[:, None]] = np.inf
    cost[r, c] = dist.min(axis=1)
    return cost


def _row_norms(embs: np.ndarray, metric: str) -> np.ndarray:
    """Squared L2 norm (euclidean) or L2 norm (cosine) of each row."""
    if metric == "euclidean":
        return np.einsum("ij,ij->i", embs, embs)
    return np.linalg.norm(embs, axis=1)


@dataclass(eq=False)
class Track:
    """Identity and history of one tracked object.

    The history stores the matched detection's box and confidence per updated
    frame, and `embeddings` the matched embeddings (pooled at export). Motion,
    lifecycle and gallery state live in row `row` of `table`; `row` is None
    once the track is deleted.
    """

    track_id: int
    table: TrackTable = field(repr=False)
    row: Optional[int]
    history: list[tuple[int, BoundingBox, float]] = field(default_factory=list)
    embeddings: list[np.ndarray] = field(default_factory=list)

    @property
    def status(self) -> TrackStatus:
        if self.row is None:
            return TrackStatus.DELETED
        return _STATUS_OF_CODE[self.table.status[self.row]]

    @property
    def is_confirmed(self) -> bool:
        return self.status is TrackStatus.CONFIRMED

    def _live(self, column: np.ndarray) -> int:
        if self.row is None:
            raise ValueError(f"track {self.track_id} is deleted")
        return int(column[self.row])

    @property
    def hits(self) -> int:
        return self._live(self.table.hits)

    @property
    def time_since_update(self) -> int:
        return self._live(self.table.time_since_update)

    @property
    def gallery(self) -> np.ndarray:
        """(k, D) view of the stored embeddings, k <= nn_budget, in ring
        order: the track's j-th embedding sits at position j % nn_budget."""
        held = min(self._live(self.table.n_embeddings), self.table.budget)
        if self.table.gallery is None:
            return np.empty((0, 0))
        return self.table.gallery[self.table.slot[self.row], :held]


@dataclass(eq=False)
class Tracklet:
    """A completed per-camera track exported for cross-camera association.

    Its columns hold one entry per updated frame: `frames` (n,) int64,
    `boxes` (n, 4) float64 rows of (x, y, w, h) and `confidences` (n,)
    float64. `embedding` is the pooled appearance descriptor, a float64
    vector: the mean of the per-frame embeddings, or None when any update
    had no embedding. Sequences passed in are converted to these arrays.
    """

    camera_id: int
    track_id: int
    frames: np.ndarray
    boxes: np.ndarray
    confidences: np.ndarray
    embedding: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.frames = np.asarray(self.frames, dtype=np.int64)
        self.boxes = np.asarray(self.boxes, dtype=np.float64).reshape(-1, 4)
        self.confidences = np.asarray(self.confidences, dtype=np.float64)
        if self.embedding is not None:
            self.embedding = np.asarray(self.embedding, dtype=np.float64)
        n = len(self.frames)
        if self.frames.shape != (n,) or len(self.boxes) != n or self.confidences.shape != (n,):
            raise ValueError(
                f"tracklet {self.track_id}: frames, boxes and confidences must be columns of "
                f"one length, got shapes {self.frames.shape}, {self.boxes.shape} and "
                f"{self.confidences.shape}"
            )

    @property
    def mean_confidence(self) -> float:
        """np.mean of the confidences (the same sum and division), 0.0 when empty."""
        n = len(self.confidences)
        return float(self.confidences.sum()) / n if n else 0.0

    def __len__(self) -> int:
        return len(self.frames)


class Tracker:
    """Online tracker for one camera. Calls to step() must be serialized;
    distinct Tracker instances share no state and may run in parallel.

    `tracks[i]` is the live track in row i of `table`.
    """

    def __init__(
        self,
        config: TrackerConfig | None = None,
        camera_id: int = 0,
        noise_profile: NoiseProfile | None = None,
    ):
        self.config = config if config is not None else TrackerConfig()
        self.camera_id = camera_id
        self.kf = KalmanFilter(noise_profile)
        self.table = TrackTable(self.config.nn_budget, self.config.appearance_metric)
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

        table = self.table
        if len(table):
            table.means, table.covs = self.kf.predict_batch(table.means, table.covs)
            table.time_since_update += 1

        tlwh = np.array([(d.box.x, d.box.y, d.box.w, d.box.h) for d in dets], dtype=float)
        tlwh = tlwh.reshape(-1, 4)
        if np.any(tlwh[:, 3] <= 0):
            raise ValueError(f"box height must be positive, got {tlwh[:, 3].min()}")
        x, y, w, h = tlwh.T
        xyah = np.column_stack((x + w / 2.0, y + h / 2.0, w / h, h))
        embs = (
            np.array([d.embedding for d in dets])
            if dets and all(d.embedding is not None for d in dets)
            else None
        )
        matches, unmatched_tracks, unmatched_dets = self._associate(dets, tlwh, xyah, embs)

        cfg = self.config
        if matches:
            rows = np.array([r for r, _ in matches], dtype=np.intp)
            cols = np.array([c for _, c in matches], dtype=np.intp)
            table.means[rows], table.covs[rows] = self.kf.update_batch(
                table.means[rows], table.covs[rows], xyah[cols]
            )
            table.hits[rows] += 1
            table.time_since_update[rows] = 0
            promoted = rows[(table.status[rows] == _TENTATIVE) & (table.hits[rows] >= cfg.n_init)]
            table.status[promoted] = _CONFIRMED
            self._add_embeddings(rows, cols, dets, embs)
            for r, c in matches:
                self._record(self.tracks[r], frame, dets[c])

        missed = np.array(unmatched_tracks, dtype=np.intp)
        dead = np.sort(missed[
            (table.status[missed] == _TENTATIVE) | (table.time_since_update[missed] > cfg.max_age)
        ])
        if dead.size:
            self._finished += [self.tracks[i] for i in dead if table.status[i] == _CONFIRMED]
            for i in dead:
                self.tracks[i].row = None
            table.remove(dead)
            self.tracks = [t for t in self.tracks if t.row is not None]
            for row, t in enumerate(self.tracks):
                t.row = row

        if unmatched_dets:
            self._start_tracks(frame, unmatched_dets, dets, xyah, embs)
        updated = (table.status == _CONFIRMED) & (table.time_since_update == 0)
        return [self.tracks[i] for i in np.flatnonzero(updated)]

    def export_tracklets(self) -> list[Tracklet]:
        """One Tracklet per track that ever reached Confirmed, in id order."""
        out = []
        for t in self._finished + [t for t in self.tracks if t.is_confirmed]:
            pooled = (
                np.mean(np.asarray(t.embeddings), axis=0)
                if len(t.embeddings) == len(t.history)
                else None
            )
            frames, boxes, confidences = zip(*t.history)
            out.append(
                Tracklet(
                    camera_id=self.camera_id,
                    track_id=t.track_id,
                    frames=np.array(frames, dtype=np.int64),
                    boxes=np.array([(b.x, b.y, b.w, b.h) for b in boxes], dtype=np.float64),
                    confidences=np.array(confidences, dtype=np.float64),
                    embedding=pooled,
                )
            )
        return sorted(out, key=lambda tl: tl.track_id)

    # ------------------------------------------------------------------

    def _associate(
        self, dets: Sequence[Detection], tlwh: np.ndarray, xyah: np.ndarray,
        embs: Optional[np.ndarray],
    ) -> tuple[list, list, list]:
        """Match tracks to dets; embs, the dets' stacked embeddings, is None
        when any detection lacks one, and then the frame is motion-only."""
        cfg = self.config
        table = self.table
        use_appearance = embs is not None
        # Confirmed tracks without gallery entries (mixed embedding input)
        # cannot join the appearance cascade; they compete in the IoU stage.
        in_cascade = table.status == _CONFIRMED
        if use_appearance:
            in_cascade &= table.n_embeddings > 0
        confirmed = np.flatnonzero(in_cascade)
        unconfirmed = np.flatnonzero(~in_cascade).tolist()

        matches: list[tuple[int, int]] = []
        if confirmed.size and use_appearance:
            ctracks = [self.tracks[i] for i in confirmed]
            cost = self._gated_cost(ctracks, dets, xyah)
            if cfg.single_shot_matching:
                cost = np.where(cost > cfg.max_appearance_distance, INFEASIBLE, cost)
                m = solve_assignment(cost)
            else:
                m = matching_cascade(
                    ctracks,
                    dets,
                    lambda _tracks, _dets, rows, cols: cost[np.ix_(rows, cols)],
                    cfg.max_age,
                    cfg.max_appearance_distance,
                )
            confirmed = confirmed.tolist()
            matches = [(confirmed[r], c) for r, c in m.pairs]
            unmatched_confirmed = [confirmed[r] for r in m.unmatched_rows]
            unmatched_dets = list(m.unmatched_cols)
        else:
            unmatched_confirmed = confirmed.tolist()
            unmatched_dets = list(range(len(tlwh)))

        if use_appearance:
            # Appearance mode: only tracks missed for exactly one frame fall
            # back to IoU; older misses wait for the cascade.
            tsu = table.time_since_update
            iou_candidates = unconfirmed + [i for i in unmatched_confirmed if tsu[i] == 1]
            leftover = [i for i in unmatched_confirmed if tsu[i] != 1]
        else:
            iou_candidates = unconfirmed + unmatched_confirmed
            leftover = []

        if iou_candidates and unmatched_dets:
            m = iou_matching(
                table.predicted_tlwh(iou_candidates), tlwh[unmatched_dets], cfg.max_iou_distance
            )
            matches += [(iou_candidates[r], unmatched_dets[c]) for r, c in m.pairs]
            unmatched_tracks = leftover + [iou_candidates[r] for r in m.unmatched_rows]
            unmatched_dets = [unmatched_dets[c] for c in m.unmatched_cols]
        else:
            unmatched_tracks = leftover + iou_candidates
        return matches, unmatched_tracks, unmatched_dets

    def _gated_cost(
        self, tracks: list[Track], dets: Sequence[Detection], xyah: np.ndarray
    ) -> np.ndarray:
        """Appearance cost of tracks against dets, INFEASIBLE outside the
        chi-square gate: one gating matrix, then the gated-in cells only."""
        rows = [t.row for t in tracks]
        gating = self.kf.gating_matrix(self.table.means[rows], self.table.covs[rows], xyah)
        return appearance_cost(tracks, dets, gating <= CHI2_GATE_95)

    def _add_embeddings(
        self, rows: np.ndarray, cols: np.ndarray, dets: Sequence[Detection],
        embs: Optional[np.ndarray],
    ) -> None:
        """Push each detection cols[i]'s embedding, if any, onto row rows[i]."""
        if embs is not None:
            self.table.add_embeddings(rows, embs[cols])
            return
        # Mixed input: push the embeddings the matched detections have.
        has = [dets[c].embedding is not None for c in cols]
        if any(has):
            self.table.add_embeddings(rows[has], np.stack([dets[c].embedding for c in cols[has]]))

    @staticmethod
    def _record(t: Track, frame: int, det: Detection) -> None:
        t.history.append((frame, det.box, det.confidence))
        if det.embedding is not None:
            t.embeddings.append(det.embedding)

    def _start_tracks(
        self, frame: int, det_idx: list[int], dets: Sequence[Detection], xyah: np.ndarray,
        embs: Optional[np.ndarray],
    ) -> None:
        states = [self.kf.initiate(xyah[c]) for c in det_idx]
        first = len(self.table)
        self.table.append(
            np.array([s.mean for s in states]),
            np.array([s.covariance for s in states]),
            _CONFIRMED if self.config.n_init <= 1 else _TENTATIVE,
        )
        for row, c in enumerate(det_idx, start=first):
            t = Track(track_id=self._next_id, table=self.table, row=row)
            self._next_id += 1
            self._record(t, frame, dets[c])
            self.tracks.append(t)
        rows = np.arange(first, len(self.table))
        self._add_embeddings(rows, np.array(det_idx, dtype=np.intp), dets, embs)
