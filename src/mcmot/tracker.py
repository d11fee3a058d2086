"""Single-camera online tracker: lifecycle, appearance galleries, tracklet export.

Per frame: predict all live tracks, associate confirmed tracks to detections
by appearance (Mahalanobis-gated, age-ordered cascade), associate the rest by
IoU, then apply the lifecycle rules (confirmation after n_init hits, deletion
after max_age missed frames). A stream's detections carry embeddings all or
none; a stream without them is tracked motion-only: the appearance stage is
skipped and every live track competes in the IoU stage.

The live tracks' state is one struct-of-arrays TrackTable. A frame runs one
Kalman predict over the whole table, one chi-square gating matrix of the
confirmed tracks against all detections, appearance distances for the
gated-in cells only (every cascade level slices the resulting cost matrix),
and one Kalman update over the matched rows, all in the filter's per-axis
forms, so no 8x8 covariance is built. The frame's association is one
vector, the table row matched to each detection or -1. Every detection a
tracker is given becomes one row of its History, whose `owner` column holds
the id of the track the detection updated or started; a track's history is
the rows its id owns. History keeps no embedding per row: it pools each
track's embeddings as a running sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .assignment import INFEASIBLE, iou_matching, matching_cascade, solve_assignment
from .geometry import first_bad_detection
from .kalman import CHI2_GATE_95, KalmanFilter

# Frame indices are int64 columns, so a frame stride or a frame_keep block
# beyond this bound cannot be applied to them.
INT64_MAX = 2**63 - 1


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
        if self.frame_stride > INT64_MAX:
            raise ValueError("frame_stride must be at most 2**63 - 1")
        if self.appearance_metric not in ("euclidean", "cosine"):
            raise ValueError(f"unknown appearance metric: {self.appearance_metric!r}")
        if not 0.0 <= self.nms_threshold <= 1.0:
            raise ValueError(f"nms_threshold must be in [0, 1], got {self.nms_threshold}")
        for name in ("max_appearance_distance", "max_iou_distance"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if math.isnan(self.min_confidence):
            raise ValueError("min_confidence must be a number, got nan")


# TrackTable.status codes; a deleted track leaves the table.
_TENTATIVE, _CONFIRMED = 0, 1
# The TrackTable arrays with one entry per row.
_ROW_COLUMNS = (
    "track_id", "means", "covs", "status", "hits", "time_since_update", "n_embeddings", "slot"
)


class TrackTable:
    """State of the live tracks as parallel arrays, one row per track in
    creation order: the int64 `track_id`, Kalman `means` (n, 8) and per-axis
    `covs` (n, 4, 3) (see kalman), and the `status`, `hits` and
    `time_since_update` counters.

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
        self.budget = min(budget, INT64_MAX)
        self.metric = metric
        self.track_id = np.empty(0, dtype=np.int64)
        self.means = np.empty((0, 8))
        self.covs = np.empty((0, 4, 3))
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

    def append(
        self, track_ids: np.ndarray, means: np.ndarray, covs: np.ndarray, status: int
    ) -> None:
        """Add len(track_ids) rows with one hit and an empty gallery."""
        k = len(track_ids)
        taken = np.zeros(max(len(self) + k, int(self.slot.max(initial=-1)) + 1), dtype=bool)
        taken[self.slot] = True
        ones = np.ones(k, dtype=np.int64)
        new_rows = {
            "track_id": np.asarray(track_ids, dtype=np.int64), "means": means, "covs": covs,
            "status": np.full(k, status, dtype=np.int8),
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
    table: TrackTable, rows: np.ndarray, embeddings: Optional[np.ndarray], feasible: np.ndarray
) -> np.ndarray:
    """Appearance cost of the given rows of `table` against detections with
    the given (m, D) embeddings, computed only where `feasible`
    (len(rows), m) holds; INFEASIBLE elsewhere.

    A cell's cost is the minimum over the row's gallery of the embedding
    distance: plain L2 (euclidean) or 1 - cosine similarity, as the table's
    metric says.
    """
    rows = np.asarray(rows, dtype=np.intp)
    if np.any(table.n_embeddings[rows] == 0):
        raise ValueError("appearance_cost requires a non-empty gallery per track")
    if embeddings is None:
        raise ValueError("appearance_cost requires an embedding per detection")
    cost = np.full((len(rows), len(embeddings)), INFEASIBLE)
    if np.shape(feasible) != cost.shape:
        raise ValueError(f"shape mismatch: {cost.shape} cells vs mask {np.shape(feasible)}")
    r, c = np.nonzero(feasible)
    if r.size == 0:
        return cost
    cell_rows = rows[r]
    fill = table.fill[cell_rows]
    width = int(fill.max())
    slots = table.slot[cell_rows]
    g = table.gallery[slots, :width]  # (cells, width, D)
    e = np.asarray(embeddings, dtype=float)[c]
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


class History:
    """Every detection a tracker was given, one row each in step order:
    frame, box (x, y, w, h), confidence and the id of the track that owns
    it. The columns are arrays whose capacity doubles as they fill.

    For a stream with embeddings, each track's embeddings are pooled as
    they arrive, in a running sum per track id (Tracker numbers tracks 1,
    2, ...). A sum starts at 0.0 and adds the track's embeddings in step
    order, as np.mean sums the rows of an (n, D) matrix for D >= 2, so the
    pooled mean is np.mean's to the bit. For D = 1 numpy sums the column
    pairwise, so a D = 1 stream keeps its values as one more column and
    pools them with np.mean.
    """

    def __init__(self) -> None:
        self._n = 0
        self._frame = np.empty(0, dtype=np.int64)
        self._box = np.empty((0, 4))
        self._confidence = np.empty(0)
        self._owner = np.empty(0, dtype=np.int64)
        self._value: Optional[np.ndarray] = None  # the embeddings of a D = 1 stream
        self._sum: Optional[np.ndarray] = None  # (ids, D) running sums, by track id

    @property
    def owner(self) -> np.ndarray:
        """(rows,) int64 id of the track each row updated or started."""
        return self._owner[:self._n]

    def append(
        self, frame: int, boxes: np.ndarray, confidences: np.ndarray,
        embeddings: Optional[np.ndarray], owners: np.ndarray,
    ) -> None:
        """Add one frame's detections as rows; owners[i] is the id of the
        track detection i updated or started."""
        first = self._n
        self._n += len(boxes)
        if embeddings is not None and self._value is None and self._sum is None:
            if embeddings.shape[1] == 1:
                self._value = np.empty((len(self._frame), 1))
            else:
                self._sum = np.zeros((0, embeddings.shape[1]))
        if self._n > len(self._frame):
            cap = max(self._n, 2 * len(self._frame), 64)
            self._frame, self._box, self._confidence, self._owner = (
                _grown(a, first, cap)
                for a in (self._frame, self._box, self._confidence, self._owner)
            )
            if self._value is not None:
                self._value = _grown(self._value, first, cap)
        self._frame[first:self._n] = frame
        self._box[first:self._n] = boxes
        self._confidence[first:self._n] = confidences
        self._owner[first:self._n] = owners
        if self._value is not None:
            self._value[first:self._n] = embeddings
        elif self._sum is not None and len(owners):
            ids = int(owners.max()) + 1
            if ids > len(self._sum):  # new rows are zeros: a sum starts at 0.0
                grown = np.zeros((max(ids, 2 * len(self._sum), 64), self._sum.shape[1]))
                grown[:len(self._sum)] = self._sum
                self._sum = grown
            self._sum[owners] += embeddings  # a frame's owners are distinct

    def take(self, rows: Sequence[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(frames, boxes, confidences) of the given rows."""
        rows = np.asarray(rows, dtype=np.intp)
        return self._frame[rows], self._box[rows], self._confidence[rows]

    def pooled(self, track_id: int, rows: Sequence[int]) -> Optional[np.ndarray]:
        """np.mean of the embeddings of a track, which owns the given rows,
        or None for a stream without embeddings."""
        if self._value is not None:
            return np.mean(self._value[np.asarray(rows, dtype=np.intp)], axis=0)
        if self._sum is None:
            return None
        return self._sum[track_id] / len(rows)


def _grown(a: np.ndarray, n: int, cap: int) -> np.ndarray:
    """A copy of a's first n rows with room for cap rows."""
    out = np.empty((cap,) + a.shape[1:], dtype=a.dtype)
    out[:n] = a[:n]
    return out


@dataclass(eq=False)
class Tracklet:
    """A completed per-camera track exported for cross-camera association.

    Its columns hold one entry per updated frame: `frames` (n,) int64,
    `boxes` (n, 4) float64 rows of (x, y, w, h) and `confidences` (n,)
    float64. `embedding` is the pooled appearance descriptor, a float64
    vector: the mean of the per-frame embeddings, or None for a stream
    without embeddings. Sequences passed in are converted to these arrays.
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
    distinct Tracker instances share no state and may run in parallel."""

    def __init__(
        self,
        config: TrackerConfig | None = None,
        camera_id: int = 0,
    ):
        self.config = config if config is not None else TrackerConfig()
        self.camera_id = camera_id
        self.kf = KalmanFilter()
        self.table = TrackTable(self.config.nn_budget, self.config.appearance_metric)
        self.history = History()
        self._confirmed_ids: list[int] = []  # every track that reached Confirmed
        self._next_id = 1
        self._last_frame: int | None = None
        self._with_embeddings: bool | None = None  # set by the first non-empty frame
        self._dim: int | None = None  # D, set by the first frame with embeddings
        # Set by pipeline.process_camera, whose rows have passed the detection
        # and embedding rules as float64 before the first step: step then
        # skips its own pass of those rules.
        self._checked_stream = False

    @property
    def tracks(self) -> np.ndarray:
        """Read-only int64 ids of the live tracks, in table row order."""
        ids = self.table.track_id.view()
        ids.flags.writeable = False
        return ids

    def step(
        self, frame: int, boxes: np.ndarray, confidences: np.ndarray,
        embeddings: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Advance one frame with its NMS/confidence-filtered detections:
        `boxes` (n, 4) rows of (x, y, w, h), `confidences` (n,) and
        `embeddings` (n, D) or None, within the rules of file ingest
        (geometry.first_bad_detection). Either every non-empty frame of a
        tracker has embeddings, all of one width D, or none has.

        Returns the int64 ids of the confirmed tracks updated at this frame,
        in row order. Frame indices must be strictly increasing across calls;
        each call is one motion tick regardless of gaps (decimation is
        re-indexed upstream).

        Every call checks the frame's type (an int or a numpy integer) and
        order, the one box, confidence and embedding per detection, the
        embeddings' (n, D) shape with D >= 1 and the stream's one D, and the
        embeddings all or none, before the tracker changes. The detection
        and embedding rules run on every call too, except in a tracker that
        process_camera feeds: it has checked its whole stream once, before
        the first step. A row that breaks them is
        ValueError("detection i: <message>"), i counting within the frame
        and the message file ingest gives for that row.
        """
        if not isinstance(frame, (int, np.integer)):
            raise ValueError(f"frame index must be an integer, got {frame!r}")
        if self._last_frame is not None and frame <= self._last_frame:
            raise ValueError(f"frame indices must be strictly increasing: {frame} after {self._last_frame}")
        tlwh = np.asarray(boxes, dtype=float).reshape(-1, 4)
        confidences = np.asarray(confidences, dtype=float)
        n = len(tlwh)
        embs = None if embeddings is None or not n else np.asarray(embeddings, dtype=float)
        e_rows = None if embeddings is None else np.shape(embeddings)[:1]
        if confidences.shape != (n,) or e_rows not in (None, (n,)) or (embs is not None and (
                embs.ndim != 2 or not embs.shape[1] or self._dim not in (None, embs.shape[1]))):
            raise ValueError("step needs one box, confidence and embedding per detection, "
                             "the embeddings an (n, D) matrix with the stream's one D")
        found = None if self._checked_stream else first_bad_detection(tlwh, confidences, embs)
        if found is not None:
            raise ValueError(f"detection {found[0]}: {found[1]}")
        if n:
            if self._with_embeddings is None:
                self._with_embeddings = embs is not None
            if self._with_embeddings != (embs is not None):
                raise ValueError("a stream's detections must all carry embeddings or none")
        self._last_frame = frame
        if embs is not None:
            self._dim = embs.shape[1]

        x, y, w, h = tlwh.T
        table = self.table
        if len(table):
            table.means, table.covs = self.kf.predict_axes(table.means, table.covs)
            table.time_since_update += 1

        xyah = np.column_stack((x + w / 2.0, y + h / 2.0, w / h, h))
        det_row = self._associate(tlwh, xyah, embs)
        cols = np.flatnonzero(det_row >= 0)
        rows = det_row[cols]
        new = np.flatnonzero(det_row < 0)
        new_ids = self._next_id + np.arange(len(new), dtype=np.int64)
        owners = np.empty(n, dtype=np.int64)
        owners[cols] = table.track_id[rows]
        owners[new] = new_ids
        self.history.append(frame, tlwh, confidences, embs, owners)

        cfg = self.config
        if rows.size:
            table.means[rows], table.covs[rows] = self.kf.update_axes(
                table.means[rows], table.covs[rows], xyah[cols]
            )
            table.hits[rows] += 1
            table.time_since_update[rows] = 0
            promoted = rows[(table.status[rows] == _TENTATIVE) & (table.hits[rows] >= cfg.n_init)]
            table.status[promoted] = _CONFIRMED
            self._confirmed_ids += table.track_id[promoted].tolist()
            if embs is not None:
                table.add_embeddings(rows, embs[cols])

        # Predict raised every row's time_since_update and an update reset it: > 0 is a miss.
        tsu = table.time_since_update
        dead = np.flatnonzero((tsu > 0) & ((table.status == _TENTATIVE) | (tsu > cfg.max_age)))
        if dead.size:
            table.remove(dead)

        if new.size:
            self._start_tracks(new_ids, new, xyah, embs)
        updated = (table.status == _CONFIRMED) & (table.time_since_update == 0)
        return table.track_id[updated]

    def export_tracklets(self) -> list[Tracklet]:
        """One Tracklet per track that ever reached Confirmed, in id order."""
        ids = np.sort(np.array(self._confirmed_ids, dtype=np.int64))
        order = np.argsort(self.history.owner, kind="stable")  # frame order within a track
        owner = self.history.owner[order]
        bounds = zip(np.searchsorted(owner, ids).tolist(),
                     np.searchsorted(owner, ids, side="right").tolist())
        out = []
        for track_id, (lo, hi) in zip(ids.tolist(), bounds):
            frames, boxes, confidences = self.history.take(order[lo:hi])
            out.append(
                Tracklet(
                    camera_id=self.camera_id,
                    track_id=track_id,
                    frames=frames,
                    boxes=boxes,
                    confidences=confidences,
                    embedding=self.history.pooled(track_id, order[lo:hi]),
                )
            )
        return out

    # ------------------------------------------------------------------

    def _associate(
        self, tlwh: np.ndarray, xyah: np.ndarray, embs: Optional[np.ndarray]
    ) -> np.ndarray:
        """The table row matched to each detection, or -1. embs, the
        detections' embeddings, is None for an empty frame or a stream
        without embeddings, and then the frame is motion-only.

        The appearance cascade (or the single-shot solve) matches confirmed
        rows first. The detections left then compete by IoU for the
        unconfirmed rows followed by the unmatched confirmed rows; in
        appearance mode only those missed for exactly one frame qualify,
        older misses wait for the cascade.
        """
        cfg = self.config
        table = self.table
        det_row = np.full(len(tlwh), -1, dtype=np.intp)
        confirmed = table.status == _CONFIRMED
        if embs is not None and confirmed.any():
            rows = np.flatnonzero(confirmed)
            cost = self._gated_cost(rows, embs, xyah)
            if cfg.single_shot_matching:
                m = solve_assignment(np.where(cost > cfg.max_appearance_distance, INFEASIBLE, cost))
            else:
                m = matching_cascade(
                    cost, table.time_since_update[rows], cfg.max_age, cfg.max_appearance_distance
                )
            for r, c in m.pairs:
                det_row[c] = rows[r]

        late = confirmed.copy()  # the confirmed rows the first stage left
        late[det_row[det_row >= 0]] = False
        if embs is not None:
            late &= table.time_since_update == 1
        candidates = np.concatenate((np.flatnonzero(~confirmed), np.flatnonzero(late)))
        free = np.flatnonzero(det_row < 0)
        if candidates.size and free.size:
            m = iou_matching(table.predicted_tlwh(candidates), tlwh[free], cfg.max_iou_distance)
            for r, c in m.pairs:
                det_row[free[c]] = candidates[r]
        return det_row

    def _gated_cost(self, rows: np.ndarray, embs: np.ndarray, xyah: np.ndarray) -> np.ndarray:
        """Appearance cost of the table rows against the detections,
        INFEASIBLE outside the chi-square gate: one gating matrix, then the
        gated-in cells only."""
        gating = self.kf.gating_axes(self.table.means[rows], self.table.covs[rows], xyah)
        return appearance_cost(self.table, rows, embs, gating <= CHI2_GATE_95)

    def _start_tracks(
        self, ids: np.ndarray, det_idx: np.ndarray, xyah: np.ndarray, embs: Optional[np.ndarray]
    ) -> None:
        """One new track with id ids[i] per detection det_idx[i]."""
        means, covs = self.kf.initiate_axes(xyah[det_idx])
        start = len(self.table)
        born_confirmed = self.config.n_init <= 1
        self.table.append(ids, means, covs, _CONFIRMED if born_confirmed else _TENTATIVE)
        if born_confirmed:
            self._confirmed_ids += ids.tolist()
        self._next_id += len(ids)
        if embs is not None:
            self.table.add_embeddings(np.arange(start, len(self.table)), embs[det_idx])
