"""Bounding-box geometry: the rules of a valid detection, detections and a
camera's detection columns, IoU, non-maximum suppression."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np


# The bound on a box's |x|, |y|, w, h and on its aspect w / h and h / w.
# The tracker squares and multiplies these values (Kalman covariances,
# gating distances, IoU areas) and divides them (the aspect). Within the
# bound each such result stays within about 1e300, so none overflows
# float64 (1.8e308) or turns the aspect to 0.
BOX_LIMIT = 1e150
BOX_RANGE = "|x|, |y|, w, h, w/h and h/w must be at most 1e+150"

# The bound on an embedding value. The tracker and the association take
# squared distances |a - b|^2 = |a|^2 + |b|^2 - 2 a.b between D-wide
# embeddings; within the bound |a|^2 + |b|^2 + 2 |a.b| is at most
# 4 * D * 1e200, which stays below float64's 1.8e308 for any D an array can
# have (D < 2**63, about 9.2e18, gives at most 3.7e219).
EMBEDDING_LIMIT = 1e100
EMBEDDING_RANGE = "every embedding value must be within [-1e+100, 1e+100]"


# A row rule: the mask of the rows that break it, and a flagged row's message.
Fault = tuple[np.ndarray, Callable[[int], str]]


def detection_faults(box: np.ndarray, confidence: np.ndarray) -> list[Fault]:
    """The rules of a valid detection, (n, 4) rows `box` of (x, y, w, h) and
    (n,) `confidence`, in the order a row is checked: all finite, confidence
    in [0, 1], w and h > 0, x + w > x and y + h > y, w * h > 0, BOX_RANGE."""
    x, y, w, h = box.T
    # Overflow gives inf, which only the range rule flags; 0/0 needs a size flagged earlier.
    with np.errstate(all="ignore"):
        return [
            (~(np.isfinite(x) & np.isfinite(y) & np.isfinite(w) & np.isfinite(h)
               & np.isfinite(confidence)),
             lambda i: "non-finite box or confidence"),
            (~((confidence >= 0.0) & (confidence <= 1.0)),
             lambda i: f"confidence {confidence[i].item()} outside [0, 1]"),
            ((w <= 0) | (h <= 0),
             lambda i: f"non-positive box size {w[i].item()}x{h[i].item()}"),
            ((x + w <= x) | (y + h <= y),
             lambda i: f"box size {w[i].item()}x{h[i].item()} vanishes at "
                       f"({x[i].item()}, {y[i].item()}): x + w == x or y + h == y"),
            (w * h == 0,
             lambda i: f"box size {w[i].item()}x{h[i].item()} has zero area in float64: "
                       "w * h == 0"),
            ((np.maximum(np.maximum(abs(x), abs(y)), np.maximum(abs(w), abs(h))) > BOX_LIMIT)
             | (w / h > BOX_LIMIT) | (h / w > BOX_LIMIT),
             lambda i: f"box ({x[i].item()}, {y[i].item()}, {w[i].item()}, {h[i].item()}) "
                       f"out of range: {BOX_RANGE}"),
        ]


def embedding_fault(vectors: np.ndarray) -> Fault:
    """The rule of a valid (n, D) embedding matrix: finite values within
    EMBEDDING_LIMIT.

    Two row reductions and no temporary the size of the matrix: a row
    passes iff its max <= EMBEDDING_LIMIT and its min >= -EMBEDDING_LIMIT,
    which NaN fails. The initial 0.0 changes neither test and lets a D = 0
    row pass. Only a flagged row's message tells non-finite from too large.
    """
    limit = EMBEDDING_LIMIT
    bad = ~((np.maximum.reduce(vectors, axis=1, initial=0.0) <= limit)
            & (np.minimum.reduce(vectors, axis=1, initial=0.0) >= -limit))

    def message(i: int) -> str:
        row = vectors[i]
        if not np.isfinite(row).all():
            return "non-finite embedding value"
        value = row[abs(row) > limit][0].item()
        return f"embedding value {value} out of range: {EMBEDDING_RANGE}"

    return bad, message


def first_problem(faults: Sequence[Fault]) -> Optional[tuple[int, str]]:
    """(row, message) of the first row any rule flags, or None. On a tie the
    rule listed first wins, so list rules in the order a row is checked."""
    hits = [(int(mask.argmax()), k) for k, (mask, _) in enumerate(faults) if mask.any()]
    if not hits:
        return None
    row, k = min(hits)
    return row, faults[k][1](row)


def first_bad_detection(
    box: np.ndarray, confidence: np.ndarray, embeddings: Optional[np.ndarray] = None
) -> Optional[tuple[int, str]]:
    """(row, message) of the first row that breaks a detection rule
    (detection_faults); if no row does, of the first whose embedding breaks
    the embedding rule (embedding_fault); otherwise None. File ingest checks
    a camera in this order too: its detections file, then its embeddings."""
    found = first_problem(detection_faults(box, confidence))
    if found is None and embeddings is not None:
        found = first_problem([embedding_fault(embeddings)])
    return found


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box in pixels, top-left origin: (x, y) = top-left corner."""

    x: float
    y: float
    w: float
    h: float


@dataclass(frozen=True, eq=False)
class Detection:
    """One detector output: frame index, box, confidence, class, optional embedding.

    The embedding, when present, is the appearance descriptor used for
    re-identification (unit-length vector of the configured dimension).
    """

    frame: int
    box: BoundingBox
    confidence: float
    class_id: int = 0
    embedding: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence must be in [0, 1], got {self.confidence}")


@dataclass(frozen=True, eq=False)
class CameraStream:
    """One camera's detections as row-aligned columns: `frame` (n,) int64,
    `det_id` (n,) int64, `box` (n, 4) float64 rows of (x, y, w, h),
    `confidence` (n,) float64, `class_id` (n,) int64 and `embeddings` (n, D)
    float64, or None for a stream without embeddings.

    (frame, det_id) is the key that joins a detection to its embedding row.
    """

    frame: np.ndarray
    det_id: np.ndarray
    box: np.ndarray
    confidence: np.ndarray
    class_id: np.ndarray
    embeddings: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.frame)

    def __getitem__(self, rows) -> "CameraStream":
        """The stream of the given rows: a slice, an index array or a mask."""
        if isinstance(rows, (int, np.integer)):
            raise TypeError("select a CameraStream's rows with a slice, an index array or a mask")
        return CameraStream(*(None if c is None else c[rows] for c in (
            self.frame, self.det_id, self.box, self.confidence, self.class_id, self.embeddings)))

    @classmethod
    def from_detections(cls, dets: Sequence[Detection]) -> "CameraStream":
        """Columns of a Detection list, det_ids counting up from 0 within each
        frame in stream order. Its embeddings are all present or all None
        (ValueError otherwise)."""
        with_embedding = sum(d.embedding is not None for d in dets)
        if with_embedding not in (0, len(dets)):
            raise ValueError("a stream's detections must all carry embeddings or none")
        frame = np.array([d.frame for d in dets], dtype=np.int64)
        order = np.argsort(frame, kind="stable")
        det_id = np.empty_like(frame)
        det_id[order] = np.arange(len(frame)) - np.searchsorted(frame[order], frame[order])
        return cls(
            frame=frame,
            det_id=det_id,
            box=np.array([(d.box.x, d.box.y, d.box.w, d.box.h) for d in dets],
                         dtype=np.float64).reshape(-1, 4),
            confidence=np.array([d.confidence for d in dets], dtype=np.float64),
            class_id=np.array([d.class_id for d in dets], dtype=np.int64),
            embeddings=(np.array([d.embedding for d in dets], dtype=np.float64)
                        if with_embedding else None),
        )


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection-over-union of two positive-area boxes.

    Boxes touching only along an edge have IoU 0. Areas are taken from corner
    differences so identical boxes score exactly 1.
    """
    if a.w <= 0 or a.h <= 0 or b.w <= 0 or b.h <= 0:
        raise ValueError("iou requires boxes with positive area")
    ax2, ay2 = a.x + a.w, a.y + a.h
    bx2, by2 = b.x + b.w, b.y + b.h
    ix = min(ax2, bx2) - max(a.x, b.x)
    iy = min(ay2, by2) - max(a.y, b.y)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    area_a = (ax2 - a.x) * (ay2 - a.y)
    area_b = (bx2 - b.x) * (by2 - b.y)
    return inter / (area_a + area_b - inter)


def iou_matrix(tlwh_a: np.ndarray, tlwh_b: np.ndarray) -> np.ndarray:
    """Pairwise IoU between two (n, 4) / (m, 4) arrays of (x, y, w, h) boxes."""
    a = np.atleast_2d(np.asarray(tlwh_a, dtype=float))
    b = np.atleast_2d(np.asarray(tlwh_b, dtype=float))
    if a.size == 0 or b.size == 0:
        return np.zeros((a.shape[0], b.shape[0]))
    ax2 = a[:, 0] + a[:, 2]
    ay2 = a[:, 1] + a[:, 3]
    bx2 = b[:, 0] + b[:, 2]
    by2 = b[:, 1] + b[:, 3]
    ix = np.minimum(ax2[:, None], bx2[None, :]) - np.maximum(a[:, None, 0], b[None, :, 0])
    iy = np.minimum(ay2[:, None], by2[None, :]) - np.maximum(a[:, None, 1], b[None, :, 1])
    inter = np.clip(ix, 0.0, None) * np.clip(iy, 0.0, None)
    areas_a = ((ax2 - a[:, 0]) * (ay2 - a[:, 1]))[:, None]
    areas_b = ((bx2 - b[:, 0]) * (by2 - b[:, 1]))[None, :]
    return inter / (areas_a + areas_b - inter)


def nms(
    boxes: np.ndarray,
    confidences: np.ndarray,
    overlap_threshold: float,
    class_ids: Optional[np.ndarray] = None,
    frames: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Greedy per-frame, per-class non-maximum suppression over a stream.

    Row i is the box boxes[i] (x, y, w, h) with confidences[i], class_ids[i]
    and frames[i] (both default to all zeros). Within each frame, rows are
    processed in descending confidence order (ties broken by row order); a
    row is kept iff its IoU with every already-kept row of the same frame
    and class is <= overlap_threshold. Returns the kept row indices ordered
    by frame, then by descending confidence. A non-positive-area box is a
    ValueError when its frame and class hold another row (the boxes' IoU is
    undefined).

    One vectorized pass computes the IoU of every within-frame, same-class
    pair with the arithmetic of iou(), so the kept set is the one pairwise
    iou() calls give; the greedy loop visits only the pairs above the
    threshold.
    """
    if not 0.0 <= overlap_threshold <= 1.0:
        raise ValueError(f"overlap_threshold must be in [0, 1], got {overlap_threshold}")
    boxes = np.asarray(boxes, dtype=float).reshape(-1, 4)
    n = len(boxes)
    zeros = np.zeros(n, dtype=np.int64)
    classes = zeros if class_ids is None else np.asarray(class_ids)
    frame = zeros if frames is None else np.asarray(frames)
    order = np.lexsort((-np.asarray(confidences, dtype=float), frame))
    first, second = _within_frame_pairs(frame[order])
    same_class = classes[order][first] == classes[order][second]
    first, second = first[same_class], second[same_class]

    b = boxes[order]
    degenerate = (b[:, 2] <= 0) | (b[:, 3] <= 0)
    if np.any(degenerate[first] | degenerate[second]):
        raise ValueError("iou requires boxes with positive area")
    x2, y2 = b[:, 0] + b[:, 2], b[:, 1] + b[:, 3]
    area = (x2 - b[:, 0]) * (y2 - b[:, 1])
    ix = np.minimum(x2[first], x2[second]) - np.maximum(b[first, 0], b[second, 0])
    iy = np.minimum(y2[first], y2[second]) - np.maximum(b[first, 1], b[second, 1])
    inter = np.clip(ix, 0.0, None) * np.clip(iy, 0.0, None)
    with np.errstate(divide="ignore", invalid="ignore"):  # as in iou_matrix
        overlapping = inter / (area[first] + area[second] - inter) > overlap_threshold
    first, second = first[overlapping], second[overlapping]

    # Pairs come sorted by their first row, so a row's fate is settled
    # before it gets to suppress anything.
    suppressed = np.zeros(n, dtype=bool)
    starts = np.flatnonzero(np.diff(first, prepend=-1))
    for i, lo, hi in zip(first[starts].tolist(), starts.tolist(), [*starts[1:].tolist(), len(first)]):
        if not suppressed[i]:
            suppressed[second[lo:hi]] = True
    return order[~suppressed]


def _within_frame_pairs(frame: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every index pair (i, j), i < j, with frame[i] == frame[j], for a
    frame-sorted array; sorted by i, then j."""
    n = len(frame)
    group_end = np.searchsorted(frame, frame, side="right")
    later = group_end - np.arange(n) - 1  # partners after each row
    first = np.repeat(np.arange(n), later)
    offset = np.arange(len(first)) - np.repeat(np.cumsum(later) - later, later)
    return first, first + 1 + offset
