"""Bounding-box geometry: coordinate conversions, IoU, non-maximum suppression."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box in pixels, top-left origin: (x, y) = top-left corner."""

    x: float
    y: float
    w: float
    h: float

    @property
    def area(self) -> float:
        return self.w * self.h

    def to_xyah(self) -> tuple[float, float, float, float]:
        """(center-x, center-y, aspect w/h, height). Requires h > 0."""
        if self.h <= 0:
            raise ValueError(f"box height must be positive, got {self.h}")
        return (self.x + self.w / 2.0, self.y + self.h / 2.0, self.w / self.h, self.h)

    @classmethod
    def from_xyah(cls, cx: float, cy: float, a: float, h: float) -> "BoundingBox":
        w = a * h
        return cls(cx - w / 2.0, cy - h / 2.0, w, h)

    def to_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.w, self.h], dtype=float)


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


def nms(dets: Sequence[Detection], overlap_threshold: float) -> list[Detection]:
    """Greedy per-class non-maximum suppression.

    Detections are processed in descending confidence order (ties broken by
    input order); a detection is kept iff its IoU with every already-kept
    detection of the same class is <= overlap_threshold. The output preserves
    descending-confidence order. A non-positive-area box is a ValueError when
    its class has another detection (the boxes' IoU is undefined).

    One iou_matrix gives every pair's IoU with the arithmetic of iou(), so
    the kept set is the one pairwise iou() calls give.
    """
    if not 0.0 <= overlap_threshold <= 1.0:
        raise ValueError(f"overlap_threshold must be in [0, 1], got {overlap_threshold}")
    if not dets:
        return []
    order = sorted(range(len(dets)), key=lambda i: -dets[i].confidence)
    boxes = np.array([(dets[i].box.x, dets[i].box.y, dets[i].box.w, dets[i].box.h) for i in order])
    classes = np.array([dets[i].class_id for i in order])
    same_class = classes[:, None] == classes[None, :]
    degenerate = (boxes[:, 2] <= 0) | (boxes[:, 3] <= 0)
    if np.any(same_class[degenerate].sum(axis=1) > 1):
        raise ValueError("iou requires boxes with positive area")
    with np.errstate(divide="ignore", invalid="ignore"):  # degenerate boxes alone in their class
        overlaps = (iou_matrix(boxes, boxes) > overlap_threshold) & same_class
    suppressed = np.zeros(len(order), dtype=bool)
    kept: list[Detection] = []
    for pos, i in enumerate(order):
        if not suppressed[pos]:
            kept.append(dets[i])
            suppressed |= overlaps[pos]
    return kept
