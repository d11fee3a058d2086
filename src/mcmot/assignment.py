"""Gated minimum-cost bipartite matching and the age-ordered matching cascade."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .geometry import iou_matrix

# Sentinel cost marking an infeasible track/detection pair. A pair at this
# cost is never reported as matched; the row and column count as unmatched.
INFEASIBLE = 1e18


@dataclass(frozen=True)
class Matching:
    """Result of a bipartite assignment: matched pairs plus leftovers.

    Pairs are injective in both coordinates; together with the unmatched
    lists they cover every row and column exactly once.
    """

    pairs: tuple[tuple[int, int], ...]
    unmatched_rows: tuple[int, ...]
    unmatched_cols: tuple[int, ...]


def solve_assignment(cost: np.ndarray) -> Matching:
    """Minimum-cost maximum-cardinality assignment avoiding INFEASIBLE pairs.

    Among all matchings that use only feasible pairs and have maximum
    cardinality, returns one of minimum total cost. Deterministic for a
    fixed input.
    """
    # Imported here: scipy.optimize takes longer to import than `simulate` or
    # `associate` take to run, and neither solves an assignment.
    from scipy.optimize import linear_sum_assignment

    c = np.atleast_2d(np.asarray(cost, dtype=float))
    n_rows, n_cols = c.shape
    if n_rows == 0 or n_cols == 0:
        return Matching((), tuple(range(n_rows)), tuple(range(n_cols)))
    feasible = c < INFEASIBLE
    if not feasible.any():
        return Matching((), tuple(range(n_rows)), tuple(range(n_cols)))
    # A surrogate cost exceeding the sum of all feasible entries makes the
    # solver minimize the number of infeasible pairs first, then the cost.
    big = np.abs(c[feasible]).sum() + 1.0
    rows, cols = linear_sum_assignment(np.where(feasible, c, big))
    pairs = tuple((int(r), int(col)) for r, col in zip(rows, cols) if feasible[r, col])
    matched_rows = {r for r, _ in pairs}
    matched_cols = {col for _, col in pairs}
    return Matching(
        pairs,
        tuple(r for r in range(n_rows) if r not in matched_rows),
        tuple(col for col in range(n_cols) if col not in matched_cols),
    )


def gate(cost: np.ndarray, feasible: np.ndarray) -> np.ndarray:
    """Mark entries where `feasible` is false as INFEASIBLE; leave the rest."""
    c = np.asarray(cost, dtype=float)
    mask = np.asarray(feasible, dtype=bool)
    if c.shape != mask.shape:
        raise ValueError(f"shape mismatch: cost {c.shape} vs mask {mask.shape}")
    return np.where(mask, c, INFEASIBLE)


def matching_cascade(
    tracks: Sequence,
    detections: Sequence,
    cost_fn: Callable[[Sequence, Sequence, list[int], list[int]], np.ndarray],
    max_depth: int,
    threshold: float,
) -> Matching:
    """Age-prioritized assignment: recently updated tracks get first claim.

    Iterates depth d = 1..max_depth; at depth d only tracks whose
    time_since_update equals d compete for the detections still unmatched.
    `cost_fn(tracks, detections, track_indices, det_indices)` returns the
    cost sub-matrix; entries above `threshold` are infeasible.
    """
    unmatched_dets = list(range(len(detections)))
    pairs: list[tuple[int, int]] = []
    by_depth: dict[int, list[int]] = {}
    for i, t in enumerate(tracks):
        by_depth.setdefault(t.time_since_update, []).append(i)
    for depth in sorted(by_depth):
        if not unmatched_dets:
            break
        if not 1 <= depth <= max_depth:
            continue
        track_idx = by_depth[depth]
        cost = np.asarray(cost_fn(tracks, detections, track_idx, unmatched_dets), dtype=float)
        cost = np.where(cost > threshold, INFEASIBLE, cost)
        m = solve_assignment(cost)
        pairs.extend((track_idx[r], unmatched_dets[c]) for r, c in m.pairs)
        unmatched_dets = [unmatched_dets[c] for c in m.unmatched_cols]
    matched_rows = {r for r, _ in pairs}
    return Matching(
        tuple(sorted(pairs)),
        tuple(i for i in range(len(tracks)) if i not in matched_rows),
        tuple(unmatched_dets),
    )


def iou_matching(
    track_boxes: np.ndarray, detection_boxes: np.ndarray, max_iou_distance: float
) -> Matching:
    """Assignment on cost 1 - IoU between predicted track boxes and detections.

    Both inputs are (n, 4) arrays of (x, y, w, h); costs above
    `max_iou_distance` are infeasible.
    """
    tb = np.asarray(track_boxes, dtype=float).reshape(-1, 4)
    db = np.asarray(detection_boxes, dtype=float).reshape(-1, 4)
    if tb.shape[0] == 0 or db.shape[0] == 0:
        return Matching((), tuple(range(tb.shape[0])), tuple(range(db.shape[0])))
    cost = 1.0 - iou_matrix(tb, db)
    return solve_assignment(np.where(cost > max_iou_distance, INFEASIBLE, cost))
