"""Gated minimum-cost bipartite matching and the age-ordered matching cascade."""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    fixed input; the pairs are those SciPy's `linear_sum_assignment` picks
    on the surrogate matrix below, ties included.
    """
    c = np.atleast_2d(np.asarray(cost, dtype=float))
    n_rows, n_cols = c.shape
    feasible = c < INFEASIBLE
    rows, cols = np.nonzero(feasible)
    rows, cols = rows.tolist(), cols.tolist()
    if not rows:
        return Matching((), tuple(range(n_rows)), tuple(range(n_cols)))
    # A surrogate cost exceeding the sum of all feasible entries makes the
    # solver minimize the number of infeasible pairs first, then the cost.
    big = np.abs(c[feasible]).sum() + 1.0
    if len(set(rows)) == len(rows) and len(set(cols)) == len(cols) and np.isfinite(big):
        # Every feasible cell is alone in its row and column, so together
        # they are the only maximum-cardinality matching.
        pairs = tuple(zip(rows, cols))
    else:
        rows, cols = _linear_sum_assignment(np.where(feasible, c, big))
        pairs = tuple((r, col) for r, col in zip(rows, cols) if feasible[r, col])
    matched_rows = {r for r, _ in pairs}
    matched_cols = {col for _, col in pairs}
    return Matching(
        pairs,
        tuple(r for r in range(n_rows) if r not in matched_rows),
        tuple(col for col in range(n_cols) if col not in matched_cols),
    )


def _linear_sum_assignment(cost: np.ndarray) -> tuple[list[int], list[int]]:
    """Rectangular linear sum assignment, as SciPy computes it.

    A line-by-line port of SciPy's shortest augmenting path solver (Crouse,
    "On implementing 2D rectangular assignment algorithms", IEEE TAES 2016):
    the same scan order, tie rule and dual updates in the same float64
    arithmetic, so it returns the same pairs, sorted by row, and raises
    ValueError where SciPy does. Plain Python floats beat numpy calls on the
    tracker's few-dozen-wide matrices.
    """
    transpose = cost.shape[1] < cost.shape[0]
    if transpose:
        cost = cost.T
    if np.isnan(cost).any() or np.isneginf(cost).any():
        raise ValueError("matrix contains invalid numeric entries")
    n_rows, n_cols = cost.shape
    c = cost.tolist()
    u = [0.0] * n_rows
    v = [0.0] * n_cols
    path = [-1] * n_cols
    col4row = [-1] * n_rows
    row4col = [-1] * n_cols
    for cur_row in range(n_rows):
        shortest = [math.inf] * n_cols
        seen_rows = [cur_row]
        seen_cols = []
        # Unscanned columns, in reverse so a constant matrix yields the
        # identity; a scanned column's slot takes the last one.
        remaining = list(range(n_cols - 1, -1, -1))
        min_val = 0.0
        i = cur_row
        while True:
            index = -1
            lowest = math.inf
            c_i, u_i = c[i], u[i]
            for it, j in enumerate(remaining):
                r = min_val + c_i[j] - u_i - v[j]
                if r < shortest[j]:
                    path[j] = i
                    shortest[j] = r
                # On a tie, prefer a column that ends the path.
                if shortest[j] < lowest or (shortest[j] == lowest and row4col[j] == -1):
                    lowest = shortest[j]
                    index = it
            min_val = lowest
            if min_val == math.inf:
                raise ValueError("cost matrix is infeasible")
            j = remaining[index]
            seen_cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
            if row4col[j] == -1:
                break
            i = row4col[j]
            seen_rows.append(i)
        u[cur_row] += min_val
        for i in seen_rows[1:]:
            u[i] += min_val - shortest[col4row[i]]
        for col in seen_cols:
            v[col] -= min_val - shortest[col]
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break
    if transpose:
        order = sorted(range(n_rows), key=col4row.__getitem__)
        return [col4row[k] for k in order], order
    return list(range(n_rows)), col4row


def gate(cost: np.ndarray, feasible: np.ndarray) -> np.ndarray:
    """Mark entries where `feasible` is false as INFEASIBLE; leave the rest."""
    c = np.asarray(cost, dtype=float)
    mask = np.asarray(feasible, dtype=bool)
    if c.shape != mask.shape:
        raise ValueError(f"shape mismatch: cost {c.shape} vs mask {mask.shape}")
    return np.where(mask, c, INFEASIBLE)


def matching_cascade(
    cost: np.ndarray, ages: np.ndarray, max_depth: int, threshold: float
) -> Matching:
    """Age-prioritized assignment: recently updated tracks get first claim.

    `cost` is the (tracks, detections) cost matrix and `ages[i]` row i's
    time since its last update. Iterates over the ages in ascending order;
    at age d, 1 <= d <= max_depth, only the rows of that age compete for the
    detections still unmatched, on `cost[np.ix_(rows, unmatched)]`. Entries
    above `threshold` are infeasible.
    """
    cost = np.asarray(cost, dtype=float)
    ages = np.asarray(ages)
    if cost.ndim != 2 or ages.shape != cost.shape[:1]:
        raise ValueError(f"shape mismatch: cost {cost.shape} vs ages {ages.shape}")
    unmatched_dets = list(range(cost.shape[1]))
    pairs: list[tuple[int, int]] = []
    for depth in sorted(set(ages.tolist())):
        if not unmatched_dets:
            break
        if not 1 <= depth <= max_depth:
            continue
        level = np.flatnonzero(ages == depth)
        sub = cost[np.ix_(level, unmatched_dets)]
        m = solve_assignment(np.where(sub > threshold, INFEASIBLE, sub))
        pairs.extend((int(level[r]), unmatched_dets[c]) for r, c in m.pairs)
        unmatched_dets = [unmatched_dets[c] for c in m.unmatched_cols]
    matched_rows = {r for r, _ in pairs}
    return Matching(
        tuple(sorted(pairs)),
        tuple(i for i in range(len(ages)) if i not in matched_rows),
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
