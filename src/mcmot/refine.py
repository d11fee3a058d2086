"""Output refinement (false-positive tracklet removal) and counting metrics:
L2-norm count error, count-confusion accuracy/recall/F1, ID-switch counting."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping, Optional, Sequence

import numpy as np

from .assignment import INFEASIBLE, solve_assignment
from .association import Cluster
from .geometry import BoundingBox, iou_matrix
from .tracker import Tracklet


@dataclass(frozen=True)
class RefineConfig:
    """Tracklet survival thresholds; size bounds are exclusive (width must be
    strictly greater than min_width, same for height)."""

    min_width: float = 0.0
    min_height: float = 0.0
    min_track_length: int = 0
    min_mean_confidence: float = 0.0

    def __post_init__(self) -> None:
        if not all(x >= 0 for x in (self.min_width, self.min_height, self.min_track_length,
                                    self.min_mean_confidence)):
            raise ValueError("refine thresholds must be >= 0")


def refine(tracklets: Sequence[Tracklet], cfg: RefineConfig) -> list[Tracklet]:
    """Drop tracklets whose median box is too small, that are too short, or
    whose mean confidence is too low; survivors pass through unchanged."""
    if not tracklets:
        return []
    lengths = np.array([len(t) for t in tracklets])
    mean_confidence = np.array([t.mean_confidence for t in tracklets])
    med_w, med_h = segment_medians(np.concatenate([t.boxes[:, 2:] for t in tracklets]), lengths)
    keep = (
        ~(lengths < cfg.min_track_length)
        & ~(mean_confidence < cfg.min_mean_confidence)
        & (med_w > cfg.min_width)
        & (med_h > cfg.min_height)
    )
    return [t for t, kept in zip(tracklets, keep.tolist()) if kept]


def segment_medians(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """np.median of each column of values over each run of rows, by one sort
    per column.

    values is (sum(lengths), c); run i is the next lengths[i] rows. Returns
    a (c, len(lengths)) array holding, as np.median gives: the middle value
    of an odd run, (lo + hi) / 2 of the two middle values of an even run, and
    NaN for a run holding a NaN or no rows.
    """
    out = np.full((values.shape[1], len(lengths)), np.nan)
    filled = np.flatnonzero(lengths)
    size = lengths[filled]
    start = (np.cumsum(lengths) - lengths)[filled]
    lo, hi, last = start + (size - 1) // 2, start + size // 2, start + size - 1
    run = np.repeat(np.arange(len(lengths)), lengths)
    for column, v in zip(out, values.T):
        v = v[np.lexsort((v, run))]  # ascending within each run, NaN last
        middle = np.where(lo == hi, v[lo], (v[lo] + v[hi]) / 2)
        column[filled] = np.where(np.isnan(v[last]), np.nan, middle)
    return out


def l2_count_error(pred: Sequence[float], truth: Sequence[float]) -> float:
    """Euclidean norm of the per-set count difference vector."""
    p = np.asarray(pred, dtype=float)
    t = np.asarray(truth, dtype=float)
    if p.shape != t.shape:
        raise ValueError(f"count vectors must have equal length: {p.shape} vs {t.shape}")
    return float(np.linalg.norm(p - t))


@dataclass(frozen=True)
class ConfusionCounts:
    """Identity-level counting confusion: TP/FP/FN over unique persons.

    Ratios are None when their denominator is zero (reported as absent).
    """

    tp: int
    fp: int
    fn: int

    @property
    def accuracy(self) -> Optional[float]:
        d = self.tp + self.fp + self.fn
        return self.tp / d if d else None

    @property
    def precision(self) -> Optional[float]:
        d = self.tp + self.fp
        return self.tp / d if d else None

    @property
    def recall(self) -> Optional[float]:
        d = self.tp + self.fn
        return self.tp / d if d else None

    @property
    def f1(self) -> Optional[float]:
        d = 2 * self.tp + self.fp + self.fn
        return 2 * self.tp / d if d else None


def count_confusion(
    pred_ids: Sequence[Optional[Hashable]], truth_ids: Sequence[Hashable]
) -> ConfusionCounts:
    """Confusion counts from per-cluster identity claims.

    pred_ids carries one claimed truth identity per output cluster (None for
    clusters matching nothing). Each truth identity can be claimed once; a
    repeated or unknown claim counts as a false positive, unclaimed truth
    identities as false negatives.
    """
    truth = set(truth_ids)
    if len(truth) != len(truth_ids):
        raise ValueError("truth identities must be unique")
    claimed: set[Hashable] = set()
    tp = fp = 0
    for label in pred_ids:
        if label is not None and label in truth and label not in claimed:
            claimed.add(label)
            tp += 1
        else:
            fp += 1
    return ConfusionCounts(tp=tp, fp=fp, fn=len(truth) - tp)


FrameTruth = Mapping[int, Sequence[tuple[int, BoundingBox]]]


def _frame_correspondence(
    hyp: Sequence[tuple[int, np.ndarray]], truth: Sequence[tuple[int, BoundingBox]]
) -> list[tuple[int, int]]:
    """Match hypothesis ids to truth ids for one frame: min-cost assignment on
    1 - IoU, restricted to pairs with IoU >= 0.5. A hypothesis box is an
    (x, y, w, h) row of a tracklet's boxes."""
    if not hyp or not truth:
        return []
    hb = np.array([b for _, b in hyp])
    tb = np.array([(b.x, b.y, b.w, b.h) for _, b in truth], dtype=float)
    overlap = iou_matrix(hb, tb)
    cost = np.where(overlap >= 0.5, 1.0 - overlap, INFEASIBLE)
    m = solve_assignment(cost)
    return [(hyp[r][0], truth[c][0]) for r, c in m.pairs]


def _boxes_by_frame(
    tracklets: Sequence[Tracklet], ids: Sequence[int]
) -> dict[int, list[tuple[int, np.ndarray]]]:
    """Each frame's (ids[i], box) pairs of tracklet i, in tracklet order: the
    hypotheses _frame_correspondence takes."""
    by_frame: dict[int, list[tuple[int, np.ndarray]]] = {}
    for hyp_id, t in zip(ids, tracklets):
        for f, b in zip(t.frames.tolist(), t.boxes):
            by_frame.setdefault(f, []).append((hyp_id, b))
    return by_frame


def match_tracklets_to_identities(
    tracklets: Sequence[Tracklet], truth_frames: FrameTruth
) -> dict[tuple[int, int], tuple[Optional[int], int]]:
    """Map each tracklet to the truth identity it overlaps most.

    Returns {(camera_id, track_id): (identity or None, matched frame count)}.
    Correspondence is per-frame box overlap (IoU >= 0.5, one-to-one); the
    tracklet's identity is the majority correspondent.
    """
    by_frame = _boxes_by_frame(tracklets, range(len(tracklets)))
    keys = {i: (t.camera_id, t.track_id) for i, t in enumerate(tracklets)}

    votes: dict[int, dict[int, int]] = {i: {} for i in keys}
    for f, hyps in sorted(by_frame.items()):
        truth = truth_frames.get(f, [])
        for hyp_i, identity in _frame_correspondence(hyps, truth):
            votes[hyp_i][identity] = votes[hyp_i].get(identity, 0) + 1

    out: dict[tuple[int, int], tuple[Optional[int], int]] = {}
    for i, counts in votes.items():
        if counts:
            # Majority identity; ties broken by lowest identity for determinism.
            identity = min(counts, key=lambda k: (-counts[k], k))
            out[keys[i]] = (identity, counts[identity])
        else:
            out[keys[i]] = (None, 0)
    return out


def cluster_identity_claims(
    clusters: Sequence[Cluster],
    tracklet_identity: Mapping[tuple[int, int], tuple[Optional[int], int]],
) -> list[Optional[int]]:
    """One claimed identity per cluster, ordered by descending overlap support
    (greedy best-overlap first), for feeding count_confusion."""
    scored: list[tuple[int, int, Optional[int]]] = []
    for c in clusters:
        support: dict[int, int] = {}
        for member in c.members:
            identity, frames = tracklet_identity.get(member, (None, 0))
            if identity is not None:
                support[identity] = support.get(identity, 0) + frames
        if support:
            identity = min(support, key=lambda k: (-support[k], k))
            scored.append((support[identity], c.global_id, identity))
        else:
            scored.append((0, c.global_id, None))
    scored.sort(key=lambda s: (-s[0], s[1]))
    return [identity for _, _, identity in scored]


def id_switches(tracklets: Sequence[Tracklet], truth_frames: FrameTruth) -> int:
    """Count frames where a truth identity's corresponding hypothesis id
    differs from its previous corresponding id (IoU >= 0.5 per-frame match)."""
    by_frame = _boxes_by_frame(tracklets, [t.track_id for t in tracklets])
    last_hyp: dict[int, int] = {}
    switches = 0
    for f in sorted(truth_frames):
        truth = truth_frames[f]
        hyps = by_frame.get(f, [])
        for hyp_id, identity in _frame_correspondence(hyps, truth):
            if identity in last_hyp and last_hyp[identity] != hyp_id:
                switches += 1
            last_hyp[identity] = hyp_id
    return switches
