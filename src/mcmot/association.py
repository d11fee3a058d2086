"""Two-stage tracklet association across cameras: greedy L2 clustering of
pooled appearance embeddings, with an optional majority-voting merge pass.

Both passes work on one (n, D) matrix E holding each tracklet's pooled
embedding as a row. Within a pass a cluster is the list of its members' rows
of E, in member order, and its centroid is ``np.mean(E[rows], axis=0)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError
from .tracker import Tracklet

METHODS = ("euclidean", "euclidean_voting")


@dataclass(frozen=True)
class AssociationConfig:
    """Tracklet association settings.

    method: "euclidean" (greedy centroid clustering) or "euclidean_voting"
    (greedy clustering followed by the voting merge pass). threshold is the
    L2 distance cutoff; intra_first merges fragmented tracklets within each
    camera before the cross-camera pass.
    """

    method: str = "euclidean"
    threshold: float = 0.5
    intra_first: bool = True

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if not (math.isfinite(self.threshold) and self.threshold > 0):
            raise ValueError(f"threshold must be a finite number > 0, got {self.threshold}")


@dataclass(eq=False)
class Cluster:
    """A set of tracklets judged to be one person across cameras, as the
    (camera_id, track_id) of each member."""

    global_id: int
    members: list[tuple[int, int]] = field(default_factory=list)


def _pooled_matrix(tracklets: Sequence[Tracklet]) -> np.ndarray:
    """The tracklets' pooled embeddings stacked as rows, in order.

    Every tracklet needs an embedding (ConfigError), and every embedding the
    width of the first one (ValueError).
    """
    rows = []
    for t in tracklets:
        if t.embedding is None:
            raise ConfigError(
                f"tracklet (camera {t.camera_id}, track {t.track_id}) has no embeddings; "
                "association requires embedding input"
            )
        rows.append(np.asarray(t.embedding, dtype=float))
    for t, e in zip(tracklets, rows):
        if len(e) != len(rows[0]):
            first = tracklets[0]
            raise ValueError(
                f"tracklet (camera {t.camera_id}, track {t.track_id}) has a {len(e)}-wide "
                f"embedding, but tracklet (camera {first.camera_id}, track {first.track_id}) "
                f"has a {len(rows[0])}-wide one"
            )
    return np.stack(rows) if rows else np.empty((0, 0))


def _row_distances(X: np.ndarray, c: np.ndarray) -> np.ndarray:
    """L2 distance from each row of X to c.

    Each row's squared norm is a batched vector-vector matmul, which uses
    the same dot kernel as ``np.linalg.norm`` on a 1-D array, so every entry
    is bit-identical to ``np.linalg.norm(X[i] - c)``. ``norm(..., axis=1)``
    and ``einsum`` sum in another order and are not.
    """
    d = X - c
    return np.sqrt((d[:, None, :] @ d[:, :, None])[:, 0, 0])


def _centroid(E: np.ndarray, rows: Sequence[int]) -> np.ndarray:
    """``np.mean(E[rows], axis=0)``, bit for bit: the same sum divided by the
    same count, without np.mean's per-call overhead (a pass takes thousands).
    A one-member centroid is that member's row (a view of E)."""
    return E[rows[0]] if len(rows) == 1 else np.add.reduce(E[rows], axis=0) / len(rows)


def _greedy_pass(units: Sequence[list[int]], E: np.ndarray, threshold: float) -> list[list[int]]:
    """Greedy agglomeration of units (row lists of E): each unit joins the
    nearest existing cluster by centroid distance if within threshold, else
    opens a new cluster. Ties go to the earliest cluster. The units are not
    mutated."""
    clusters: list[list[int]] = []
    # Row i is the centroid of clusters[i]; only the absorbing row changes.
    centroids = np.empty((len(units), E.shape[1]))
    for unit in units:
        centroid = _centroid(E, unit)
        if clusters:
            dists = _row_distances(centroids[: len(clusters)], centroid)
            best = int(np.argmin(dists))
            if dists[best] <= threshold:
                clusters[best].extend(unit)
                centroids[best] = _centroid(E, clusters[best])
                continue
        centroids[len(clusters)] = centroid
        clusters.append(list(unit))
    return clusters


def voting_merge(clusters: Sequence[list[int]], E: np.ndarray, threshold: float) -> list[list[int]]:
    """Majority-voting merge of clusters (row lists of E) to a deterministic
    fixpoint.

    A member of A is inside B iff its row's L2 distance to B's centroid is
    <= threshold. While any ordered pair (A, B) has strictly more than half
    of A's members inside B, the first such pair in ascending (position of
    A, position of B) order is merged: A's members are appended to B's and
    A is dropped. The inputs are not mutated.

    inside[a, b] counts a's members inside b. A merge of a into b adds row a
    to row b and recomputes column b alone (only b's centroid moved), so
    each merge costs O(M*D + k^2) for M members and k clusters.
    """
    live = [list(c) for c in clusters]
    k = len(live)
    if k < 2:
        return live
    sizes = np.array([len(c) for c in live])
    owner = np.repeat(np.arange(k), sizes)
    members = E[np.concatenate(live)]
    # Pairs that may vote: distinct clusters, neither one merged away.
    allowed = ~np.eye(k, dtype=bool)
    alive = np.ones(k, dtype=bool)

    def inside_column(b: int) -> np.ndarray:
        near = _row_distances(members, _centroid(E, live[b])) <= threshold
        return np.bincount(owner[near], minlength=k)

    inside = np.empty((k, k), dtype=np.int64)
    for b in range(k):
        inside[:, b] = inside_column(b)
    while True:
        majority = allowed & (2 * inside > sizes[:, None])
        first = int(np.argmax(majority))
        a, b = divmod(first, k)
        if not majority[a, b]:
            return [c for c, keep in zip(live, alive) if keep]
        live[b].extend(live[a])
        sizes[b] += sizes[a]
        owner[owner == a] = b
        inside[b] += inside[a]
        inside[:, b] = inside_column(b)
        alive[a] = allowed[a] = allowed[:, a] = False


def associate_methods(
    per_camera: Mapping[int, Sequence[Tracklet]], cfg: AssociationConfig, methods: Sequence[str]
) -> list[list[Cluster]]:
    """associate_multicamera's clusters under each of the given methods, in
    order; cfg.method is not read.

    The pooled matrix E is built once, and each distinct greedy pass runs
    once: _greedy_pass is a pure function of its units, E and the threshold,
    so its result is kept for the call, keyed on the units' rows. Both
    methods share each camera's pass over its singletons; when no camera's
    vote merges, they share the cross-camera pass too. A kept result is
    never mutated: the passes copy their units, and the clusters built here
    read the rows alone.
    """
    for method in methods:
        replace(cfg, method=method)  # AssociationConfig rejects an unknown method
    tracklets = [
        t for cam in sorted(per_camera)
        for t in sorted(per_camera[cam], key=lambda t: (t.camera_id, t.track_id))
    ]
    E = _pooled_matrix(tracklets)
    keys = [(t.camera_id, t.track_id) for t in tracklets]
    passes: dict[tuple[tuple[int, ...], ...], list[list[int]]] = {}

    def cluster_rows(units: Sequence[list[int]], method: str) -> list[list[int]]:
        key = tuple(map(tuple, units))
        if key not in passes:
            passes[key] = _greedy_pass(units, E, cfg.threshold)
        if method == "euclidean_voting":
            return voting_merge(passes[key], E, cfg.threshold)
        return passes[key]

    results = []
    for method in methods:
        units: list[list[int]] = []
        start = 0
        for cam in sorted(per_camera):
            singles = [[r] for r in range(start, start + len(per_camera[cam]))]
            start += len(singles)
            units.extend(cluster_rows(singles, method) if cfg.intra_first else singles)
        results.append([
            Cluster(global_id=i + 1, members=[keys[r] for r in rows])
            for i, rows in enumerate(cluster_rows(units, method))
        ])
    return results


def associate_multicamera(
    per_camera: Mapping[int, Sequence[Tracklet]], cfg: AssociationConfig
) -> list[Cluster]:
    """Cluster tracklets into global identities across cameras.

    Tracklets are visited in camera order, then (camera_id, track_id)
    order. With intra_first, the configured method first merges fragmented
    tracklets within each camera; the resulting per-camera clusters are then
    pooled and clustered across cameras. Global ids are assigned in
    discovery order starting at 1. Every tracklet's embedding must have the
    width of the first tracklet's (ValueError otherwise).
    """
    return associate_methods(per_camera, cfg, [cfg.method])[0]
