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


# Both passes first rule out with a cheap bound the pairs that cannot change
# a decision, and call _row_distances only on the rest, so every decision
# still rests on _row_distances alone. The bound works on blocks of at most
# _BLOCK centroids at a time, each against every centroid it is checked with,
# as batched matrix-vector products.
_BLOCK = 32


def _far(P: np.ndarray, p_sq: np.ndarray, Q: np.ndarray, q_sq: np.ndarray, threshold: float,
         q_reach2: np.ndarray | float = 0.0) -> np.ndarray:
    """(len(P), len(Q)) mask, True where _row_distances is sure to put every
    point within sqrt(q_reach2[j]) of Q[j] farther than threshold from P[i].
    p_sq and q_sq are the rows' squared norms, in any summation order.

    Why a True is safe (u = eps/2 is the unit roundoff; D the width). With
    a = P[i], b = Q[j] and s = |a - b|^2:
    - s~ = |a|^2 + |b|^2 - 2a.b, as computed, is within
      E = (D + 4) * eps * (|a|^2 + |b|^2) of s: each of the three dot
      products errs by at most D*u times its sum of |products|, in any
      summation order, and the two additions by u on at most
      2(|a|^2 + |b|^2). Gradual underflow adds at most D*u*tiny per term.
    - _row_distances(X, b) errs by at most (D + 4)*u relative to each true
      distance: one rounding per difference, D per sum of squares and one
      per square root. The squared member distances behind q_reach2 are
      computed from differences the same way, so each true distance is at
      most (D + 4)*u above its computed value.
    - By the triangle inequality, a point within r of b is at least
      sqrt(s) - r from a. So it is enough that sqrt(s) exceed
      (threshold + r) * (1 + (D + 4)*u), plus the underflow terms.
    The test below asks for s~ - kappa*(|a|^2 + |b|^2) - delta >
    ((threshold + sqrt(r^2 + delta)) * (1 + kappa))^2, with
    kappa = 10^6 * (D + 4) * eps and delta = (D + 4) * tiny: each slack is
    10^6 times the worst error it covers, which also absorbs the rounding of
    the test itself. A nan or inf anywhere makes the test False, so such a
    pair goes to _row_distances. A False only costs exact work.
    """
    D = P.shape[1]
    kappa = 1e6 * (D + 4) * np.finfo(float).eps
    delta = (D + 4) * np.finfo(float).tiny
    # Values past about 1e154 (ingest caps them at 1e100) may overflow here
    # where the exact distance would not; the pair then goes to the kernel.
    with np.errstate(invalid="ignore", over="ignore"):
        norms = p_sq[:, None] + q_sq[None, :]
        s = norms - 2 * (P[:, None, :] @ Q.T[None])[:, 0, :]
        reach = (threshold + np.sqrt(q_reach2 + delta)) * (1 + kappa)
        return s - kappa * norms - delta > np.square(reach)


def _sq_norms(X: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", X, X)


def _greedy_pass(units: Sequence[list[int]], E: np.ndarray, threshold: float) -> list[list[int]]:
    """Greedy agglomeration of units (row lists of E): each unit joins the
    nearest existing cluster by centroid distance if within threshold, else
    opens a new cluster. Ties go to the earliest cluster. The units are not
    mutated.

    Until the first join every cluster is one unit, with that unit's
    centroid. So every unit before the first one that _far cannot rule out
    against some earlier unit opens a cluster, as the loop would: those
    clusters are opened at once, and the loop runs from that unit on.
    """
    n = len(units)
    # Row i is the centroid of clusters[i]; only the absorbing row changes.
    centroids = np.empty((n, E.shape[1]))
    sq = np.empty(n)
    opened = n
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        for i in range(start, stop):
            centroids[i] = _centroid(E, units[i])
        sq[start:stop] = _sq_norms(centroids[start:stop])
        far = _far(centroids[start:stop], sq[start:stop], centroids[:stop], sq[:stop], threshold)
        reached = (~far & (np.arange(stop) < np.arange(start, stop)[:, None])).any(axis=1)
        if reached.any():
            opened = start + int(np.argmax(reached))
            break
    clusters = [list(unit) for unit in units[:opened]]
    for unit in units[opened:]:
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
    each merge costs O(M*D + k*D + k^2) for M members and k clusters. A
    column counts exactly only the members of the clusters that _far cannot
    rule out against b's centroid, given each cluster's reach (its members'
    largest distance to its centroid); the rest count 0.
    """
    live = [list(c) for c in clusters]
    k = len(live)
    if k < 2:
        return live
    sizes = np.array([len(c) for c in live])
    owner = np.repeat(np.arange(k), sizes)
    rows = np.concatenate(live)  # each member's row of E, in owner order
    # Pairs that may vote: distinct clusters, neither one merged away.
    allowed = ~np.eye(k, dtype=bool)
    alive = np.ones(k, dtype=bool)
    # Row b is _centroid(E, live[b]), bit for bit; sq[b] is its squared norm
    # and reach2[b] the largest squared distance of b's members from it.
    centroids = np.empty((k, E.shape[1]))
    for b in range(k):
        centroids[b] = _centroid(E, live[b])
    sq = _sq_norms(centroids)
    reach2 = np.zeros(k)

    def spread(members: np.ndarray) -> None:
        """Raise reach2 to these members' squared distances (by index into
        rows) from their clusters' centroids."""
        for i in range(0, len(members), _BLOCK):
            m = members[i:i + _BLOCK]
            np.maximum.at(reach2, owner[m], _sq_norms(E[rows[m]] - centroids[owner[m]]))

    spread(np.arange(len(rows)))
    inside = np.empty((k, k), dtype=np.int64)

    def count_columns(cols: np.ndarray) -> None:
        """Fill inside[:, cols]; the diagonal is left 0."""
        near = ~_far(centroids[cols], sq[cols], centroids, sq, threshold, reach2) & alive
        near[np.arange(len(cols)), cols] = False
        inside[:, cols] = 0
        for j in np.flatnonzero(near.any(axis=1)):
            b = int(cols[j])
            mine = near[j][owner]
            hit = _row_distances(E[rows[mine]], centroids[b]) <= threshold
            inside[:, b] = np.bincount(owner[mine][hit], minlength=k)

    for start in range(0, k, _BLOCK):
        count_columns(np.arange(start, min(start + _BLOCK, k)))
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
        alive[a] = allowed[a] = allowed[:, a] = False
        centroids[b] = _centroid(E, live[b])
        sq[b] = centroids[b] @ centroids[b]
        reach2[b] = 0.0
        spread(np.flatnonzero(owner == b))
        count_columns(np.array([b]))


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
