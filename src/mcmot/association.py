"""Two-stage tracklet association across cameras: greedy L2 clustering of
pooled appearance embeddings, with an optional majority-voting merge pass."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError
from .tracker import Tracklet

METHODS = ("euclidean", "voting", "euclidean_voting")


@dataclass(frozen=True)
class AssociationConfig:
    """Tracklet association settings.

    method: "euclidean" (greedy centroid clustering), "voting" (singleton
    clusters merged by majority voting), or "euclidean_voting" (greedy
    clustering followed by the voting merge pass). threshold is the L2
    distance cutoff; intra_first merges fragmented tracklets within each
    camera before the cross-camera pass.
    """

    method: str = "euclidean"
    threshold: float = 0.5
    intra_first: bool = True

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.threshold <= 0:
            raise ValueError("threshold must be > 0")


@dataclass(eq=False)
class Cluster:
    """A set of tracklets judged to be one person across cameras.

    member_embeddings holds one pooled (per-tracklet mean) embedding per
    member; the centroid is their arithmetic mean.
    """

    global_id: int
    members: list[tuple[int, int]] = field(default_factory=list)
    member_embeddings: list[np.ndarray] = field(default_factory=list)
    centroid: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def recompute_centroid(self) -> None:
        self.centroid = np.mean(np.asarray(self.member_embeddings), axis=0)

    def absorb(self, other: "Cluster") -> None:
        self.members.extend(other.members)
        self.member_embeddings.extend(other.member_embeddings)
        self.recompute_centroid()


def _singleton(t: Tracklet, global_id: int) -> Cluster:
    if t.embedding is None:
        raise ConfigError(
            f"tracklet (camera {t.camera_id}, track {t.track_id}) has no embeddings; "
            "association requires embedding input"
        )
    e = np.asarray(t.embedding, dtype=float)
    return Cluster(
        global_id=global_id,
        members=[(t.camera_id, t.track_id)],
        member_embeddings=[e],
        centroid=e.copy(),
    )


def _row_distances(X: np.ndarray, c: np.ndarray) -> np.ndarray:
    """L2 distance from each row of X to c.

    Each row's squared norm is a batched vector-vector matmul, which uses
    the same dot kernel as ``np.linalg.norm`` on a 1-D array, so every entry
    is bit-identical to ``np.linalg.norm(X[i] - c)``. ``norm(..., axis=1)``
    and ``einsum`` sum in another order and are not.
    """
    d = X - c
    return np.sqrt((d[:, None, :] @ d[:, :, None])[:, 0, 0])


def _greedy_pass(units: list[Cluster], threshold: float) -> list[Cluster]:
    """Greedy agglomeration: each unit joins the nearest existing cluster by
    centroid distance if within threshold, else opens a new cluster. Ties go
    to the earliest cluster."""
    clusters: list[Cluster] = []
    if not units:
        return clusters
    # Row i is clusters[i].centroid; only the absorbing row changes.
    centroids = np.empty((len(units), units[0].centroid.shape[0]))
    for unit in units:
        if clusters:
            dists = _row_distances(centroids[: len(clusters)], unit.centroid)
            best = int(np.argmin(dists))
            if dists[best] <= threshold:
                clusters[best].absorb(unit)
                centroids[best] = clusters[best].centroid
                continue
        centroids[len(clusters)] = unit.centroid
        clusters.append(
            Cluster(
                global_id=len(clusters) + 1,
                members=list(unit.members),
                member_embeddings=list(unit.member_embeddings),
                centroid=unit.centroid.copy(),
            )
        )
    return clusters


def euclidean_associate(tracklets: Sequence[Tracklet], threshold: float) -> list[Cluster]:
    """Greedy agglomerative clustering of tracklet mean embeddings.

    Tracklets are visited in (camera_id, track_id) order; centroids are
    recomputed after every assignment.
    """
    ordered = sorted(tracklets, key=lambda t: (t.camera_id, t.track_id))
    return _greedy_pass([_singleton(t, i + 1) for i, t in enumerate(ordered)], threshold)


def voting_merge(clusters: Sequence[Cluster], threshold: float) -> list[Cluster]:
    """Majority-voting merge to a deterministic fixpoint.

    A member embedding of A is inside B iff its L2 distance to B's centroid
    is <= threshold. While any ordered pair (A, B) has strictly more than
    half of A's member embeddings inside B, the first such pair in ascending
    (global_id_A, global_id_B) order is merged (A into B). The inputs are
    not mutated.

    inside[a, b] counts a's members inside b. A merge of a into b adds row a
    to row b and recomputes column b alone (only b's centroid moved), so
    each merge costs O(M*D + k^2) for M member embeddings and k clusters.
    """
    live = [
        Cluster(
            global_id=c.global_id,
            members=list(c.members),
            member_embeddings=list(c.member_embeddings),
            centroid=c.centroid.copy(),
        )
        for c in sorted(clusters, key=lambda c: c.global_id)
    ]
    k = len(live)
    if k < 2:
        return live
    sizes = np.array([len(c.member_embeddings) for c in live])
    owner = np.repeat(np.arange(k), sizes)
    embeddings = np.asarray([e for c in live for e in c.member_embeddings])
    gids = np.array([c.global_id for c in live])
    alive = np.ones(k, dtype=bool)
    # Pairs that may vote: distinct global ids, neither cluster retired.
    allowed = gids[:, None] != gids[None, :]

    def inside_column(b: int) -> np.ndarray:
        near = _row_distances(embeddings, live[b].centroid) <= threshold
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
        live[b].absorb(live[a])
        sizes[b] += sizes[a]
        owner[owner == a] = b
        inside[b] += inside[a]
        inside[:, b] = inside_column(b)
        alive[a] = allowed[a] = allowed[:, a] = False


def _run_method(units: list[Cluster], method: str, threshold: float) -> list[Cluster]:
    if method == "euclidean":
        return _greedy_pass(units, threshold)
    if method == "voting":
        return voting_merge(units, threshold)
    if method == "euclidean_voting":
        return voting_merge(_greedy_pass(units, threshold), threshold)
    raise ValueError(f"method must be one of {METHODS}, got {method!r}")


def associate_multicamera(
    per_camera: Mapping[int, Sequence[Tracklet]], cfg: AssociationConfig
) -> list[Cluster]:
    """Cluster tracklets into global identities across cameras.

    With intra_first, the configured method first merges fragmented tracklets
    within each camera; the resulting per-camera clusters are then pooled and
    clustered across cameras. Global ids are assigned in ascending discovery
    order starting at 1. Every tracklet's embedding must have the width of
    the first tracklet's (ValueError otherwise).
    """
    by_camera: list[list[Cluster]] = []
    for camera_id in sorted(per_camera):
        tracklets = sorted(per_camera[camera_id], key=lambda t: (t.camera_id, t.track_id))
        by_camera.append([_singleton(t, 0) for t in tracklets])
    _check_widths([s for singles in by_camera for s in singles])
    units: list[Cluster] = []
    for singles in by_camera:
        for i, s in enumerate(singles):
            s.global_id = len(units) + i + 1
        if cfg.intra_first:
            intra = _run_method(singles, cfg.method, cfg.threshold)
            for c in intra:
                c.global_id = len(units) + 1
                units.append(c)
        else:
            units.extend(singles)
    clusters = _run_method(units, cfg.method, cfg.threshold)
    clusters.sort(key=lambda c: c.global_id)
    for i, c in enumerate(clusters):
        c.global_id = i + 1
    return clusters


def _check_widths(singles: Sequence[Cluster]) -> None:
    if not singles:
        return
    first = singles[0]
    for s in singles:
        if len(s.centroid) != len(first.centroid):
            (cam, track), (cam0, track0) = s.members[0], first.members[0]
            raise ValueError(
                f"tracklet (camera {cam}, track {track}) has a {len(s.centroid)}-wide "
                f"embedding, but tracklet (camera {cam0}, track {track0}) has a "
                f"{len(first.centroid)}-wide one"
            )


def count_unique(clusters: Sequence[Cluster]) -> int:
    """Number of distinct identities: one per cluster."""
    return len(clusters)
