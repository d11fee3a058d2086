from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcmot import association
from mcmot.association import (
    AssociationConfig, Cluster, _row_distances, associate_methods, associate_multicamera, voting_merge
)
from mcmot.config import PipelineConfig
from mcmot.pipeline import process_camera
from mcmot.sim import ScenarioConfig, generate
from mcmot.tracker import Tracker, TrackerConfig, Tracklet


def one_pass(tracklets, threshold):
    """Greedy clustering of all tracklets in one pass, visited in
    (camera_id, track_id) order."""
    cfg = AssociationConfig(threshold=threshold, intra_first=False)
    return associate_multicamera({0: tracklets}, cfg)


def make_tracklet(camera_id, track_id, embeddings):
    """A tracklet with one frame per embedding, pooled as the tracker pools them."""
    n = len(embeddings)
    return Tracklet(
        camera_id=camera_id,
        track_id=track_id,
        frames=list(range(n)),
        boxes=np.zeros((n, 4)),
        confidences=[0.9] * n,
        embedding=np.mean(np.asarray(embeddings, dtype=float), axis=0),
    )


def clusters_over(*groups):
    """Each group's embeddings as consecutive rows of one matrix E, and each
    group as the list of its rows: the form the association passes take."""
    E = np.asarray([e for g in groups for e in g], dtype=float)
    ends = np.cumsum([len(g) for g in groups]).tolist()
    return [list(range(end - len(g), end)) for g, end in zip(groups, ends)], E


def pooled_by_tracker(embeddings):
    """The embedding a Tracker exports for one track whose per-frame
    detections carry these embeddings."""
    tracker = Tracker(TrackerConfig(n_init=1))
    box = np.array([[10.0, 10.0, 40.0, 80.0]])
    for f, e in enumerate(embeddings):
        tracker.step(f, box, np.array([0.9]), np.asarray(e, dtype=float)[None])
    (t,) = tracker.export_tracklets()
    assert t.frames.tolist() == list(range(len(embeddings)))
    return t.embedding


class TestMeanEmbedding:
    def test_single_embedding(self):
        np.testing.assert_array_equal(pooled_by_tracker([[1.0, 0.0]]), [1.0, 0.0])

    def test_arithmetic_mean(self):
        np.testing.assert_allclose(pooled_by_tracker([[1.0, 0.0], [0.0, 1.0]]), [0.5, 0.5])

    def test_mean_of_copies_is_identity(self):
        e = np.array([0.6, 0.8])
        np.testing.assert_allclose(pooled_by_tracker([e] * 7), e)

    def test_embeddingless_rejected(self):
        t = Tracklet(
            camera_id=0, track_id=1, frames=[0], boxes=np.zeros((1, 4)), confidences=[1.0],
            embedding=None,
        )
        with pytest.raises(ValueError, match="no embeddings"):
            one_pass([t], 0.5)


class TestEuclideanAssociate:
    def test_single_tracklet(self):
        clusters = one_pass([make_tracklet(0, 1, [[1.0, 0.0]])], 0.5)
        assert len(clusters) == 1
        assert clusters[0].global_id == 1
        assert clusters[0].members == [(0, 1)]

    def test_identical_means_merge(self):
        ts = [make_tracklet(0, 1, [[1.0, 0.0]]), make_tracklet(1, 1, [[1.0, 0.0]])]
        assert len(one_pass(ts, 1e-6)) == 1

    def test_threshold_splits_chain(self):
        # Pairwise mean distances {0.1, 0.1, 0.15}: one cluster at tau 0.5,
        # three singletons at tau 0.05.
        a = np.array([0.0, 0.0])
        b = np.array([0.1, 0.0])
        c = np.array([0.05, np.sqrt(0.1**2 - 0.05**2)])
        assert np.linalg.norm(a - b) == pytest.approx(0.1)
        assert np.linalg.norm(a - c) == pytest.approx(0.1)
        assert np.linalg.norm(b - c) == pytest.approx(0.1)
        ts = [make_tracklet(0, i + 1, [v]) for i, v in enumerate((a, b, c * 1.5))]
        assert len(one_pass(ts, 0.5)) == 1
        assert len(one_pass(ts, 0.05)) == 3

    def test_exact_tie_goes_to_earliest_cluster(self):
        # Tracklet 3 lies exactly 0.5 from both clusters' centroids.
        ts = [make_tracklet(0, i + 1, [[v]]) for i, v in enumerate((-0.5, 0.5, 0.0))]
        clusters = one_pass(ts, 0.5)
        assert [c.members for c in clusters] == [[(0, 1), (0, 3)], [(0, 2)]]

    def test_centroid_invariant(self):
        # A centroid is the mean of the members' rows of E, in member order:
        # bit-identical to the mean of the members' embeddings as a list,
        # and a one-member centroid is that member's row.
        rng = np.random.default_rng(31)
        E = rng.normal(size=(60, 64))
        for _ in range(200):
            rows = rng.choice(60, size=int(rng.integers(1, 12)), replace=False).tolist()
            listed = np.mean(np.asarray([E[r] for r in rows]), axis=0)
            assert np.mean(E[rows], axis=0).tobytes() == listed.tobytes()
        for r in range(60):
            assert np.mean(E[[r]], axis=0).tobytes() == E[r].tobytes()

    def test_partition_property(self):
        rng = np.random.default_rng(32)
        ts = [make_tracklet(cam, tid, rng.normal(size=(2, 4))) for cam in range(3) for tid in range(4)]
        for tau in (0.1, 1.0, 10.0):
            clusters = one_pass(ts, tau)
            members = [m for c in clusters for m in c.members]
            assert sorted(members) == sorted((t.camera_id, t.track_id) for t in ts)

    def test_count_non_increasing_in_tau(self):
        rng = np.random.default_rng(33)
        ts = [make_tracklet(0, i, rng.normal(size=(2, 8))) for i in range(12)]
        taus = np.linspace(0.01, 8.0, 25)
        counts = [len(one_pass(ts, float(t))) for t in taus]
        assert all(a >= b for a, b in zip(counts, counts[1:]))


class TestVotingMerge:
    def test_identical_singletons_merge(self):
        clusters, E = clusters_over([[1.0, 0.0]], [[1.0, 0.0]])
        assert len(voting_merge(clusters, E, 0.5)) == 1

    def test_minority_does_not_merge(self):
        # Exactly 1 of A's 3 members inside B: 1/3 <= 1/2, no merge.
        clusters, E = clusters_over([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]], [[0.0, 0.0]])
        assert voting_merge(clusters, E, 0.5) == [[0, 1, 2], [3]]

    def test_majority_merges(self):
        # 2 of A's 3 members inside B: 2/3 > 1/2, merged into B.
        clusters, E = clusters_over([[0.0, 0.0], [0.1, 0.0], [0.0, 10.0]], [[0.0, 0.0]])
        assert voting_merge(clusters, E, 0.5) == [[3, 0, 1, 2]]

    def test_never_increases_count_and_idempotent(self):
        rng = np.random.default_rng(34)
        for _ in range(20):
            clusters, E = clusters_over(*([e] for e in rng.normal(size=(8, 4))))
            once = voting_merge(clusters, E, 1.5)
            assert len(once) <= len(clusters)
            twice = voting_merge(once, E, 1.5)
            assert twice == once

    def test_inputs_not_mutated(self):
        clusters, E = clusters_over([[1.0, 0.0]], [[1.0, 0.0]])
        voting_merge(clusters, E, 0.5)
        assert clusters == [[0], [1]]


def run_scenario_tracklets(cfg):
    truth, streams = generate(cfg)
    per_camera = {}
    pc = PipelineConfig(tracker=TrackerConfig(n_init=3, max_age=30))
    for cam, stream in streams.items():
        per_camera[cam] = process_camera(cam, stream, pc, total_frames=cfg.frames).tracklets
    return truth, per_camera


class TestAssociateMulticamera:
    def test_single_camera_single_tracklet(self):
        per_camera = {0: [make_tracklet(0, 1, [[1.0, 0.0]])]}
        clusters = associate_multicamera(per_camera, AssociationConfig())
        assert [(c.global_id, c.members) for c in clusters] == [(1, [(0, 1)])]

    def test_same_identity_across_three_cameras(self):
        cfg = ScenarioConfig(seed=41, cameras=3, identities=1, frames=60, embedding_dim=16)
        _, per_camera = run_scenario_tracklets(cfg)
        clusters = associate_multicamera(per_camera, AssociationConfig(threshold=0.5))
        assert len(clusters) == 1
        assert sorted(c for c, _ in clusters[0].members) == [0, 1, 2]

    def test_two_identities_across_three_cameras(self):
        cfg = ScenarioConfig(
            seed=42, cameras=3, identities=2, frames=60, embedding_dim=16,
            identity_min_separation=1.0,
        )
        _, per_camera = run_scenario_tracklets(cfg)
        for method in association.METHODS:
            clusters = associate_multicamera(
                per_camera, AssociationConfig(method=method, threshold=0.5)
            )
            assert len(clusters) == 2

    def test_global_ids_sequential(self):
        rng = np.random.default_rng(43)
        per_camera = {
            cam: [make_tracklet(cam, tid, [rng.normal(size=8)]) for tid in range(1, 4)]
            for cam in range(2)
        }
        clusters = associate_multicamera(per_camera, AssociationConfig(threshold=0.1))
        assert [c.global_id for c in clusters] == list(range(1, len(clusters) + 1))

    def test_determinism(self):
        rng = np.random.default_rng(44)
        per_camera = {
            cam: [make_tracklet(cam, tid, rng.normal(size=(2, 8))) for tid in range(1, 5)]
            for cam in range(3)
        }
        cfg = AssociationConfig(method="euclidean_voting", threshold=1.0)
        a = associate_multicamera(per_camera, cfg)
        b = associate_multicamera(per_camera, cfg)
        assert [(c.global_id, c.members) for c in a] == [(c.global_id, c.members) for c in b]

    @pytest.mark.parametrize("intra_first", [True, False])
    def test_mismatched_embedding_widths_rejected(self, intra_first):
        per_camera = {
            0: [make_tracklet(0, 1, [[0.5]]), make_tracklet(0, 2, [[0.5]])],
            1: [make_tracklet(1, 4, [[1.0, 2.0, 3.0]]), make_tracklet(1, 5, [[1.0]])],
        }
        cfg = AssociationConfig(intra_first=intra_first)
        with pytest.raises(ValueError, match=r"\(camera 1, track 4\) has a 3-wide embedding"):
            associate_multicamera(per_camera, cfg)

    def test_intra_first_merges_fragments(self):
        # Two fragments of one identity in camera 0 plus the same identity in
        # camera 1 collapse to a single cluster.
        e = np.array([1.0, 0.0, 0.0])
        per_camera = {
            0: [make_tracklet(0, 1, [e]), make_tracklet(0, 2, [e + 0.01])],
            1: [make_tracklet(1, 1, [e - 0.01])],
        }
        clusters = associate_multicamera(per_camera, AssociationConfig(threshold=0.3))
        assert len(clusters) == 1
        assert len(clusters[0].members) == 3


class TestExactRecovery:
    def test_margin_guarantee(self):
        # d_in <= tau < d_out - d_in guarantees exact recovery of the
        # identity partition by the greedy pass.
        rng = np.random.default_rng(45)
        for trial in range(10):
            centers = rng.normal(size=(4, 16))
            centers /= np.linalg.norm(centers, axis=1, keepdims=True)
            centers *= 4.0  # pairwise distance ~5.6 = d_out
            tracklets = []
            tid = 0
            for k, c in enumerate(centers):
                for _ in range(3):
                    tid += 1
                    jitter = rng.normal(size=16)
                    jitter *= 0.2 / np.linalg.norm(jitter)  # d_in <= 0.4
                    tracklets.append(make_tracklet(0, tid, [c + jitter]))
            d_out = min(
                np.linalg.norm(a - b) for i, a in enumerate(centers) for b in centers[i + 1 :]
            )
            d_in = 0.4
            assert d_in <= 1.0 < d_out - d_in
            clusters = one_pass(tracklets, 1.0)
            assert len(clusters) == 4
            got = {frozenset(m[1] for m in c.members) for c in clusters}
            want = {frozenset(range(3 * k + 1, 3 * k + 4)) for k in range(4)}
            assert got == want


# ----------------------------------------------------------------------
# Oracle: the loop implementations the array code replaced. They compute
# one np.linalg.norm per (unit, cluster) or (member, cluster) pair, take
# every centroid afresh as the mean of its members' rows, and rescan every
# pair after each merge; the array code must reproduce their clusters and
# global ids exactly.


def centroid(E, rows):
    return np.mean(E[rows], axis=0)


def reference_greedy_pass(units, E, threshold):
    clusters = []
    for unit in units:
        if clusters:
            dists = [float(np.linalg.norm(centroid(E, unit) - centroid(E, c))) for c in clusters]
            best = int(np.argmin(dists))
            if dists[best] <= threshold:
                clusters[best] = clusters[best] + list(unit)
                continue
        clusters.append(list(unit))
    return clusters


def reference_voting_merge(clusters, E, threshold):
    def inside(a, b):
        return sum(float(np.linalg.norm(E[r] - centroid(E, b))) <= threshold for r in a)

    live = [list(c) for c in clusters]
    while True:
        pairs = (
            (a, b)
            for a in range(len(live))
            for b in range(len(live))
            if a != b and 2 * inside(live[a], live[b]) > len(live[a])
        )
        first = next(pairs, None)
        if first is None:
            return live
        a, b = first
        live[b] = live[b] + live[a]
        del live[a]


def snapshot(clusters):
    return [(c.global_id, list(c.members)) for c in clusters]


def reference_associate(per_camera, cfg):
    with mock.patch.object(association, "_greedy_pass", reference_greedy_pass), \
            mock.patch.object(association, "voting_merge", reference_voting_merge):
        return associate_multicamera(per_camera, cfg)


@st.composite
def embedding_sets(draw, max_cameras=3):
    """Per-camera tracklets (1 to max_cameras cameras) whose embeddings come
    from a small pool of grid points on a 0.5 lattice: duplicates give exact
    argmin ties, and lattice distances such as 0.5, 1.0 and 1.5 equal the
    thresholds exactly. Some tracklets average several pool points
    (non-lattice means)."""
    dim = draw(st.integers(1, 4))
    pool = draw(st.lists(
        st.lists(st.integers(-3, 3), min_size=dim, max_size=dim), min_size=1, max_size=6
    ))
    pool = [np.asarray(p, dtype=float) * 0.5 for p in pool]
    per_camera = {}
    for cam in range(draw(st.integers(1, max_cameras))):
        n = draw(st.integers(0, 8))
        per_camera[cam] = [
            make_tracklet(cam, tid, [pool[i] for i in draw(
                st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=3)
            )])
            for tid in range(1, n + 1)
        ]
    return per_camera


THRESHOLDS = st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 100.0])


class TestAssociationOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        per_camera=embedding_sets(),
        method=st.sampled_from(association.METHODS),
        threshold=THRESHOLDS,
        intra_first=st.booleans(),
    )
    def test_matches_loop_reference(self, per_camera, method, threshold, intra_first):
        cfg = AssociationConfig(method=method, threshold=threshold, intra_first=intra_first)
        want = snapshot(reference_associate(per_camera, cfg))
        assert snapshot(associate_multicamera(per_camera, cfg)) == want

    @settings(max_examples=150, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 4), min_size=0, max_size=12),
        dim=st.integers(1, 3),
        threshold=THRESHOLDS,
        data=st.data(),
    )
    def test_passes_on_multi_member_clusters(self, sizes, dim, threshold, data):
        """Each pass on its own, on clusters of several lattice members whose
        rows of E are scattered (not consecutive, not ascending)."""
        points = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)
        E = np.asarray(
            [data.draw(points) for _ in range(sum(sizes))], dtype=float
        ).reshape(-1, dim) * 0.5
        order = data.draw(st.permutations(range(len(E))))
        ends = np.cumsum(sizes).tolist()
        clusters = [order[end - size:end] for size, end in zip(sizes, ends)]
        before = [list(c) for c in clusters]
        assert voting_merge(clusters, E, threshold) == \
            reference_voting_merge(clusters, E, threshold)
        assert association._greedy_pass(clusters, E, threshold) == \
            reference_greedy_pass(clusters, E, threshold)
        assert clusters == before

    def test_merge_heavy_fixpoint(self):
        rng = np.random.default_rng(46)
        clusters, E = clusters_over(*([e] for e in rng.normal(size=(60, 8)) * 0.3))
        got = voting_merge(clusters, E, 0.9)
        assert len(got) < 30
        assert got == reference_voting_merge(clusters, E, 0.9)

    @pytest.mark.parametrize("dim", [1, 4, 7, 32, 33, 128, 512])
    def test_row_distances_bit_identical_to_norm(self, dim):
        rng = np.random.default_rng(dim)
        X = rng.normal(size=(50, dim))
        c = rng.normal(size=dim)
        want = np.array([np.linalg.norm(x - c) for x in X])
        assert _row_distances(X, c).tobytes() == want.tobytes()
        assert _row_distances(X[:7], c).tobytes() == want[:7].tobytes()


# ----------------------------------------------------------------------
# Shared passes: associate_methods runs each distinct greedy pass once. The
# reference is the driver it replaced: one whole association per method,
# sharing nothing.


def reference_multicamera(per_camera, cfg):
    """associate_multicamera as it was before its passes were shared."""
    tracklets = [
        t for cam in sorted(per_camera)
        for t in sorted(per_camera[cam], key=lambda t: (t.camera_id, t.track_id))
    ]
    E = association._pooled_matrix(tracklets)

    def cluster_rows(units):
        clusters = association._greedy_pass(units, E, cfg.threshold)
        if cfg.method == "euclidean_voting":
            clusters = association.voting_merge(clusters, E, cfg.threshold)
        return clusters

    units, start = [], 0
    for cam in sorted(per_camera):
        singles = [[r] for r in range(start, start + len(per_camera[cam]))]
        start += len(singles)
        units.extend(cluster_rows(singles) if cfg.intra_first else singles)
    keys = [(t.camera_id, t.track_id) for t in tracklets]
    return [Cluster(i + 1, [keys[r] for r in rows]) for i, rows in enumerate(cluster_rows(units))]


def reference_methods(per_camera, cfg, methods):
    return [reference_multicamera(per_camera, replace(cfg, method=m)) for m in methods]


def count_passes(per_camera, cfg, methods):
    """associate_methods' clusters, and its _greedy_pass and voting_merge
    calls as (units, result) pairs."""
    calls = {"greedy": [], "vote": []}

    def recorded(name, fn):
        def wrapper(clusters, E, threshold):
            result = fn(clusters, E, threshold)
            calls[name].append((clusters, result))
            return result
        return wrapper

    with mock.patch.object(association, "_greedy_pass",
                           recorded("greedy", association._greedy_pass)), \
            mock.patch.object(association, "voting_merge",
                              recorded("vote", association.voting_merge)):
        got = associate_methods(per_camera, cfg, methods)
    return got, calls


@st.composite
def lattice_walks(draw, max_cameras=4):
    """Per-camera tracklets (1 to max_cameras cameras) whose embeddings walk
    a 0.25 lattice in small steps, one tracklet a step. Greedy centroids
    drift along such chains, so votes merge often: at the thresholds of
    SHARED_THRESHOLDS the methods differ in about one draw in six, and a
    vote merges within a camera in about one in twenty. Many distances
    equal a threshold exactly."""
    dim = draw(st.integers(1, 2))
    step = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)
    per_camera = {}
    for cam in range(draw(st.integers(1, max_cameras))):
        point = np.asarray(draw(step), dtype=float) * 0.25
        tracklets = []
        for tid in range(1, draw(st.integers(0, 12)) + 1):
            point = point + np.asarray(draw(step), dtype=float) * 0.25
            tracklets.append(make_tracklet(cam, tid, [point]))
        per_camera[cam] = tracklets
    return per_camera


SHARED_THRESHOLDS = st.sampled_from([0.25, 0.5, 0.75, 1.0, 1.5, 3.0])
METHOD_LISTS = st.sampled_from([
    ["euclidean", "euclidean_voting"], ["euclidean_voting", "euclidean"],
    ["euclidean"], ["euclidean_voting"],
])


def separated_identities(cameras, identities):
    """Each camera sees each identity once, 4 apart on a one-hot axis, so no
    pass is close to the threshold of 1.0 and no vote merges."""
    rng = np.random.default_rng(47)
    return {
        cam: [make_tracklet(cam, k + 1, [4.0 * np.eye(identities)[k]
                                          + rng.uniform(-0.05, 0.05, identities)])
              for k in range(identities)]
        for cam in range(cameras)
    }


class TestSharedPasses:
    @settings(max_examples=300, deadline=None)
    @given(
        per_camera=st.one_of(embedding_sets(max_cameras=4), lattice_walks()),
        methods=METHOD_LISTS,
        threshold=SHARED_THRESHOLDS,
        intra_first=st.booleans(),
    )
    def test_matches_one_association_per_method(self, per_camera, methods, threshold,
                                                intra_first):
        cfg = AssociationConfig(threshold=threshold, intra_first=intra_first)
        want = [snapshot(c) for c in reference_methods(per_camera, cfg, methods)]
        got, calls = count_passes(per_camera, cfg, methods)
        assert [snapshot(c) for c in got] == want
        # A kept pass is handed out again, never changed: each result still
        # equals a fresh pass over the same units.
        for units, result in calls["greedy"]:
            assert result == reference_greedy_pass(units, association._pooled_matrix(
                [t for cam in sorted(per_camera) for t in per_camera[cam]]), threshold)
        if len(methods) == 1:
            one = associate_multicamera(per_camera, replace(cfg, method=methods[0]))
            assert snapshot(one) == want[0]

    # One pass per camera and one across them. One camera whose pass keeps
    # its singletons hands the cross-camera pass the same units: one pass.
    @pytest.mark.parametrize("cameras, passes", [(1, 1), (2, 3), (3, 4), (4, 5)])
    def test_both_methods_share_every_pass_when_no_vote_merges(self, cameras, passes):
        per_camera = separated_identities(cameras, 5)
        cfg = AssociationConfig(threshold=1.0)
        (euclid, voting), calls = count_passes(
            per_camera, cfg, ["euclidean", "euclidean_voting"])
        assert len(calls["greedy"]) == passes
        assert all(len(r) == len(c) for c, r in calls["vote"])  # no vote merged
        assert snapshot(euclid) == snapshot(voting)
        assert len(euclid) == 5

    def test_one_method_runs_each_pass_once(self):
        per_camera = separated_identities(3, 4)
        for method in association.METHODS:
            _, calls = count_passes(per_camera, AssociationConfig(threshold=1.0), [method])
            assert len(calls["greedy"]) == 4

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="method must be one of"):
            associate_methods(separated_identities(1, 2), AssociationConfig(), ["voting"])


# ----------------------------------------------------------------------
# Bound pruning: both passes skip the exact distances that a centroid bound
# proves cannot change a decision. The loop references above still decide
# every case, and a pruned pass never hands _row_distances more rows than
# the unpruned one did.


def exact_rows(fn, *args):
    """fn(*args), and the number of rows it handed to _row_distances."""
    with mock.patch.object(association, "_row_distances",
                           wraps=association._row_distances) as kernel:
        result = fn(*args)
    return result, sum(len(call.args[0]) for call in kernel.call_args_list)


def unpruned_greedy_rows(units, clusters):
    """Rows the unpruned greedy loop hands _row_distances: one per cluster
    open when each unit arrives. A cluster's first rows are its opener's."""
    unit_of = {row: i for i, unit in enumerate(units) for row in unit}
    openers = [unit_of[c[0]] for c in clusters]
    return sum(sum(o < i for o in openers) for i in range(len(units)))


def unpruned_vote_rows(clusters, merged):
    """Rows the unpruned vote hands _row_distances: every member once per
    column, for each column of the first table and for each merge."""
    return (2 * len(clusters) - len(merged)) * sum(map(len, clusters))


@st.composite
def planted_sets(draw):
    """Row lists over a matrix E whose rows sit at a drawn scale, from 1e-6
    to 1e95, in up to 512 dimensions. Most anchors lie far apart; next to
    some of them a point is planted at threshold * (1 + e), where e is
    +-1e-12 or a value near the bound's slack, so exact decisions and
    pruned ones meet at the threshold."""
    dim = draw(st.sampled_from([1, 2, 3, 7, 32, 33, 128, 512]))
    scale = 10.0 ** draw(st.integers(-6, 95))
    threshold = scale * draw(st.sampled_from([0.5, 1.0, 3.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = []
    for _ in range(draw(st.integers(1, 6))):
        anchor = rng.normal(size=dim) * scale * draw(st.sampled_from([0.1, 2.0, 50.0]))
        points.append(anchor)
        for e in draw(st.lists(
            st.sampled_from([-1e-12, 1e-12, -1e-7, 1e-7, 1e-5, 0.0]), max_size=2
        )):
            v = rng.normal(size=dim)
            points.append(anchor + v / np.linalg.norm(v) * threshold * (1 + e))
    E = np.asarray(points, dtype=float)
    order = draw(st.permutations(range(len(E))))
    sizes = []
    while sum(sizes) < len(E):
        sizes.append(min(draw(st.integers(1, 3)), len(E) - sum(sizes)))
    ends = np.cumsum(sizes).tolist()
    return [order[end - size:end] for size, end in zip(sizes, ends)], E, threshold


class TestBoundPruning:
    @settings(max_examples=300, deadline=None)
    @given(planted=planted_sets(), singletons=st.booleans())
    def test_passes_match_references_at_every_scale(self, planted, singletons):
        groups, E, threshold = planted
        if singletons:
            groups = [[r] for g in groups for r in g]
        greedy, greedy_rows = exact_rows(association._greedy_pass, groups, E, threshold)
        assert greedy == reference_greedy_pass(groups, E, threshold)
        assert greedy_rows <= unpruned_greedy_rows(groups, greedy)
        merged, vote_rows = exact_rows(voting_merge, groups, E, threshold)
        assert merged == reference_voting_merge(groups, E, threshold)
        assert vote_rows <= unpruned_vote_rows(groups, merged)

    @pytest.mark.parametrize("dim", [32, 512])
    def test_separated_singletons_cost_no_exact_rows(self, dim):
        rng = np.random.default_rng(dim)
        E = rng.normal(size=(150, dim))
        E *= 4.0 / np.linalg.norm(E, axis=1, keepdims=True)  # about 5.7 apart
        E[:, 0] += 4.0 * np.arange(150)  # and at least 4 apart on axis 0
        singletons = [[r] for r in range(150)]
        greedy, rows = exact_rows(association._greedy_pass, singletons, E, 1.0)
        assert greedy == singletons and rows == 0
        merged, rows = exact_rows(voting_merge, singletons, E, 1.0)
        assert merged == singletons and rows == 0

    def test_pruning_keeps_the_first_join_exact(self):
        # 40 separated singletons, then one 0.5 from singleton 3: the pass
        # prunes every pair among the 40 and computes the 41st unit's
        # distances to all 40 clusters, as the loop does.
        E = np.zeros((41, 2))
        E[:40, 0] = 4.0 * np.arange(40)
        E[40] = E[3] + [0.0, 0.5]
        units = [[r] for r in range(41)]
        greedy, rows = exact_rows(association._greedy_pass, units, E, 1.0)
        assert greedy == reference_greedy_pass(units, E, 1.0)
        assert greedy[3] == [3, 40] and rows == 40
