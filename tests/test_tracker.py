import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcmot.assignment import INFEASIBLE, gate
from mcmot.geometry import BoundingBox, Detection
from mcmot.kalman import CHI2_GATE_95
from mcmot.refine import id_switches
from mcmot.sim import ScenarioConfig, generate
from mcmot.tracker import Track, Tracker, TrackerConfig, TrackStatus, TrackTable, appearance_cost


def det(frame, x=50.0, y=50.0, w=20.0, h=40.0, conf=0.9, emb=None):
    return Detection(frame=frame, box=BoundingBox(x, y, w, h), confidence=conf, embedding=emb)


def unit(*values):
    v = np.array(values, dtype=float)
    return v / np.linalg.norm(v)


class TestLifecycle:
    def test_empty_stream_yields_no_tracks(self):
        tr = Tracker(TrackerConfig())
        for f in range(10):
            assert tr.step(f, []) == []
        assert tr.export_tracklets() == []

    def test_confirmation_after_n_init_hits(self):
        tr = Tracker(TrackerConfig(n_init=3))
        assert tr.step(0, [det(0)]) == []
        assert tr.step(1, [det(1)]) == []
        out = tr.step(2, [det(2)])
        assert len(out) == 1
        assert out[0].status is TrackStatus.CONFIRMED
        track_id = out[0].track_id
        out = tr.step(3, [det(3)])
        assert [t.track_id for t in out] == [track_id]

    def test_deletion_after_max_age_and_fresh_id_on_reappearance(self):
        cfg = TrackerConfig(n_init=1, max_age=3)
        tr = Tracker(cfg)
        (first,) = tr.step(0, [det(0)])
        first_id = first.track_id
        for f in range(1, cfg.max_age + 2):
            tr.step(f, [])
        assert all(t.track_id != first_id for t in tr.tracks)
        (again,) = tr.step(cfg.max_age + 2, [det(cfg.max_age + 2)])
        assert again.track_id != first_id

    def test_tentative_unmatched_is_dropped(self):
        tr = Tracker(TrackerConfig(n_init=3))
        tr.step(0, [det(0)])
        tr.step(1, [])  # one miss kills a tentative track
        assert tr.tracks == []
        assert tr.export_tracklets() == []

    def test_frames_must_increase(self):
        tr = Tracker(TrackerConfig())
        tr.step(5, [])
        with pytest.raises(ValueError):
            tr.step(5, [])
        with pytest.raises(ValueError):
            tr.step(4, [])

    def test_ids_strictly_increasing(self):
        tr = Tracker(TrackerConfig(n_init=1))
        ids = []
        for f in range(5):
            out = tr.step(f, [det(f, x=100.0 * f + 10, y=10.0)])
            ids.extend(t.track_id for t in out if t.hits == 1)
        # Far-apart boxes never match, so each frame births a fresh id.
        new_ids = [t.track_id for t in tr._finished + tr.tracks]
        assert sorted(new_ids) == new_ids == list(range(1, 6))


def reference_cost(galleries, dets, metric="euclidean"):
    """Reference appearance cost over every (track, detection) cell: min over
    each track's gallery (k, D) of the embedding distance to each detection
    (plain L2 by default, 1 - cosine optional). The tracker computes the
    gated-in cells only; gate(reference_cost(...), feasible) is its oracle."""
    if any(len(g) == 0 for g in galleries):
        raise ValueError("appearance_cost requires a non-empty gallery per track")
    if any(d.embedding is None for d in dets):
        raise ValueError("appearance_cost requires an embedding per detection")
    if not galleries or not dets:
        return np.zeros((len(galleries), len(dets)))
    gallery = np.concatenate([np.asarray(g, dtype=float) for g in galleries], axis=0)
    sizes = [len(g) for g in galleries]
    offsets = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    embs = np.stack([d.embedding for d in dets])
    dots = gallery @ embs.T
    if metric == "euclidean":
        g2 = np.einsum("ij,ij->i", gallery, gallery)[:, None]
        e2 = np.einsum("ij,ij->i", embs, embs)[None, :]
        dist = np.sqrt(np.clip(g2 + e2 - 2.0 * dots, 0.0, None))
    elif metric == "cosine":
        g_norm = np.linalg.norm(gallery, axis=1, keepdims=True)
        e_norm = np.linalg.norm(embs, axis=1, keepdims=True)
        dist = 1.0 - dots / np.clip(g_norm * e_norm.T, 1e-12, None)
    else:
        raise ValueError(f"unknown appearance metric: {metric!r}")
    return np.minimum.reduceat(dist, offsets, axis=0)


def tracks_of(streams, budget=100, metric="euclidean"):
    """One Track per stream, all rows of one TrackTable; track i's embeddings
    are pushed in order, so its ring holds the last `budget` of streams[i]."""
    table = TrackTable(budget, metric)
    table.append(np.zeros((len(streams), 8)), np.zeros((len(streams), 8, 8)), 1)
    for k in range(max((len(s) for s in streams), default=0)):
        rows = np.array([i for i, s in enumerate(streams) if k < len(s)], dtype=np.intp)
        if rows.size:
            table.add_embeddings(rows, np.array([streams[i][k] for i in rows], dtype=float))
    return [Track(track_id=i + 1, table=table, row=i) for i in range(len(streams))]


def table_cost(galleries, dets, metric="euclidean"):
    """The tracker's cost for every cell, with a gate that passes all."""
    tracks = tracks_of(galleries, metric=metric)
    return appearance_cost(tracks, dets, np.ones((len(tracks), len(dets)), dtype=bool))


class TestAppearanceCost:
    def test_zero_for_gallery_member(self):
        d = det(0, emb=unit(1, 0, 0))
        cost = table_cost([[unit(1, 0, 0)]], [d])
        assert cost[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_min_over_gallery(self):
        d = det(0, emb=unit(0, 1))
        assert table_cost([[unit(1, 0), unit(0, 1)]], [d])[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_unit_vectors_sqrt2(self):
        d = det(0, emb=unit(0, 1))
        assert table_cost([[unit(1, 0)]], [d])[0, 0] == pytest.approx(np.sqrt(2), abs=1e-9)

    def test_cosine_metric(self):
        d = det(0, emb=unit(0, 1))
        assert table_cost([[unit(1, 0)]], [d], metric="cosine")[0, 0] == pytest.approx(1.0, abs=1e-9)

    def test_missing_embedding_signalled(self):
        with pytest.raises(ValueError):
            table_cost([[unit(1, 0)]], [det(0)])
        with pytest.raises(ValueError):
            table_cost([[]], [det(0, emb=unit(1, 0))])


# Embedding entries on a grid of eighths: every product and partial sum is
# exact in float64, so both costs must agree bit for bit whatever the
# summation order; any difference is a logic error, not rounding.
GRID = st.integers(-16, 16).map(lambda k: k / 8.0)


@st.composite
def gated_cost_case(draw):
    dim = draw(st.integers(1, 5))
    vector = st.lists(GRID, min_size=dim, max_size=dim)
    streams = draw(st.lists(st.lists(vector, min_size=1, max_size=12), min_size=1, max_size=5))
    dets = draw(st.lists(vector, min_size=0, max_size=6))
    rows = draw(st.lists(st.sampled_from(range(len(streams))), unique=True, min_size=1))
    gating = draw(st.lists(
        st.lists(st.floats(0.0, 2 * CHI2_GATE_95), min_size=len(dets), max_size=len(dets)),
        min_size=len(rows), max_size=len(rows),
    ))
    reject_all = draw(st.booleans())
    return {
        "budget": draw(st.integers(1, 5)),
        "metric": draw(st.sampled_from(["euclidean", "cosine"])),
        "streams": streams,
        "dets": dets,
        "rows": sorted(rows),
        "gating": np.array(gating).reshape(len(rows), len(dets)) + (np.inf if reject_all else 0.0),
    }


def check_against_oracle(case):
    """Gate-first cost equals gate(reference_cost(...), gating <= CHI2_GATE_95);
    returns the number of cells that differ in any bit."""
    budget, streams, rows = case["budget"], case["streams"], case["rows"]
    tracks = tracks_of(streams, budget, case["metric"])
    assert [len(t.gallery) for t in tracks] == [min(len(s), budget) for s in streams]
    dets = [det(0, emb=np.array(e, dtype=float)) for e in case["dets"]]
    feasible = case["gating"] <= CHI2_GATE_95
    got = appearance_cost([tracks[i] for i in rows], dets, feasible)
    galleries = [np.asarray(streams[i][-budget:], dtype=float) for i in rows]
    want = gate(reference_cost(galleries, dets, case["metric"]), feasible)
    assert np.array_equal(got == INFEASIBLE, want == INFEASIBLE)
    assert np.all(got[~feasible] == INFEASIBLE)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    return int(np.count_nonzero(got != want))


class TestGateFirstOracle:
    @settings(max_examples=400, deadline=None)
    @given(gated_cost_case())
    def test_exact_on_grid_embeddings(self, case):
        assert check_against_oracle(case) == 0

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    @pytest.mark.parametrize("dim", [1, 2, 8, 32])
    def test_within_1e12_on_unit_embeddings(self, metric, dim):
        # Realistic unit-length embeddings: the two costs sum their dot
        # products in different orders, so a cell may differ in its last bits.
        rng = np.random.default_rng(dim)

        def vectors(n):
            v = rng.normal(size=(n, dim))
            return (v / np.linalg.norm(v, axis=1, keepdims=True)).tolist()

        for budget in range(1, 6):
            for _ in range(20):
                streams = [vectors(rng.integers(1, 13)) for _ in range(rng.integers(1, 6))]
                dets = vectors(rng.integers(0, 7))
                rows = sorted(rng.choice(len(streams), rng.integers(1, len(streams) + 1), replace=False))
                gating = rng.uniform(0.0, 2 * CHI2_GATE_95, (len(rows), len(dets)))
                check_against_oracle({"budget": budget, "metric": metric, "streams": streams,
                                      "dets": dets, "rows": rows, "gating": gating})


class TestExport:
    def test_history_length(self):
        tr = Tracker(TrackerConfig(n_init=1))
        for f in range(42):
            tr.step(f, [det(f)])
        (tl,) = tr.export_tracklets()
        assert len(tl.frames) == len(tl.boxes) == len(tl.confidences) == 42
        assert tl.frames.tolist() == list(range(42))

    def test_overlapping_lifetimes_distinct_ids(self):
        tr = Tracker(TrackerConfig(n_init=1))
        for f in range(10):
            tr.step(f, [det(f, x=10), det(f, x=500)])
        tls = tr.export_tracklets()
        assert len(tls) == 2
        assert tls[0].track_id != tls[1].track_id

    def test_includes_deleted_confirmed_tracks(self):
        tr = Tracker(TrackerConfig(n_init=1, max_age=2))
        for f in range(3):
            tr.step(f, [det(f)])
        for f in range(3, 10):
            tr.step(f, [])
        for f in range(10, 13):
            tr.step(f, [det(f)])
        tls = tr.export_tracklets()
        assert len(tls) == 2  # original died, reappearance got a new id

    def test_never_confirmed_dropped(self):
        tr = Tracker(TrackerConfig(n_init=5))
        for f in range(3):
            tr.step(f, [det(f)])
        tr.step(3, [])
        assert tr.export_tracklets() == []


class TestDeterminism:
    def _run(self, stream):
        tr = Tracker(TrackerConfig(n_init=2, max_age=5))
        for f, dets in stream:
            tr.step(f, dets)
        return [
            (t.camera_id, t.track_id, t.frames.tolist(), t.boxes.tolist(), t.confidences.tolist())
            for t in tr.export_tracklets()
        ]

    def test_identical_streams_identical_output(self):
        rng = np.random.default_rng(21)
        stream = []
        for f in range(60):
            dets = []
            for _ in range(rng.integers(0, 4)):
                e = rng.normal(size=8)
                dets.append(
                    det(
                        f,
                        x=float(rng.uniform(0, 500)),
                        y=float(rng.uniform(0, 300)),
                        conf=float(rng.uniform(0.5, 1)),
                        emb=e / np.linalg.norm(e),
                    )
                )
            stream.append((f, dets))
        assert self._run(stream) == self._run(stream)


class TestGalleryBudget:
    def test_gallery_never_exceeds_budget_over_random_steps(self):
        cfg = TrackerConfig(n_init=1, nn_budget=5, max_age=10)
        tr = Tracker(cfg)
        rng = np.random.default_rng(22)
        centers = [(60.0, 60.0), (300.0, 200.0), (520.0, 90.0)]
        for f in range(10_000):
            dets = []
            for cx, cy in centers:
                if rng.random() < 0.5:
                    e = rng.normal(size=4)
                    dets.append(
                        det(
                            f,
                            x=cx + float(rng.normal(0, 1)),
                            y=cy + float(rng.normal(0, 1)),
                            emb=e / np.linalg.norm(e),
                        )
                    )
            tr.step(f, dets)
            assert all(len(t.gallery) <= cfg.nn_budget for t in tr.tracks)
            assert tr.table.gallery is None or tr.table.gallery.shape[1] <= cfg.nn_budget
            for t in tr.tracks:
                # The ring holds the track's last nn_budget embeddings, the
                # j-th at position j % nn_budget.
                n = len(t.embeddings)
                want = {j % cfg.nn_budget: t.embeddings[j] for j in range(max(0, n - cfg.nn_budget), n)}
                assert len(t.gallery) == len(want)
                assert all(np.array_equal(t.gallery[k], e) for k, e in want.items())

    def test_budget_beyond_int64_tracks_like_an_unreached_budget(self):
        rng = np.random.default_rng(5)
        stream = []
        for f in range(30):
            embs = [rng.normal(size=4) for _ in range(2)]
            stream.append([det(f, x=10.0 + f, emb=embs[0] / np.linalg.norm(embs[0])),
                           det(f, x=300.0 - f, emb=embs[1] / np.linalg.norm(embs[1]))])
        exports = []
        for budget in (10**400, 1000):
            tr = Tracker(TrackerConfig(n_init=1, nn_budget=budget))
            for f, dets in enumerate(stream):
                tr.step(f, dets)
            exports.append(tr.export_tracklets())
        huge, reference = exports
        assert len(huge) == len(reference) == 2
        for a, b in zip(huge, reference):
            assert a.track_id == b.track_id
            assert np.array_equal(a.frames, b.frames) and np.array_equal(a.boxes, b.boxes)
            assert np.array_equal(a.embedding, b.embedding)

    def test_no_detection_shared_between_tracks(self):
        tr = Tracker(TrackerConfig(n_init=1))
        for f in range(20):
            dets = [det(f, x=10), det(f, x=200)]
            tr.step(f, dets)
            boxes_this_frame = [
                t.history[-1][1] for t in tr.tracks if t.history and t.history[-1][0] == f
            ]
            assert len(boxes_this_frame) == len(set(boxes_this_frame))


class TestMotionOnly:
    def test_tracks_without_embeddings(self):
        tr = Tracker(TrackerConfig(n_init=2, max_age=5))
        for f in range(10):
            tr.step(f, [det(f, x=50 + 2.0 * f)])
        tls = tr.export_tracklets()
        assert len(tls) == 1
        assert tls[0].embedding is None
        assert len(tls[0].frames) == 10

    def test_confirmed_track_survives_multi_frame_gap_via_iou(self):
        tr = Tracker(TrackerConfig(n_init=1, max_age=10))
        tr.step(0, [det(0)])
        tr.step(1, [])
        tr.step(2, [])
        out = tr.step(3, [det(3)])
        assert len(out) == 1  # same track re-acquired by IoU in motion-only mode
        assert out[0].track_id == 1


class TestSingleShotMatching:
    def test_matches_cascade_when_ages_equal(self):
        cfg_noise = ScenarioConfig(
            seed=6, cameras=1, identities=4, frames=60, embedding_dim=16,
            embedding_noise_sigma=0.05,
        )
        _, streams = generate(cfg_noise)
        outputs = []
        for single_shot in (False, True):
            tr = Tracker(
                TrackerConfig(n_init=3, max_age=30, single_shot_matching=single_shot),
                camera_id=0,
            )
            by_frame = {}
            for d in streams[0]:
                by_frame.setdefault(d.frame, []).append(d)
            for f in range(cfg_noise.frames):
                tr.step(f, by_frame.get(f, []))
            outputs.append(
                [(t.track_id, t.frames.tolist(), t.boxes[:, :2].tolist())
                 for t in tr.export_tracklets()]
            )
        # Without misses every track stays at age 1, where the cascade
        # degenerates to a single assignment round.
        assert outputs[0] == outputs[1]


class TestZeroNoiseScenario:
    def test_exact_identity_recovery_single_camera(self):
        cfg = ScenarioConfig(seed=5, cameras=1, identities=6, frames=100, embedding_dim=32)
        truth, streams = generate(cfg)
        tr = Tracker(TrackerConfig(n_init=3, max_age=30), camera_id=0)
        by_frame = {}
        for d in streams[0]:
            by_frame.setdefault(d.frame, []).append(d)
        for f in range(cfg.frames):
            tr.step(f, by_frame.get(f, []))
        tls = tr.export_tracklets()
        assert len(tls) == cfg.identities
        assert id_switches(tls, truth.frames_of(0)) == 0
