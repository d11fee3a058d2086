import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcmot.assignment import INFEASIBLE, gate, iou_matching, matching_cascade, solve_assignment
from mcmot.config import PipelineConfig
from mcmot.geometry import BoundingBox, CameraStream, Detection
from mcmot.kalman import CHI2_GATE_95
from mcmot.pipeline import process_camera
from mcmot.refine import id_switches
from mcmot.sim import ScenarioConfig, generate
from mcmot.tracker import (
    _CONFIRMED, Tracker, TrackerConfig, TrackTable, appearance_cost,
)


def det(frame, x=50.0, y=50.0, w=20.0, h=40.0, conf=0.9, emb=None):
    return Detection(frame=frame, box=BoundingBox(x, y, w, h), confidence=conf, embedding=emb)


def step(tr, frame, dets):
    """Tracker.step on one frame's Detection list."""
    boxes = np.array([(d.box.x, d.box.y, d.box.w, d.box.h) for d in dets]).reshape(-1, 4)
    embs = np.array([d.embedding for d in dets]) if dets and dets[0].embedding is not None else None
    return tr.step(frame, boxes, np.array([d.confidence for d in dets]), embs)


def step_rows(tr, frame, stream):
    """Tracker.step on one frame's rows of a CameraStream."""
    at = stream.frame == frame
    return tr.step(frame, stream.box[at], stream.confidence[at], stream.embeddings[at])


def embeddings_of(dets):
    """The detections' embeddings as one (n, D) matrix; None if any lacks one."""
    if any(d.embedding is None for d in dets):
        return None
    return np.array([d.embedding for d in dets]) if dets else np.empty((0, 0))


def unit(*values):
    v = np.array(values, dtype=float)
    return v / np.linalg.norm(v)


def ring(table, row):
    """(k, D) view of a row's stored embeddings, k <= budget, in ring order:
    the row's j-th embedding sits at position j % budget."""
    if table.gallery is None:
        return np.empty((0, 0))
    return table.gallery[table.slot[row], :table.fill[row]]


def rows_of(tracker, track_id):
    """The History rows a track owns, in frame order."""
    return np.flatnonzero(tracker.history.owner == track_id)


class TestLifecycle:
    def test_empty_stream_yields_no_tracks(self):
        tr = Tracker(TrackerConfig())
        for f in range(10):
            assert step(tr, f, []).tolist() == []
        assert tr.export_tracklets() == []

    def test_confirmation_after_n_init_hits(self):
        tr = Tracker(TrackerConfig(n_init=3))
        assert step(tr, 0, [det(0)]).tolist() == []
        assert step(tr, 1, [det(1)]).tolist() == []
        out = step(tr, 2, [det(2)])
        assert len(out) == 1
        assert tr.table.status[tr.tracks == out[0]].tolist() == [_CONFIRMED]
        track_id = out[0]
        out = step(tr, 3, [det(3)])
        assert out.tolist() == [track_id]

    def test_deletion_after_max_age_and_fresh_id_on_reappearance(self):
        cfg = TrackerConfig(n_init=1, max_age=3)
        tr = Tracker(cfg)
        (first_id,) = step(tr, 0, [det(0)])
        for f in range(1, cfg.max_age + 2):
            step(tr, f, [])
        assert all(t != first_id for t in tr.tracks)
        (again,) = step(tr, cfg.max_age + 2, [det(cfg.max_age + 2)])
        assert again != first_id

    def test_tentative_unmatched_is_dropped(self):
        tr = Tracker(TrackerConfig(n_init=3))
        step(tr, 0, [det(0)])
        step(tr, 1, [])  # one miss kills a tentative track
        assert len(tr.tracks) == 0
        assert tr.export_tracklets() == []

    def test_frames_must_increase(self):
        tr = Tracker(TrackerConfig())
        step(tr, 5, [])
        with pytest.raises(ValueError):
            step(tr, 5, [])
        with pytest.raises(ValueError):
            step(tr, 4, [])

    def test_ids_strictly_increasing(self):
        tr = Tracker(TrackerConfig(n_init=1))
        for f in range(5):
            step(tr, f, [det(f, x=100.0 * f + 10, y=10.0)])
        # Far-apart boxes never match, so each frame births a fresh id.
        new_ids = tr._confirmed_ids
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


def table_of(streams, budget=100, metric="euclidean"):
    """One TrackTable with a row per stream; row i's embeddings are pushed
    in order, so its ring holds the last `budget` of streams[i]."""
    n = len(streams)
    table = TrackTable(budget, metric)
    table.append(np.arange(1, n + 1), np.zeros((n, 8)), np.zeros((n, 4, 3)), _CONFIRMED)
    for k in range(max((len(s) for s in streams), default=0)):
        rows = np.array([i for i, s in enumerate(streams) if k < len(s)], dtype=np.intp)
        if rows.size:
            table.add_embeddings(rows, np.array([streams[i][k] for i in rows], dtype=float))
    return table


def table_cost(galleries, dets, metric="euclidean"):
    """The tracker's cost for every cell, with a gate that passes all."""
    table = table_of(galleries, metric=metric)
    return appearance_cost(
        table, np.arange(len(table)), embeddings_of(dets),
        np.ones((len(table), len(dets)), dtype=bool),
    )


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
    table = table_of(streams, budget, case["metric"])
    assert [len(ring(table, i)) for i in range(len(table))] == [min(len(s), budget) for s in streams]
    dets = [det(0, emb=np.array(e, dtype=float)) for e in case["dets"]]
    feasible = case["gating"] <= CHI2_GATE_95
    got = appearance_cost(table, rows, embeddings_of(dets), feasible)
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
            step(tr, f, [det(f)])
        (tl,) = tr.export_tracklets()
        assert len(tl.frames) == len(tl.boxes) == len(tl.confidences) == 42
        assert tl.frames.tolist() == list(range(42))

    def test_overlapping_lifetimes_distinct_ids(self):
        tr = Tracker(TrackerConfig(n_init=1))
        for f in range(10):
            step(tr, f, [det(f, x=10), det(f, x=500)])
        tls = tr.export_tracklets()
        assert len(tls) == 2
        assert tls[0].track_id != tls[1].track_id

    def test_includes_deleted_confirmed_tracks(self):
        tr = Tracker(TrackerConfig(n_init=1, max_age=2))
        for f in range(3):
            step(tr, f, [det(f)])
        for f in range(3, 10):
            step(tr, f, [])
        for f in range(10, 13):
            step(tr, f, [det(f)])
        tls = tr.export_tracklets()
        assert len(tls) == 2  # original died, reappearance got a new id

    def test_never_confirmed_dropped(self):
        tr = Tracker(TrackerConfig(n_init=5))
        for f in range(3):
            step(tr, f, [det(f)])
        step(tr, 3, [])
        assert tr.export_tracklets() == []


class TestDeterminism:
    def _run(self, stream):
        tr = Tracker(TrackerConfig(n_init=2, max_age=5))
        for f, dets in stream:
            step(tr, f, dets)
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
        stepped = []  # the embedding of each History row, in step order
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
            step(tr, f, dets)
            stepped += [d.embedding for d in dets]
            assert all(len(ring(tr.table, row)) <= cfg.nn_budget for row in range(len(tr.tracks)))
            assert tr.table.gallery is None or tr.table.gallery.shape[1] <= cfg.nn_budget
            for row, track_id in enumerate(tr.tracks):
                # The ring holds the track's last nn_budget embeddings, the
                # j-th at position j % nn_budget.
                embeddings = [stepped[i] for i in rows_of(tr, track_id)]
                n = len(embeddings)
                want = {j % cfg.nn_budget: embeddings[j] for j in range(max(0, n - cfg.nn_budget), n)}
                gallery = ring(tr.table, row)
                assert len(gallery) == len(want)
                assert all(np.array_equal(gallery[k], e) for k, e in want.items())

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
                step(tr, f, dets)
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
            step(tr, f, dets)
            last = [tr.history.take(rows_of(tr, track_id)[-1:]) for track_id in tr.tracks]
            boxes_this_frame = [tuple(box[0]) for frame, box, _ in last if frame[0] == f]
            assert len(boxes_this_frame) == len(set(boxes_this_frame))


@st.composite
def embedding_streams(draw):
    """A tracker config and a stream of frames for it: a few tracks that
    move, appear and vanish, with embeddings of D in {1, 2, 3, 32} holding
    -0.0 values, and clutter detections."""
    dim = draw(st.sampled_from([1, 2, 3, 32]))
    n_init = draw(st.integers(1, 3))
    values = st.sampled_from([-0.0, 0.0, 1.0, -2.5, 1e-300, 3.25e7]) | st.floats(-1e3, 1e3)
    tracks = draw(st.lists(st.tuples(st.integers(0, 25), st.integers(1, 25),
                                     st.floats(20.0, 600.0)), min_size=1, max_size=4))
    frames = []
    for f in range(30):
        dets = []
        for k, (born, life, x) in enumerate(tracks):
            if born <= f < born + life and draw(st.integers(0, 9)):
                dets.append(((x + 3.0 * (f - born), 80.0 * k + 20.0, 20.0, 40.0),
                             draw(st.lists(values, min_size=dim, max_size=dim))))
        if draw(st.integers(0, 4)) == 0:
            dets.append(((draw(st.floats(0.0, 600.0)), 400.0, 15.0, 30.0),
                         draw(st.lists(values, min_size=dim, max_size=dim))))
        frames.append(dets)
    return TrackerConfig(n_init=n_init, max_age=draw(st.integers(1, 5))), frames


class TestPooledEmbeddings:
    @settings(max_examples=200, deadline=None)
    @given(embedding_streams())
    def test_pooled_embedding_is_the_mean_of_the_stepped_rows(self, case):
        # Each exported embedding is, byte for byte, np.mean over the
        # embeddings its track was given, in frame order, kept here.
        cfg, frames = case
        tr = Tracker(cfg)
        stepped = []  # the embedding of each History row, in step order
        for f, dets in enumerate(frames):
            boxes = np.array([b for b, _ in dets]).reshape(-1, 4)
            embs = np.array([e for _, e in dets]) if dets else None
            tr.step(f, boxes, np.full(len(dets), 0.9), embs)
            stepped += [e for _, e in dets]
        for t in tr.export_tracklets():
            rows = rows_of(tr, t.track_id)
            want = np.mean(np.array([stepped[i] for i in rows]), axis=0)
            assert t.embedding.tobytes() == want.tobytes()


class TestInputValidation:
    """Malformed detections are a ValueError before the tracker changes, as
    file ingest rejects them: "detection i: <message>", with the message
    process_camera gives for the same row."""

    RANGE = "out of range: |x|, |y|, w, h, w/h and h/w must be at most 1e+150"

    @pytest.mark.parametrize(
        "box, conf, emb, message",
        [
            ((np.nan, 50.0, 20.0, 40.0), 0.9, None, "non-finite box or confidence"),
            ((50.0, 50.0, np.inf, 40.0), 0.9, None, "non-finite box or confidence"),
            ((50.0, 50.0, 20.0, 40.0), np.nan, None, "non-finite box or confidence"),
            ((50.0, 50.0, 20.0, 40.0), 1.5, None, "confidence 1.5 outside [0, 1]"),
            ((50.0, 50.0, 20.0, 40.0), -0.25, None, "confidence -0.25 outside [0, 1]"),
            ((50.0, 50.0, 20.0, 40.0), 0.9, (np.nan, 0.0), "non-finite embedding value"),
            ((50.0, 50.0, 20.0, 40.0), 0.9, (0.0, -np.inf), "non-finite embedding value"),
            ((50.0, 50.0, 0.0, 40.0), 0.9, None, "non-positive box size 0.0x40.0"),
            ((50.0, 50.0, -5.0, 40.0), 0.9, None, "non-positive box size -5.0x40.0"),
            ((50.0, 50.0, 20.0, 0.0), 0.9, None, "non-positive box size 20.0x0.0"),
            ((1000.0, 500.0, 1e-14, 1e-14), 0.9, None,
             "box size 1e-14x1e-14 vanishes at (1000.0, 500.0): x + w == x or y + h == y"),
            ((0.0, -1e300, 7.0, 1e-290), 0.9, None,
             "box size 7.0x1e-290 vanishes at (0.0, -1e+300): x + w == x or y + h == y"),
            ((0.0, 0.0, 1e-200, 1e-200), 0.9, None,
             "box size 1e-200x1e-200 has zero area in float64: w * h == 0"),
            ((0.0, 0.0, 1e200, 1e200), 0.9, None, f"box (0.0, 0.0, 1e+200, 1e+200) {RANGE}"),
            ((-2e150, 0.0, 1e140, 1.0), 0.9, None, f"box (-2e+150, 0.0, 1e+140, 1.0) {RANGE}"),
            ((0.0, 0.0, 1e150, 1e-300), 0.9, None, f"box (0.0, 0.0, 1e+150, 1e-300) {RANGE}"),
            ((50.0, 50.0, 20.0, 40.0), 0.9, (0.0, -1e101),
             "embedding value -1e+101 out of range: every embedding value must be within "
             "[-1e+100, 1e+100]"),
            # The detection rules come before the embedding rule, as file
            # ingest reads the detections file before the embeddings file.
            ((50.0, 50.0, 0.0, 40.0), 0.9, (np.nan, 1e300), "non-positive box size 0.0x40.0"),
            ((0.0, 0.0, 1e200, 1e200), 0.9, (1e300, 0.0),
             f"box (0.0, 0.0, 1e+200, 1e+200) {RANGE}"),
        ],
        ids=["nan-x", "inf-w", "nan-conf", "conf-above", "conf-below", "nan-emb", "inf-emb",
             "zero-w", "negative-w", "zero-h",
             "vanishing-w", "vanishing-h", "zero-area", "huge-size", "huge-x", "huge-aspect",
             "huge-emb", "nan-emb-before-box-size", "box-range-before-huge-emb"],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rejected_before_any_state_changes(self, box, conf, emb, message):
        tr = Tracker(TrackerConfig(n_init=1))
        embs = None if emb is None else np.array([emb])
        with pytest.raises(ValueError) as stepped:
            tr.step(0, np.array([box]), np.array([conf]), embs)
        assert str(stepped.value) == f"detection 0: {message}"
        assert len(tr.tracks) == 0 and len(tr.history.owner) == 0
        # The frame was not consumed: it can be stepped again with valid input.
        valid = None if emb is None else np.array([unit(1, 0)])
        assert tr.step(0, np.array([[50.0, 50.0, 20.0, 40.0]]), np.array([0.9]), valid).tolist() == [1]
        # process_camera names the same row with the same message.
        stream = CameraStream(frame=np.zeros(1, dtype=np.int64), det_id=np.zeros(1, dtype=np.int64),
                              box=np.array([box]), confidence=np.array([conf]),
                              class_id=np.zeros(1, dtype=np.int64), embeddings=embs)
        with pytest.raises(ValueError) as processed:
            process_camera(0, stream, PipelineConfig())
        assert str(processed.value) == f"camera 0: detection 0: {message}"


class TestMotionOnly:
    def test_tracks_without_embeddings(self):
        tr = Tracker(TrackerConfig(n_init=2, max_age=5))
        for f in range(10):
            step(tr, f, [det(f, x=50 + 2.0 * f)])
        tls = tr.export_tracklets()
        assert len(tls) == 1
        assert tls[0].embedding is None
        assert len(tls[0].frames) == 10

    @pytest.mark.parametrize("first_has_embedding", [True, False])
    def test_mixed_embedding_stream_rejected(self, first_has_embedding):
        tr = Tracker(TrackerConfig(n_init=1))
        emb = unit(1, 0)
        step(tr, 0, [det(0, emb=emb if first_has_embedding else None)])
        step(tr, 1, [])  # an empty frame carries none either way
        with pytest.raises(ValueError, match="all carry embeddings or none"):
            step(tr, 2, [det(2, emb=None if first_has_embedding else emb)])

    def test_confirmed_track_survives_multi_frame_gap_via_iou(self):
        tr = Tracker(TrackerConfig(n_init=1, max_age=10))
        step(tr, 0, [det(0)])
        step(tr, 1, [])
        step(tr, 2, [])
        out = step(tr, 3, [det(3)])
        assert len(out) == 1  # same track re-acquired by IoU in motion-only mode
        assert out[0] == 1


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
            for f in range(cfg_noise.frames):
                step_rows(tr, f, streams[0])
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
        for f in range(cfg.frames):
            step_rows(tr, f, streams[0])
        tls = tr.export_tracklets()
        assert len(tls) == cfg.identities
        assert id_switches(tls, truth.frames_of(0)) == 0


# ----------------------------------------------------------------------
# Association oracle: the list-based association that the detection->row
# vector replaced, kept as the reference. Matching holds only its pairs, so
# the reference derives the unmatched rows and columns from them.


def unmatched(pairs, n, axis):
    """The indices in range(n) that no pair uses at position `axis`, ascending."""
    used = {p[axis] for p in pairs}
    return [i for i in range(n) if i not in used]


def reference_associate(tracker, tlwh, xyah, embs):
    """(matches, unmatched_tracks, unmatched_dets): (table row, detection)
    pairs, then the rows and the detections left unmatched."""
    cfg = tracker.config
    table = tracker.table
    use_appearance = embs is not None
    in_cascade = table.status == _CONFIRMED
    confirmed = np.flatnonzero(in_cascade)
    unconfirmed = np.flatnonzero(~in_cascade).tolist()

    matches = []
    if confirmed.size and use_appearance:
        cost = tracker._gated_cost(confirmed, embs, xyah)
        if cfg.single_shot_matching:
            cost = np.where(cost > cfg.max_appearance_distance, INFEASIBLE, cost)
            m = solve_assignment(cost)
        else:
            m = matching_cascade(
                cost, table.time_since_update[confirmed], cfg.max_age,
                cfg.max_appearance_distance,
            )
        confirmed = confirmed.tolist()
        matches = [(confirmed[r], c) for r, c in m.pairs]
        unmatched_confirmed = [confirmed[r] for r in unmatched(m.pairs, len(confirmed), 0)]
        unmatched_dets = unmatched(m.pairs, len(tlwh), 1)
    else:
        unmatched_confirmed = confirmed.tolist()
        unmatched_dets = list(range(len(tlwh)))

    if use_appearance:
        tsu = table.time_since_update
        iou_candidates = unconfirmed + [i for i in unmatched_confirmed if tsu[i] == 1]
        leftover = [i for i in unmatched_confirmed if tsu[i] != 1]
    else:
        iou_candidates = unconfirmed + unmatched_confirmed
        leftover = []

    if iou_candidates and unmatched_dets:
        m = iou_matching(
            table.predicted_tlwh(iou_candidates), tlwh[unmatched_dets], cfg.max_iou_distance
        )
        matches += [(iou_candidates[r], unmatched_dets[c]) for r, c in m.pairs]
        unmatched_tracks = leftover + [
            iou_candidates[r] for r in unmatched(m.pairs, len(iou_candidates), 0)
        ]
        unmatched_dets = [unmatched_dets[c] for c in unmatched(m.pairs, len(unmatched_dets), 1)]
    else:
        unmatched_tracks = leftover + iou_candidates
    return matches, unmatched_tracks, unmatched_dets


# Boxes on a small grid: equal entries give IoU ties, near ones compete, and
# the last is far from the rest. Embeddings: two orthogonal ones and a third
# 0.0998 (euclidean) from the first, inside the default 0.2 threshold.
ORACLE_BOXES = [(0.0, 0.0, 20.0, 40.0), (0.0, 0.0, 20.0, 40.0), (4.0, 0.0, 20.0, 40.0),
                (0.0, 6.0, 20.0, 40.0), (14.0, 0.0, 20.0, 40.0), (300.0, 200.0, 30.0, 60.0)]
ORACLE_EMBS = [unit(1, 0, 0), unit(0, 1, 0), unit(1, 0.1, 0)]


def run_against_reference(cfg, frames, with_embeddings):
    """Step a tracker through `frames` (lists of (box, embedding) indices),
    checking every association against the reference. Returns the number
    of (matched, unmatched track) rows seen."""
    tr = Tracker(cfg)
    associate = tr._associate
    seen = [0, 0]

    def checked(tlwh, xyah, embs):
        matches, unmatched_tracks, unmatched_dets = reference_associate(tr, tlwh, xyah, embs)
        det_row = associate(tlwh, xyah, embs)
        want = np.full(len(tlwh), -1)
        for r, c in matches:
            want[c] = r
        assert det_row.dtype == np.intp and det_row.tolist() == want.tolist()
        absent = sorted(set(range(len(tr.table))) - set(det_row.tolist()))
        assert absent == sorted(unmatched_tracks)
        assert np.flatnonzero(det_row < 0).tolist() == unmatched_dets
        seen[0] += len(matches)
        seen[1] += len(unmatched_tracks)
        return det_row

    tr._associate = checked
    for f, dets in enumerate(frames):
        boxes = np.array([ORACLE_BOXES[b] for b, _ in dets]).reshape(-1, 4)
        embs = np.array([ORACLE_EMBS[e] for _, e in dets]) if with_embeddings and dets else None
        tr.step(f, boxes, np.full(len(dets), 0.9), embs)
    return seen


@st.composite
def association_streams(draw):
    cfg = TrackerConfig(
        n_init=draw(st.integers(1, 3)), max_age=draw(st.integers(1, 4)),
        single_shot_matching=draw(st.booleans()),
        appearance_metric=draw(st.sampled_from(["euclidean", "cosine"])),
    )
    detection = st.tuples(st.integers(0, len(ORACLE_BOXES) - 1),
                          st.integers(0, len(ORACLE_EMBS) - 1))
    frames = draw(st.lists(st.lists(detection, max_size=6), min_size=1, max_size=16))
    return cfg, frames, draw(st.booleans())


class TestAssociationOracle:
    """Tracker._associate's detection->row vector holds exactly the matches
    of the list-based reference, and the rows absent from it are the
    reference's unmatched tracks."""

    @settings(max_examples=200, deadline=None)
    @given(case=association_streams())
    def test_same_association_as_reference(self, case):
        run_against_reference(*case)

    @pytest.mark.parametrize("single_shot", [False, True])
    @pytest.mark.parametrize("with_embeddings", [False, True])
    def test_random_streams_exercise_matches_and_misses(self, with_embeddings, single_shot):
        rng = np.random.default_rng(23)
        seen = [0, 0]
        for _ in range(20):
            cfg = TrackerConfig(n_init=int(rng.integers(1, 4)), max_age=int(rng.integers(1, 5)),
                                single_shot_matching=single_shot)
            frames = [
                [(int(rng.integers(len(ORACLE_BOXES))), int(rng.integers(len(ORACLE_EMBS))))
                 for _ in range(int(rng.integers(0, 6)))]
                for _ in range(15)
            ]
            got = run_against_reference(cfg, frames, with_embeddings)
            seen = [a + b for a, b in zip(seen, got)]
        assert seen[0] > 0 and seen[1] > 0
