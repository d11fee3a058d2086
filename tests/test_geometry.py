import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcmot.geometry import (
    EMBEDDING_LIMIT, EMBEDDING_RANGE, BoundingBox, Detection, embedding_fault, first_problem,
    iou, iou_matrix, nms,
)


def boxes(min_size=0.1, max_size=10_000.0):
    coord = st.floats(-1e4, 1e4, allow_nan=False, width=64)
    size = st.floats(min_size, max_size, allow_nan=False, width=64)
    return st.builds(BoundingBox, x=coord, y=coord, w=size, h=size)


class TestIou:
    def test_identical_boxes(self):
        a = BoundingBox(0, 0, 10, 10)
        assert iou(a, a) == 1.0

    def test_disjoint_boxes(self):
        assert iou(BoundingBox(0, 0, 10, 10), BoundingBox(20, 20, 5, 5)) == 0.0

    def test_half_overlap(self):
        # Area oracle: intersection 5*10 = 50, union 100 + 100 - 50 = 150.
        got = iou(BoundingBox(0, 0, 10, 10), BoundingBox(5, 0, 10, 10))
        assert got == pytest.approx(50.0 / 150.0, abs=1e-9)

    def test_edge_touching_is_zero(self):
        assert iou(BoundingBox(0, 0, 10, 10), BoundingBox(10, 0, 10, 10)) == 0.0

    def test_non_positive_area_rejected(self):
        with pytest.raises(ValueError):
            iou(BoundingBox(0, 0, 0, 10), BoundingBox(0, 0, 10, 10))
        with pytest.raises(ValueError):
            iou(BoundingBox(0, 0, 10, 10), BoundingBox(0, 0, 10, -1))

    @given(boxes(), boxes())
    def test_symmetric(self, a, b):
        assert iou(a, b) == iou(b, a)

    @given(boxes())
    def test_self_iou_is_one(self, a):
        assert iou(a, a) == 1.0

    def test_matrix_matches_scalar(self):
        rng = np.random.default_rng(3)
        bs = [
            BoundingBox(rng.uniform(0, 100), rng.uniform(0, 100), rng.uniform(1, 50), rng.uniform(1, 50))
            for _ in range(8)
        ]
        mat = iou_matrix(
            np.array([b.to_array() for b in bs[:5]]), np.array([b.to_array() for b in bs[5:]])
        )
        for i in range(5):
            for j in range(3):
                assert mat[i, j] == pytest.approx(iou(bs[i], bs[5 + j]), abs=1e-12)


def det(x, y, w, h, conf, class_id=0, frame=0):
    return Detection(frame=frame, box=BoundingBox(x, y, w, h), confidence=conf, class_id=class_id)


def nms_dets(dets, overlap_threshold):
    """nms over a Detection list: the kept Detection objects, in nms's order."""
    rows = nms(
        np.array([(d.box.x, d.box.y, d.box.w, d.box.h) for d in dets]).reshape(-1, 4),
        np.array([d.confidence for d in dets]),
        overlap_threshold,
        np.array([d.class_id for d in dets]),
        np.array([d.frame for d in dets]),
    )
    return [dets[i] for i in rows]


def frame_nms(dets, overlap_threshold):
    """Reference NMS for one frame's Detection list: the per-frame nms the
    whole-stream one replaced, one iou_matrix per call."""
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
    kept = []
    for pos, i in enumerate(order):
        if not suppressed[pos]:
            kept.append(dets[i])
            suppressed |= overlaps[pos]
    return kept


def stream_nms(dets, overlap_threshold):
    """Reference NMS for a multi-frame stream: frame_nms on each frame's
    detections (in stream order), frames ascending."""
    frames = sorted({d.frame for d in dets})
    return [k for f in frames for k in frame_nms([d for d in dets if d.frame == f], overlap_threshold)]


def pairwise_nms(dets, overlap_threshold):
    """Reference NMS: the greedy loop with one scalar iou() per compared pair."""
    if not 0.0 <= overlap_threshold <= 1.0:
        raise ValueError(f"overlap_threshold must be in [0, 1], got {overlap_threshold}")
    if not dets:
        return []
    order = sorted(range(len(dets)), key=lambda i: -dets[i].confidence)
    kept = []
    for i in order:
        d = dets[i]
        if all(
            k.class_id != d.class_id or iou(k.box, d.box) <= overlap_threshold for k in kept
        ):
            kept.append(d)
    return kept


def outcome(fn, *args):
    """fn's result, or the type and message of the exception it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


# Coordinates on a coarse grid make equal edges (touching boxes), identical
# boxes and IoU exactly at a threshold common; few confidences make ties.
GRID_COORD = st.integers(0, 12).map(float)
GRID_SIZE = st.integers(1, 6).map(float)
NMS_THRESHOLDS = st.one_of(st.sampled_from([0.0, 1.0, 0.25, 0.5, 1 / 3]), st.floats(0, 1))


class TestNms:
    def test_empty(self):
        assert nms_dets([], 0.4) == []
        rows = nms(np.empty((0, 4)), np.empty(0), 0.4)
        assert rows.dtype == np.intp and rows.shape == (0,)

    def test_high_overlap_suppressed(self):
        # IoU of these two is 8*10/(100+100-80) = 2/3 > 0.4.
        a = det(0, 0, 10, 10, 0.9)
        b = det(2, 0, 10, 10, 0.7)
        assert nms_dets([a, b], 0.4) == [a]

    def test_disjoint_kept(self):
        a = det(0, 0, 10, 10, 0.9)
        b = det(100, 100, 10, 10, 0.7)
        assert nms_dets([a, b], 0.4) == [a, b]

    def test_per_class(self):
        a = det(0, 0, 10, 10, 0.9, class_id=0)
        b = det(0, 0, 10, 10, 0.7, class_id=1)
        assert nms_dets([a, b], 0.4) == [a, b]

    def test_confidence_tie_broken_by_input_order(self):
        a = det(0, 0, 10, 10, 0.8)
        b = det(1, 0, 10, 10, 0.8)
        assert nms_dets([a, b], 0.4) == [a]

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            nms_dets([det(0, 0, 1, 1, 0.5)], 1.5)

    @settings(max_examples=200)
    @given(
        st.lists(
            st.tuples(
                st.floats(0, 100, allow_nan=False),
                st.floats(0, 100, allow_nan=False),
                st.floats(1, 50, allow_nan=False),
                st.floats(1, 50, allow_nan=False),
                st.floats(0, 1, allow_nan=False),
                st.integers(0, 2),
            ),
            max_size=12,
        ),
        st.floats(0, 1, allow_nan=False),
    )
    def test_output_submultiset_and_best_kept(self, raw, threshold):
        dets = [det(*r) for r in raw]
        kept = nms_dets(dets, threshold)
        remaining = list(dets)
        for k in kept:
            assert k in remaining
            remaining.remove(k)
        # Highest-confidence detection of each class always survives.
        for cid in {d.class_id for d in dets}:
            best = max((d for d in dets if d.class_id == cid), key=lambda d: d.confidence)
            assert any(k.confidence == best.confidence and k.class_id == cid for k in kept)
        # Kept same-class pairs obey the overlap bound.
        for i, a in enumerate(kept):
            for b in kept[i + 1 :]:
                if a.class_id == b.class_id:
                    assert iou(a.box, b.box) <= threshold
        confs = [k.confidence for k in kept]
        assert confs == sorted(confs, reverse=True)


class TestNmsOracle:
    @settings(max_examples=500, deadline=None)
    @given(
        st.lists(
            st.tuples(
                GRID_COORD, GRID_COORD, GRID_SIZE, GRID_SIZE,
                st.sampled_from([0.3, 0.5, 0.9]), st.integers(0, 2),
            ),
            max_size=16,
        ),
        NMS_THRESHOLDS,
    )
    def test_same_kept_objects_in_same_order(self, raw, threshold):
        dets = [det(*r) for r in raw]
        got = nms_dets(dets, threshold)
        want = pairwise_nms(dets, threshold)
        assert [id(d) for d in got] == [id(d) for d in want]

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(-50, 50), st.floats(-50, 50), st.floats(0.5, 40), st.floats(0.5, 40),
                st.floats(0, 1), st.integers(0, 3),
            ),
            max_size=20,
        ),
        NMS_THRESHOLDS,
    )
    def test_same_kept_objects_on_continuous_boxes(self, raw, threshold):
        dets = [det(*r) for r in raw]
        assert [id(d) for d in nms_dets(dets, threshold)] == [
            id(d) for d in pairwise_nms(dets, threshold)
        ]

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                GRID_COORD, GRID_COORD, st.integers(-1, 3).map(float), st.integers(-1, 3).map(float),
                st.sampled_from([0.5, 0.9]), st.integers(0, 2),
            ),
            max_size=8,
        ),
        NMS_THRESHOLDS,
    )
    def test_non_positive_area_raises_as_pairwise(self, raw, threshold):
        # A degenerate box is rejected exactly when the pairwise loop would
        # compute its IoU, with the same message.
        dets = [det(*r) for r in raw]
        got = outcome(nms_dets, dets, threshold)
        want = outcome(pairwise_nms, dets, threshold)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert [id(d) for d in got] == [id(d) for d in want]

    def test_degenerate_box_alone_in_its_class_passes(self):
        a = det(0, 0, 0, 10, 0.9, class_id=0)
        b = det(0, 0, 10, 10, 0.8, class_id=1)
        assert nms_dets([a, b], 0.4) == [a, b]
        with pytest.raises(ValueError, match="positive area"):
            nms_dets([a, det(50, 50, 5, 5, 0.5, class_id=0)], 0.4)


# Streams over a few frames, in any order: up to three classes, few
# confidences (ties), grid boxes (touching and identical ones).
STREAM_ROW = st.tuples(
    GRID_COORD, GRID_COORD, GRID_SIZE, GRID_SIZE,
    st.sampled_from([0.3, 0.5, 0.9]), st.integers(0, 2), st.integers(0, 3),
)


class TestWholeStreamNms:
    """nms over a whole stream keeps the rows that per-frame NMS keeps,
    in the same order."""

    @settings(max_examples=500, deadline=None)
    @given(st.lists(STREAM_ROW, max_size=24), NMS_THRESHOLDS)
    def test_same_rows_as_per_frame_reference(self, raw, threshold):
        dets = [det(*r) for r in raw]
        assert [id(d) for d in nms_dets(dets, threshold)] == [
            id(d) for d in stream_nms(dets, threshold)
        ]

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                GRID_COORD, GRID_COORD, st.integers(-1, 3).map(float),
                st.integers(-1, 3).map(float), st.sampled_from([0.5, 0.9]), st.integers(0, 2),
                st.integers(0, 3),
            ),
            max_size=12,
        ),
        NMS_THRESHOLDS,
    )
    def test_degenerate_box_raises_as_per_frame_reference(self, raw, threshold):
        # Wherever the per-frame reference raises on a degenerate box that
        # shares its frame and class, the whole-stream nms raises the same
        # error; elsewhere both keep the same rows.
        dets = [det(*r) for r in raw]
        got = outcome(nms_dets, dets, threshold)
        want = outcome(stream_nms, dets, threshold)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert [id(d) for d in got] == [id(d) for d in want]

    def test_rows_ordered_by_frame_then_confidence(self):
        boxes = np.array([[0, 0, 5, 5], [50, 0, 5, 5], [0, 0, 5, 5], [1, 0, 5, 5]], dtype=float)
        conf = np.array([0.5, 0.9, 0.6, 0.7])
        frames = np.array([1, 1, 0, 1])
        assert nms(boxes, conf, 0.4, frames=frames).tolist() == [2, 1, 3]
        assert nms(boxes, conf, 1.0, frames=frames).tolist() == [2, 1, 3, 0]


class TestDetection:
    def test_confidence_validated(self):
        with pytest.raises(ValueError):
            det(0, 0, 1, 1, 1.5)
        with pytest.raises(ValueError):
            det(0, 0, 1, 1, -0.1)


class TestEmbeddingFault:
    """A valid embedding value is finite and within EMBEDDING_LIMIT."""

    def test_bound_is_inclusive(self):
        limit = EMBEDDING_LIMIT
        past = np.nextafter(limit, np.inf)
        vectors = np.array([[limit, -limit], [0.0, past], [-past, 0.0], [1.0, 2.0]])
        assert embedding_fault(vectors)[0].tolist() == [False, True, True, False]

    def test_squared_distances_at_the_bound_stay_finite(self):
        a = np.full(512, EMBEDDING_LIMIT)
        with np.errstate(all="raise"):
            assert np.isfinite(a @ a + a @ a + 2.0 * (a @ -a))
            assert np.isfinite((a - -a) @ (a - -a))

    @pytest.mark.parametrize("value, message", [
        (np.nan, "non-finite embedding value"),
        (np.inf, "non-finite embedding value"),
        (-np.inf, "non-finite embedding value"),
        (1e300, f"embedding value 1e+300 out of range: {EMBEDDING_RANGE}"),
        (-1.5e100, f"embedding value -1.5e+100 out of range: {EMBEDDING_RANGE}"),
    ])
    def test_message_names_the_fault(self, value, message):
        vectors = np.zeros((3, 4))
        vectors[1, 2] = value
        if not np.isfinite(value):  # a non-finite value is named over a huge one
            vectors[1, 0] = 1e200
        assert first_problem([embedding_fault(vectors)]) == (1, message)

    def test_no_rows_and_no_columns(self):
        assert embedding_fault(np.empty((0, 4)))[0].shape == (0,)
        assert not embedding_fault(np.empty((3, 0)))[0].any()

    def test_strided_matrix_is_checked_without_a_full_size_temporary(self):
        # The matrix an embeddings file parses to: a strided field of records.
        rows = np.zeros(20_000, dtype=[("key", np.int64, (2,)), ("e", np.float64, (64,))])
        vectors = rows["e"]
        vectors[7, 3] = np.nan
        tracemalloc.start()
        try:
            bad, _ = embedding_fault(vectors)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.flatnonzero(bad).tolist() == [7]
        assert peak < vectors.nbytes / 32  # a bool temporary would be 1/8
