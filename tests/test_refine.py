import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcmot.geometry import BoundingBox
from mcmot.refine import (
    ConfusionCounts,
    CountReport,
    RefineConfig,
    cluster_identity_claims,
    count_confusion,
    id_switches,
    l2_count_error,
    match_tracklets_to_identities,
    refine,
    segment_medians,
)
from mcmot.association import Cluster
from mcmot.tracker import Tracklet


def make_tracklet(w, h, length=10, conf=0.9, camera_id=0, track_id=1, frames=None, xs=None):
    frames = frames if frames is not None else list(range(length))
    xs = xs if xs is not None else [0.0] * len(frames)
    return Tracklet(
        camera_id=camera_id,
        track_id=track_id,
        frames=frames,
        boxes=[(x, 0.0, w, h) for x in xs],
        confidences=[conf] * len(frames),
        embedding=None,
    )


STUDY2_REFINE = RefineConfig(min_width=60, min_height=50, min_track_length=0, min_mean_confidence=0.65)


class TestRefine:
    def test_median_61x51_kept(self):
        assert refine([make_tracklet(61, 51)], STUDY2_REFINE) != []

    def test_median_60x51_dropped(self):
        # The size bound is exclusive: width must be strictly greater than 60.
        assert refine([make_tracklet(60, 51)], STUDY2_REFINE) == []

    def test_median_61x50_dropped(self):
        assert refine([make_tracklet(61, 50)], STUDY2_REFINE) == []

    def test_empty_input(self):
        assert refine([], STUDY2_REFINE) == []

    def test_short_tracklet_dropped(self):
        cfg = RefineConfig(min_track_length=5)
        assert refine([make_tracklet(100, 100, length=4)], cfg) == []
        assert refine([make_tracklet(100, 100, length=5)], cfg) != []

    def test_low_confidence_dropped(self):
        assert refine([make_tracklet(100, 100, conf=0.6)], STUDY2_REFINE) == []

    def test_survivors_unchanged_and_ordered(self):
        ts = [
            make_tracklet(100, 100, track_id=1),
            make_tracklet(10, 10, track_id=2),
            make_tracklet(80, 90, track_id=3),
        ]
        out = refine(ts, STUDY2_REFINE)
        assert out == [ts[0], ts[2]]

    def test_idempotent(self):
        rng = np.random.default_rng(51)
        ts = [
            make_tracklet(float(rng.uniform(30, 90)), float(rng.uniform(30, 90)),
                          length=int(rng.integers(1, 12)), conf=float(rng.uniform(0.4, 1.0)),
                          track_id=i)
            for i in range(20)
        ]
        cfg = RefineConfig(min_width=60, min_height=50, min_track_length=4, min_mean_confidence=0.65)
        once = refine(ts, cfg)
        assert refine(once, cfg) == once

    def test_validation(self):
        with pytest.raises(ValueError):
            RefineConfig(min_width=-1)


def reference_refine(tracklets, cfg):
    """Refinement one tracklet at a time, with np.median per tracklet."""
    out = []
    for t in tracklets:
        if len(t) < cfg.min_track_length:
            continue
        if t.mean_confidence < cfg.min_mean_confidence:
            continue
        med_w = float(np.median(t.boxes[:, 2]))
        med_h = float(np.median(t.boxes[:, 3]))
        if not (med_w > cfg.min_width and med_h > cfg.min_height):
            continue
        out.append(t)
    return out


# Box sizes: a coarse lattice makes ties and equal middle values common.
lattice = st.integers(0, 8).map(lambda k: 40.0 + 5.0 * k)
sizes = lattice | st.floats(1.0, 200.0) | st.sampled_from([1e308, 5e-324, np.nan])
# Runs of (width, height), 0 to 9 rows each.
size_runs = st.lists(st.lists(st.tuples(sizes, sizes), max_size=9), max_size=8)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # np.median on empty or NaN runs
class TestSegmentMedians:
    @settings(max_examples=400, deadline=None)
    @given(size_runs)
    def test_equals_np_median_of_each_run(self, runs):
        lengths = np.array([len(r) for r in runs], dtype=np.int64)
        values = np.array([wh for r in runs for wh in r], dtype=float).reshape(-1, 2)
        want = [[np.median([wh[c] for wh in r]) for r in runs] for c in (0, 1)]
        np.testing.assert_array_equal(
            segment_medians(values, lengths), np.array(want).reshape(2, len(runs)))

    @pytest.mark.parametrize("run", [
        [50.0], [50.0, 60.0], [60.0, 50.0, 55.0], [5.0, 5.0, 5.0, 7.0], [7.0, 5.0, 5.0, 5.0],
        [3.0, 1.0, 2.0, 2.0, 9.0, 2.0, 4.0, 4.0, 1.0], [9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0],
        [1e308, 1e308], [1.0, np.nan, 2.0], [],
    ])
    def test_single_runs(self, run):
        got = segment_medians(np.array(run).reshape(-1, 1), np.array([len(run)]))
        np.testing.assert_array_equal(got, [[np.median(run)]])


class TestRefineOracle:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0) | st.floats(), max_size=300))
    def test_mean_confidence_is_np_mean(self, confidences):
        t = Tracklet(0, 1, range(len(confidences)), np.zeros((len(confidences), 4)),
                     confidences, None)
        with np.errstate(all="ignore"):  # sums of huge values overflow alike
            got = t.mean_confidence
            want = float(np.mean(confidences)) if confidences else 0.0
        assert np.array(got).tobytes() == np.array(want).tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(st.lists(st.tuples(sizes, sizes), max_size=9), st.floats(0.0, 1.0)),
                 max_size=8),
        st.sampled_from([0.0, 45.0, 50.0, 60.0]),
        st.sampled_from([0.0, 45.0, 55.0]),
        st.integers(0, 5),
        st.sampled_from([0.0, 0.5, 0.9]),
    )
    def test_same_survivors_as_per_tracklet_medians(
        self, specs, min_w, min_h, min_len, min_conf
    ):
        tracklets = [
            Tracklet(0, i, list(range(len(wh))), [(0.0, 0.0, w, h) for w, h in wh],
                     [conf] * len(wh), None)
            for i, (wh, conf) in enumerate(specs)
        ]
        cfg = RefineConfig(min_width=min_w, min_height=min_h, min_track_length=min_len,
                           min_mean_confidence=min_conf)
        assert refine(tracklets, cfg) == reference_refine(tracklets, cfg)


class TestL2CountError:
    def test_equal_counts(self):
        assert l2_count_error([3, 4], [3, 4]) == 0.0

    def test_single_set(self):
        assert l2_count_error([4], [6]) == 2.0

    def test_two_sets(self):
        assert l2_count_error([3, 7], [6, 3]) == pytest.approx(5.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            l2_count_error([1], [1, 2])

    @given(
        st.lists(st.integers(0, 100), min_size=1, max_size=8),
        st.lists(st.integers(0, 100), min_size=1, max_size=8),
        st.lists(st.integers(0, 100), min_size=1, max_size=8),
    )
    def test_metric_axioms(self, a, b, c):
        n = min(len(a), len(b), len(c))
        a, b, c = a[:n], b[:n], c[:n]
        dab = l2_count_error(a, b)
        assert dab >= 0
        assert (dab == 0) == (a == b)
        assert dab == l2_count_error(b, a)
        assert l2_count_error(a, c) <= dab + l2_count_error(b, c) + 1e-9


class TestCountConfusion:
    def test_reference_counts_5_1_2(self):
        # TP=5, FP=1, FN=2 must give 62.5 / 71.4 / 76.9 percent.
        c = ConfusionCounts(tp=5, fp=1, fn=2)
        assert c.accuracy == pytest.approx(0.625, abs=5e-4)
        assert c.recall == pytest.approx(0.714, abs=5e-4)
        assert c.f1 == pytest.approx(0.769, abs=5e-4)

    def test_reference_counts_3_0_4(self):
        # TP=3, FP=0, FN=4 must give 42.9 / 42.9 / 60.0 percent.
        c = ConfusionCounts(tp=3, fp=0, fn=4)
        assert c.accuracy == pytest.approx(0.429, abs=5e-4)
        assert c.recall == pytest.approx(0.429, abs=5e-4)
        assert c.f1 == pytest.approx(0.6, abs=5e-4)

    def test_empty_scene_ratios_absent(self):
        c = ConfusionCounts(tp=0, fp=0, fn=0)
        assert c.accuracy is None and c.recall is None and c.f1 is None

    def test_claims_counted_one_to_one(self):
        got = count_confusion([1, 1, 2, None, 99], truth_ids=[1, 2, 3])
        assert (got.tp, got.fp, got.fn) == (2, 3, 1)

    def test_duplicate_truth_rejected(self):
        with pytest.raises(ValueError):
            count_confusion([1], [1, 1])

    @given(st.integers(0, 50), st.integers(0, 50), st.integers(0, 50))
    def test_f1_is_harmonic_mean(self, tp, fp, fn):
        c = ConfusionCounts(tp, fp, fn)
        if c.precision is None or c.recall is None or c.precision + c.recall == 0:
            return
        harmonic = 2 * c.precision * c.recall / (c.precision + c.recall)
        assert c.f1 == pytest.approx(harmonic, abs=1e-9)

    def test_report_build(self):
        r = CountReport.build([4], [6], ConfusionCounts(5, 1, 2))
        assert r.l2_error == 2.0
        assert r.tp == 5 and r.fp == 1 and r.fn == 2
        assert r.accuracy == pytest.approx(0.625)


def rows(boxes):
    """A tracklet's (n, 4) box column from BoundingBox objects."""
    return np.array([b.to_array() for b in boxes]).reshape(-1, 4)


def truth_frames(entries):
    """{frame: [(identity, box), ...]} helper."""
    out = {}
    for f, identity, box in entries:
        out.setdefault(f, []).append((identity, box))
    return out


class TestIdSwitches:
    def test_identical_hypothesis(self):
        boxes = [BoundingBox(10.0 * f, 0, 20, 40) for f in range(10)]
        hyp = Tracklet(0, 1, list(range(10)), rows(boxes), [0.9] * 10, [])
        truth = truth_frames([(f, 7, boxes[f]) for f in range(10)])
        assert id_switches([hyp], truth) == 0

    def test_split_track_single_switch(self):
        boxes = [BoundingBox(10.0 * f, 0, 20, 40) for f in range(10)]
        first = Tracklet(0, 1, list(range(5)), rows(boxes[:5]), [0.9] * 5, [])
        second = Tracklet(0, 2, list(range(5, 10)), rows(boxes[5:]), [0.9] * 5, [])
        truth = truth_frames([(f, 7, boxes[f]) for f in range(10)])
        assert id_switches([first, second], truth) == 1

    def test_matches_per_frame_recount_oracle(self):
        rng = np.random.default_rng(52)
        for _ in range(20):
            n_ids, n_frames = 3, 15
            truth_boxes = {}
            hyp_rows = {}  # hypothesis id -> [(frame, box)]
            for identity in range(n_ids):
                x, y = rng.uniform(0, 400, 2)
                for f in range(n_frames):
                    box = BoundingBox(x + 3 * f, y, 30, 60)
                    truth_boxes.setdefault(f, []).append((identity, box))
                    # Hypothesis splits each identity at a random frame.
                    split = 5 + identity
                    hid = identity * 2 + (1 if f >= split else 0)
                    entries = hyp_rows.setdefault(hid, [])
                    if rng.random() < 0.9:
                        entries.append((f, box))
            tracklets = [
                Tracklet(0, hid, [f for f, _ in entries], rows([b for _, b in entries]),
                         [0.9] * len(entries), [])
                for hid, entries in hyp_rows.items()
            ]
            got = id_switches(tracklets, truth_boxes)

            # Independent oracle: recount by brute-force per-frame matching.
            def best_match(hyps, truth_entries):
                from itertools import permutations as perms

                from mcmot.geometry import iou

                best = None
                n_h, n_t = len(hyps), len(truth_entries)
                if n_h == 0 or n_t == 0:
                    return []
                k = min(n_h, n_t)
                for rows in perms(range(n_h), k):
                    for cols in perms(range(n_t), k):
                        sel = [
                            (r, c)
                            for r, c in zip(rows, cols)
                            if iou(hyps[r][1], truth_entries[c][1]) >= 0.5
                        ]
                        cost = sum(1 - iou(hyps[r][1], truth_entries[c][1]) for r, c in sel)
                        key = (-len(sel), cost)
                        if best is None or key < best[0]:
                            best = (key, sel)
                return [
                    (hyps[r][0], truth_entries[c][0]) for r, c in best[1]
                ] if best else []

            hyp_by_frame = {}
            for hid, entries in hyp_rows.items():
                for f, b in entries:
                    hyp_by_frame.setdefault(f, []).append((hid, b))
            last = {}
            want = 0
            for f in sorted(truth_boxes):
                for hid, identity in best_match(hyp_by_frame.get(f, []), truth_boxes[f]):
                    if identity in last and last[identity] != hid:
                        want += 1
                    last[identity] = hid
            assert got == want


class TestClusterIdentityClaims:
    def test_greedy_best_overlap_mapping(self):
        boxes = [BoundingBox(0, 0, 30, 60)] * 6
        t1 = Tracklet(0, 1, list(range(6)), rows(boxes), [0.9] * 6, [])
        truth = truth_frames([(f, 5, boxes[f]) for f in range(6)])
        mapping = match_tracklets_to_identities([t1], truth)
        assert mapping[(0, 1)] == (5, 6)
        clusters = [
            Cluster(global_id=1, members=[(0, 1)]),
            Cluster(global_id=2, members=[(9, 9)]),
        ]
        claims = cluster_identity_claims(clusters, mapping)
        assert claims == [5, None]
        conf = count_confusion(claims, [5])
        assert (conf.tp, conf.fp, conf.fn) == (1, 1, 0)
