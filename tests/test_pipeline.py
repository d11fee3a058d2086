import math
import re
import sys
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcmot import formats, geometry, pipeline
from mcmot.association import AssociationConfig
from mcmot.cli import main
from mcmot.config import PipelineConfig, study1_preset, study2_preset
from mcmot.formats import FormatError
from mcmot.geometry import BoundingBox, Detection
from mcmot.geometry import CameraStream
from mcmot.pipeline import (
    CameraFiles,
    associate_and_refine,
    keep_frame,
    kept_count,
    process_camera,
    run_cameras,
    run_pipeline,
)
from mcmot.refine import RefineConfig
from mcmot.sim import ConfigError, ScenarioConfig, generate
from mcmot.tracker import Tracker, TrackerConfig, Tracklet


class TestKeepFrame:
    def test_stride(self):
        kept = [f for f in range(300) if keep_frame(f, None, 4)]
        assert kept == list(range(0, 300, 4))
        assert len(kept) == 75

    def test_block_decimation_270_of_300(self):
        kept = [f for f in range(600) if keep_frame(f, (270, 300), 1)]
        assert len(kept) == 540
        assert 269 in kept and 270 not in kept and 299 not in kept
        assert 300 in kept and 569 in kept and 570 not in kept

    def test_block_and_stride_compose(self):
        kept = [f for f in range(300) if keep_frame(f, (270, 300), 2)]
        assert kept == [f for f in range(0, 270, 2)]

    @settings(max_examples=400, deadline=None)
    @given(total=st.integers(0, 400), stride=st.integers(1, 12),
           frame_keep=st.none() | st.integers(1, 30).flatmap(
               lambda block: st.tuples(st.integers(1, block), st.just(block))))
    def test_kept_count_counts_kept_frames(self, total, stride, frame_keep):
        want = len([f for f in range(total) if keep_frame(f, frame_keep, stride)])
        assert kept_count(total, frame_keep, stride) == want

    def test_kept_count_of_a_long_stream(self):
        assert kept_count(300 * 10**15 + 100, (270, 300), 2) == 135 * 10**15 + 50
        assert kept_count(10**18 + 7, None, 4) == 25 * 10**16 + 2


def track(dets, cfg, total_frames=None):
    """process_camera on a Detection list, converted to columns."""
    return process_camera(0, CameraStream.from_detections(dets), cfg, total_frames)


def constant_stream(frames, x=100.0, conf=0.9):
    return [
        Detection(frame=f, box=BoundingBox(x, 50.0, 30.0, 60.0), confidence=conf)
        for f in range(frames)
    ]


class TestHeapTrim:
    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc's malloc_trim")
    def test_heap_trimmed_after_each_camera(self, monkeypatch):
        # A camera's freed tracker arrays must not stay resident through the
        # next camera's parse.
        calls = []

        class Libc:
            def malloc_trim(self, pad):
                calls.append(("trim", pad))

        monkeypatch.setattr(pipeline.ctypes, "CDLL", lambda name: Libc())
        process = pipeline.process_camera
        monkeypatch.setattr(pipeline, "process_camera",
                            lambda cam, *args: calls.append(("camera", cam)) or process(cam, *args))
        stream = CameraStream.from_detections(constant_stream(3))
        runs = run_cameras({cam: stream for cam in (2, 0, 1)}, PipelineConfig())
        assert [r.camera_id for r in runs] == [0, 1, 2]
        assert calls == [("camera", 0), ("trim", 0), ("camera", 1), ("trim", 0),
                         ("camera", 2), ("trim", 0)]

    def test_thresholds_fixed(self, monkeypatch):
        calls = []

        class Libc:
            def malloc_trim(self, pad):
                calls.append(("trim", pad))

            def mallopt(self, param, value):
                calls.append((param, value))

        monkeypatch.setattr(pipeline.sys, "platform", "linux")
        monkeypatch.setattr(pipeline.ctypes, "CDLL", lambda name: Libc())
        pipeline.fix_malloc_thresholds()
        assert calls == [(-3, 4 << 20), (-1, 2 << 20)]

    @pytest.mark.parametrize("platform, libc", [("darwin", None), ("linux", object())],
                             ids=["not_linux", "not_glibc"])
    def test_no_call_without_glibc(self, monkeypatch, platform, libc):
        def cdll(name):
            assert libc is not None, "no C library is loaded off Linux"
            return libc

        monkeypatch.setattr(pipeline.sys, "platform", platform)
        monkeypatch.setattr(pipeline.ctypes, "CDLL", cdll)
        pipeline.fix_malloc_thresholds()
        stream = CameraStream.from_detections(constant_stream(3))
        assert len(run_cameras({0: stream, 1: stream}, PipelineConfig())) == 2


class TestProcessCamera:
    def test_frames_processed_counts_decimated(self):
        cfg = PipelineConfig(tracker=TrackerConfig(frame_stride=4))
        run = track(constant_stream(300), cfg)
        assert run.frames_processed == 75

    def test_total_frames_overrides_stream_extent(self):
        cfg = PipelineConfig()
        run = track(constant_stream(10), cfg, total_frames=50)
        assert run.frames_processed == 50

    def test_detection_beyond_total_frames_rejected(self):
        with pytest.raises(ValueError, match="frame 12"):
            track(constant_stream(10) + constant_stream(13)[12:], PipelineConfig(),
                           total_frames=10)
        with pytest.raises(ValueError, match="frame -1"):
            track([Detection(-1, BoundingBox(0, 0, 5, 5), 0.9)], PipelineConfig())

    def test_detection_threshold_filters_ingest(self):
        cfg = PipelineConfig(detection_threshold=0.95)
        run = track(constant_stream(20, conf=0.9), cfg)
        assert run.tracklets == []

    def test_export_confidence_filters_tracklets(self):
        cfg = PipelineConfig(export_confidence=0.95)
        run = track(constant_stream(20, conf=0.9), cfg)
        assert run.tracklets == []
        cfg = PipelineConfig(export_confidence=0.5)
        run = track(constant_stream(20, conf=0.9), cfg)
        assert len(run.tracklets) == 1

    @pytest.mark.parametrize("pc", [PipelineConfig(), study1_preset()], ids=["no-nms", "nms"])
    def test_stream_order_across_frames_does_not_matter(self, pc):
        # Frames may come in any order; within a frame, stream order is
        # kept, so a frame-reversed stream tracks exactly as the sorted one.
        cfg = ScenarioConfig(seed=72, cameras=1, identities=4, frames=40, embedding_dim=8,
                             embedding_noise_sigma=0.05, false_positive_rate=0.5)
        _, streams = generate(cfg)
        reversed_frames = streams[0][np.argsort(-streams[0].frame, kind="stable")]
        runs = [process_camera(0, s, pc, total_frames=40)
                for s in (streams[0], reversed_frames)]
        assert [(t.track_id, t.frames.tolist(), t.boxes.tolist(), t.embedding.tolist())
                for t in runs[0].tracklets] == [
            (t.track_id, t.frames.tolist(), t.boxes.tolist(), t.embedding.tolist())
            for t in runs[1].tracklets]

    def test_mixed_embeddings_rejected(self):
        dets = constant_stream(3)
        dets[1] = Detection(1, dets[1].box, 0.9, embedding=np.ones(4))
        with pytest.raises(ValueError, match="all carry embeddings or none"):
            track(dets, PipelineConfig())

    @pytest.mark.parametrize("parallel", [False, True], ids=["sequential", "parallel"])
    def test_other_sources_rejected_before_any_camera_runs(self, tmp_path, parallel):
        # Only columns and files are a camera's input. Camera 0's files are
        # parsed in its unit of work; camera 1's Detection list is rejected
        # before any unit runs, so its error comes first.
        message = ("camera 1: expected a CameraStream or CameraFiles, got list; convert a "
                   "Detection list with CameraStream.from_detections")
        streams = {0: CameraFiles(tmp_path / "missing.csv"), 1: constant_stream(3)}
        for run in (run_cameras, run_pipeline):
            with pytest.raises(TypeError) as exc:
                run(streams, PipelineConfig(), parallel=parallel)
            assert str(exc.value) == message
        with pytest.raises(TypeError, match=re.escape(message)):
            process_camera(1, streams[1], PipelineConfig())
        streams[1] = CameraStream.from_detections(streams[1])
        with pytest.raises(FileNotFoundError):
            run_cameras(streams, PipelineConfig(), parallel=parallel)

    @pytest.mark.parametrize("column, row, value, match", [
        ("box", (1, 0), np.nan, "finite"),
        ("confidence", 1, np.inf, "finite"),
        ("embeddings", (1, 0), np.nan, "finite"),
        ("box", (1, 2), -4.0, "positive"),
        ("embeddings", (1, 3), -1e101, "detection 1: embedding value -1e\\+101 out of range"),
    ], ids=["nan-box", "inf-confidence", "nan-embedding", "negative-width", "huge-embedding"])
    def test_malformed_columns_rejected(self, column, row, value, match):
        # Columns given through the Python API skip file ingest;
        # process_camera rejects what ingest would.
        cfg = ScenarioConfig(seed=74, cameras=1, identities=2, frames=5, embedding_dim=4)
        _, streams = generate(cfg)
        stream = streams[0]
        getattr(stream, column)[row] = value
        with pytest.raises(ValueError, match=match):
            run_cameras({0: stream}, PipelineConfig())

    @pytest.mark.parametrize("parallel", [False, True], ids=["sequential", "parallel"])
    @pytest.mark.parametrize("edits, message", [
        # Row 2 falls below study1's detection threshold of 0.3: once
        # dropped by the filter without a word.
        ([("box", (2, 0), np.nan), ("confidence", 2, 0.1)],
         "camera 1: detection 2: non-finite box or confidence"),
        ([("confidence", 2, np.nan)], "camera 1: detection 2: non-finite box or confidence"),
        # Once tracked and exported with a mean_confidence of 7.0.
        ([("confidence", 2, 7.0)], "camera 1: detection 2: confidence 7.0 outside [0, 1]"),
        ([("box", (3, 3), 1e151)],
         "camera 1: detection 3: box (100.0, 50.0, 30.0, 1e+151) out of range: "
         + geometry.BOX_RANGE),
        ([("box", (2, 0), 1e3), ("box", (2, 2), 1e-14)],
         "camera 1: detection 2: box size 1e-14x60.0 vanishes at (1000.0, 50.0): "
         "x + w == x or y + h == y"),
    ], ids=["nan-box-below-threshold", "nan-confidence", "confidence-7", "out-of-range",
            "vanishing"])
    def test_columns_keep_the_ingest_rules(self, edits, message, parallel):
        # Camera 2 fails too; camera 1's error comes first, in both modes.
        streams = {cam: CameraStream.from_detections(constant_stream(5)) for cam in range(3)}
        for column, index, value in edits:
            getattr(streams[1], column)[index] = value
        streams[2].confidence[0] = -1.0
        with pytest.raises(ValueError) as exc:
            run_cameras(streams, study1_preset(), parallel=parallel)
        assert str(exc.value) == message

    @pytest.mark.parametrize("parallel", [False, True], ids=["sequential", "parallel"])
    @pytest.mark.parametrize("column, shape", [
        ("box", "(4, 4)"), ("confidence", "(4,)"), ("class_id", "(4,)"), ("det_id", "(4,)"),
    ])
    def test_columns_of_unequal_length_rejected(self, column, shape, parallel):
        # Once an IndexError from deep inside the run.
        stream = CameraStream.from_detections(constant_stream(5))
        streams = {0: stream, 1: replace(stream, **{column: getattr(stream, column)[:4]})}
        with pytest.raises(ValueError) as exc:
            run_cameras(streams, PipelineConfig(), parallel=parallel)
        assert str(exc.value).startswith("camera 1: frame, det_id, box (n, 4), confidence, ")
        assert shape in str(exc.value)

    def test_embedding_matrix_must_match_the_rows(self):
        stream = CameraStream.from_detections(constant_stream(5))
        for embeddings in (np.zeros((4, 2)), np.zeros(5)):
            with pytest.raises(ValueError, match="columns of one length"):
                process_camera(0, replace(stream, embeddings=embeddings), PipelineConfig())

    @pytest.mark.parametrize("embeddings, shape", [
        (np.zeros((6, 0)), "(6, 0)"), (0.5, "()"), (np.array(0.5), "()"),
    ], ids=["zero_width", "float", "zero_dim_array"])
    def test_zero_width_or_scalar_embeddings_rejected(self, tmp_path, embeddings, shape):
        # A (6, 0) matrix once tracked into a sidecar holding
        # "mean_embedding": [], which read_tracklets_json rejects.
        stream = CameraStream.from_detections(constant_stream(6))
        cfg = PipelineConfig(tracker=TrackerConfig(n_init=1))
        with pytest.raises(ValueError) as exc:
            process_camera(0, replace(stream, embeddings=embeddings), cfg)
        assert str(exc.value) == (
            "camera 0: frame, det_id, box (n, 4), confidence, class_id and embeddings (n, D) "
            "or None must be columns of one length n, got shapes (6,), (6,), (6, 4), (6,), "
            f"(6,) and {shape}")
        run = process_camera(0, replace(stream, embeddings=np.ones((6, 1))), cfg)
        path = tmp_path / "cam0.tracklets.json"
        formats.write_tracklets_json(path, 0, run.tracklets)
        assert [t.embedding.tolist() for t in formats.read_tracklets_json(path)[1]] == [[1.0]]

    def test_study1_preset_decimation(self):
        run = track(constant_stream(300), study1_preset())
        assert run.frames_processed == 270

    def test_empty_frames_without_tracks_are_not_stepped(self, monkeypatch):
        dets = [Detection(0, BoundingBox(100.0, 50.0, 30.0, 60.0), 0.9),
                Detection(10**6, BoundingBox(400.0, 50.0, 30.0, 60.0), 0.9)]
        cfg = PipelineConfig(tracker=TrackerConfig(n_init=1))
        stepped = []
        step = Tracker.step

        def counted(tracker, frame, *args):
            stepped.append(frame)
            return step(tracker, frame, *args)

        monkeypatch.setattr(Tracker, "step", counted)
        run = track(dets, cfg)
        assert run.frames_processed == 10**6 + 1
        assert [(t.track_id, t.frames.tolist(), t.boxes.tolist()) for t in run.tracklets] == [
            (1, [0], [[100.0, 50.0, 30.0, 60.0]]), (2, [10**6], [[400.0, 50.0, 30.0, 60.0]])]
        # Track 1 is missed from frame 1 and deleted at frame max_age + 1.
        assert stepped == list(range(cfg.tracker.max_age + 2)) + [10**6]

    def test_long_sparse_stream_steps_only_near_detections(self, monkeypatch):
        # Two detections in a stream of 10**12 frames: the run never walks
        # the frames between them.
        dets = [Detection(0, BoundingBox(100.0, 50.0, 30.0, 60.0), 0.9),
                Detection(10**6, BoundingBox(400.0, 50.0, 30.0, 60.0), 0.9)]
        cfg = PipelineConfig(tracker=TrackerConfig(n_init=1, max_age=3))
        stepped = []
        step = Tracker.step

        def counted(tracker, frame, *args):
            stepped.append(frame)
            return step(tracker, frame, *args)

        monkeypatch.setattr(Tracker, "step", counted)
        run = track(dets, cfg, total_frames=10**12)
        assert run.frames_processed == 10**12
        assert [(t.track_id, t.frames.tolist(), t.boxes.tolist()) for t in run.tracklets] == [
            (1, [0], [[100.0, 50.0, 30.0, 60.0]]), (2, [10**6], [[400.0, 50.0, 30.0, 60.0]])]
        assert stepped == [0, 1, 2, 3, 4, 10**6, 10**6 + 1, 10**6 + 2, 10**6 + 3, 10**6 + 4]

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), stride=st.integers(1, 4),
           frame_keep=st.none() | st.integers(2, 12).flatmap(
               lambda block: st.tuples(st.integers(1, block), st.just(block))))
    def test_sparse_stream_tracks_as_every_kept_frame(self, data, stride, frame_keep):
        # process_camera steps only frames holding detections and the kept
        # frames while a track lives; a tracker stepped on every kept frame
        # writes the same tracklets.
        total = data.draw(st.integers(1, 120))
        # Two slow identities seen at scattered frames: a track lives across
        # a gap only when the gap holds few kept frames.
        dets = sorted((Detection(f, BoundingBox(x0 + f, 50.0, 30.0, 60.0), 0.9)
                       for x0 in (100.0, 400.0)
                       for f in data.draw(st.sets(st.integers(0, total - 1), max_size=15))),
                      key=lambda d: (d.frame, d.box.x))
        cfg = PipelineConfig(frame_keep=frame_keep, tracker=TrackerConfig(
            n_init=data.draw(st.integers(1, 2)), max_age=data.draw(st.integers(1, 4)),
            frame_stride=stride))
        stream = CameraStream.from_detections(dets)
        tracker = Tracker(cfg.tracker)
        for f in range(total):
            if keep_frame(f, frame_keep, stride):
                at = stream.frame == f
                tracker.step(f, stream.box[at], stream.confidence[at])

        def fields(tracklets):
            return [(t.track_id, t.frames.tolist(), t.boxes.tolist()) for t in tracklets]

        run = process_camera(0, stream, cfg, total)
        assert fields(run.tracklets) == fields(tracker.export_tracklets())
        assert run.frames_processed == len([f for f in range(total)
                                            if keep_frame(f, frame_keep, stride)])

    def test_skipped_empty_frames_change_no_tracklet(self):
        # A scene with a 300-frame gap, tracked by process_camera and by
        # stepping every frame: the same tracklets, bit for bit.
        scene = ScenarioConfig(seed=75, cameras=1, identities=3, frames=40, embedding_dim=8,
                               miss_prob=0.2)
        _, streams = generate(scene)
        stream = replace(streams[0], frame=np.where(streams[0].frame >= 20,
                                                    streams[0].frame + 300, streams[0].frame))
        cfg = PipelineConfig(tracker=TrackerConfig(n_init=2, max_age=5))
        tracker = Tracker(cfg.tracker)
        for f in range(int(stream.frame.max()) + 1):
            at = stream.frame == f
            tracker.step(f, stream.box[at], stream.confidence[at], stream.embeddings[at])

        def fields(tracklets):
            return [(t.track_id, t.frames.tobytes(), t.boxes.tobytes(), t.embedding.tobytes())
                    for t in tracklets]

        want = fields(tracker.export_tracklets())
        assert len(want) >= 3
        assert fields(process_camera(0, stream, cfg).tracklets) == want


SIZE = st.floats(1e-2, 1e4)
COORDINATE = st.floats(-1e4, 1e4)
ROW_KINDS = ["valid", "non-finite", "confidence", "non-positive", "vanishing", "zero-area",
             "at-bound", "past-bound"]


@st.composite
def detection_row(draw):
    """(x, y, w, h, confidence) of a valid row, or of one that breaks a
    detection rule; a row at the 1e150 bound is valid."""
    x, y, w, h, conf = (draw(COORDINATE), draw(COORDINATE), draw(SIZE), draw(SIZE),
                        draw(st.floats(0.0, 1.0)))
    kind = draw(st.sampled_from(ROW_KINDS))
    if kind == "non-finite":
        row = [x, y, w, h, conf]
        row[draw(st.integers(0, 4))] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        return tuple(row)
    if kind == "confidence":
        conf = draw(st.floats(1.0, 1e300, exclude_min=True)
                    | st.floats(-1e300, 0.0, exclude_max=True))
    elif kind == "non-positive":
        size = draw(st.sampled_from([0.0, -0.0]) | st.floats(-1e4, 0.0))
        w, h = (size, h) if draw(st.booleans()) else (w, size)
    elif kind == "vanishing":  # an extent below half an ulp of the coordinate
        x, w = draw(st.floats(1e3, 1e4)), draw(st.floats(1e-20, 1e-14))
    elif kind == "zero-area":  # at the origin, so the extent does not vanish first
        x, y, w, h = 0.0, 0.0, draw(st.floats(1e-200, 1e-170)), draw(st.floats(1e-200, 1e-170))
    elif kind == "at-bound":  # a size at the bound keeps x + w > x and the aspect in range
        x, w, h = draw(st.sampled_from([x, 1e150, -1e150])), 1e150, draw(st.floats(1.0, 1e150))
        if draw(st.booleans()):
            x, y, w, h = y, x, h, w
    elif kind == "past-bound":
        which = draw(st.integers(0, 3))
        past = draw(st.floats(1e150, 1e300, exclude_min=True))
        if which == 0:
            x = draw(st.sampled_from([past, -past]))
        elif which == 1:
            w = past
        elif which == 2:
            h = past
        else:  # the aspect w / h
            w, h = 1e150, draw(st.floats(1e-4, 1.0, exclude_max=True))
    return x, y, w, h, conf


class TestOneRulePass:
    """process_camera checks a stream's rows against the detection rules
    once, before the first step; its tracker skips Tracker.step's pass."""

    GOLDEN = Path(__file__).parent / "data" / "golden"

    def test_golden_count_makes_no_second_rule_pass(self, tmp_path, monkeypatch):
        def forbidden(*args):
            raise AssertionError("Tracker.step ran its rule pass")

        monkeypatch.setattr("mcmot.tracker.first_bad_detection", forbidden)
        out = tmp_path / "results.json"
        assert main(["count", "--scenario", str(self.GOLDEN / "scenario"),
                     "--config", str(self.GOLDEN / "config.json"),
                     "--method", "both", "--output", str(out)]) == 0
        assert out.read_bytes() == (self.GOLDEN / "expected" / "count_both.json").read_bytes()

    def test_columns_are_checked_in_float64(self):
        # The int64 box keeps the rules in int64, 2**60 + 1 > 2**60, but its
        # float64 copy, which the tracker tracks, has x + w == x. The check
        # runs on that copy, so the row is named as every column error is.
        stream = CameraStream(frame=np.zeros(1, dtype=np.int64), det_id=np.zeros(1, dtype=np.int64),
                              box=np.array([[2**60, 0, 1, 1]]), confidence=np.array([0.9]),
                              class_id=np.zeros(1, dtype=np.int64))
        with pytest.raises(ValueError, match=re.escape(
                "camera 0: detection 0: box size 1.0x1.0 vanishes at "
                "(1.152921504606847e+18, 0.0): x + w == x or y + h == y")):
            process_camera(0, stream, PipelineConfig())

    def test_columns_in_other_dtypes_track_their_float64_copies(self, monkeypatch):
        # float32 and int columns track as their float64 copies would, and
        # the tracker still makes no rule pass of its own.
        rng = np.random.default_rng(8)
        n = 40
        frame = np.repeat(np.arange(10), 4)
        box = np.column_stack([rng.integers(0, 500, (n, 2)), rng.integers(20, 80, (n, 2))])
        embeddings = rng.normal(size=(n, 8)).astype(np.float32)
        stream64 = CameraStream(frame=frame, det_id=np.tile(np.arange(4), 10),
                                box=box.astype(np.float64), confidence=np.full(n, 0.75),
                                class_id=np.zeros(n, dtype=np.int64),
                                embeddings=embeddings.astype(np.float64))
        want = process_camera(0, stream64, PipelineConfig())

        def forbidden(*args):
            raise AssertionError("Tracker.step ran its rule pass")

        monkeypatch.setattr("mcmot.tracker.first_bad_detection", forbidden)
        got = process_camera(0, replace(stream64, box=box, confidence=np.full(n, 0.75, np.float32),
                                        embeddings=embeddings), PipelineConfig())
        assert [(t.track_id, t.frames.tolist(), t.boxes.tobytes(), t.embedding.tobytes())
                for t in got.tracklets] == \
            [(t.track_id, t.frames.tolist(), t.boxes.tobytes(), t.embedding.tobytes())
             for t in want.tracklets]


@st.composite
def embedding_rows(draw, n):
    """An (n, D) embedding matrix, 1 <= D <= 3, whose rows are valid or
    hold one non-finite value or one beyond the 1e100 bound; a value at the
    bound is valid."""
    dim = draw(st.integers(1, 3))
    emb = np.array(draw(st.lists(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim),
                                 min_size=n, max_size=n)))
    for row in emb:
        kind = draw(st.sampled_from(["valid", "valid", "at-bound", "non-finite", "past-bound"]))
        if kind == "valid":
            continue
        value = {"at-bound": st.sampled_from([1e100, -1e100]),
                 "non-finite": st.sampled_from([math.nan, math.inf, -math.inf]),
                 "past-bound": st.floats(1e100, 1e300, exclude_min=True)
                 | st.floats(-1e300, -1e100, exclude_max=True)}[kind]
        row[draw(st.integers(0, dim - 1))] = draw(value)
    return emb


class TestDetectionRuleParity:
    """geometry.first_bad_detection is the one check of a camera's rows: the
    CSV readers, process_camera and Tracker.step name the same first bad row
    with the same message."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(detection_row(), min_size=1, max_size=8).flatmap(
        lambda rows: st.tuples(st.just(rows), embedding_rows(len(rows)))))
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_reader_columns_and_tracker_agree(self, drawn):
        rows, emb = drawn
        n = len(rows)
        box = np.array([row[:4] for row in rows])
        conf = np.array([row[4] for row in rows])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "dets.csv"
            path.write_text(formats.DETECTION_HEADER + "\n" + "".join(
                f"0,{i},{','.join(map(repr, row))},0\n" for i, row in enumerate(rows)))
            emb_path = Path(tmp) / "embs.csv"
            emb_path.write_text(
                "frame,det_id," + ",".join(f"e{k}" for k in range(emb.shape[1])) + "\n" + "".join(
                    f"0,{i},{','.join(map(repr, vec.tolist()))}\n" for i, vec in enumerate(emb)))
            try:
                formats.read_embeddings(emb_path, formats.read_detections(path))
                ingest = None
            except FormatError as exc:
                at, line, message = re.fullmatch(r"(.*):(\d+): (.*)", str(exc)).groups()
                assert at in (str(path), str(emb_path))
                ingest = f"detection {int(line) - 2}: {message}"
        stream = CameraStream(frame=np.zeros(n, dtype=np.int64), det_id=np.arange(n),
                              box=box, confidence=conf, class_id=np.zeros(n, dtype=np.int64),
                              embeddings=emb)
        try:
            process_camera(0, stream, PipelineConfig())
            columns = None
        except ValueError as exc:
            columns = str(exc)
        assert columns == (None if ingest is None else f"camera 0: {ingest}")
        try:
            Tracker(TrackerConfig()).step(0, box, conf, emb)
            stepped = None
        except ValueError as exc:
            stepped = str(exc)
        assert stepped == ingest


def write_camera(tmp_path, scene, shuffled=False):
    """Camera 0 of `scene` as a detections CSV and an embeddings CSV, the
    latter's rows in detection order or shuffled."""
    _, streams = generate(scene)
    stream = streams[0]
    det = tmp_path / "detections.csv"
    emb = tmp_path / ("embeddings_shuffled.csv" if shuffled else "embeddings.csv")
    formats.write_detections(det, stream)
    if shuffled:
        order = np.random.default_rng(0).permutation(len(stream))
        stream = replace(stream, frame=stream.frame[order], det_id=stream.det_id[order],
                         embeddings=stream.embeddings[order])
    formats.write_embeddings(emb, stream, scene.embedding_dim)
    return det, emb


class TestCameraFiles:
    """process_camera parses a CameraFiles itself, then tracks from the
    tracked rows' embeddings alone."""

    SCENE = ScenarioConfig(seed=76, cameras=1, identities=4, frames=60, embedding_dim=8,
                           embedding_noise_sigma=0.02, false_positive_rate=0.5, miss_prob=0.05)

    @pytest.mark.parametrize("shuffled", [False, True], ids=["in-order", "shuffled"])
    @pytest.mark.parametrize("preset", [study1_preset, study2_preset], ids=["nms", "stride"])
    def test_files_track_as_columns(self, tmp_path, preset, shuffled):
        _, in_order = write_camera(tmp_path, self.SCENE)
        det, emb = write_camera(tmp_path, self.SCENE, shuffled)
        stream = formats.read_detections(det)
        stream = replace(stream, embeddings=formats.read_embeddings(in_order, stream).vectors)
        got = fingerprint([process_camera(0, CameraFiles(det, emb), preset(), 60)])
        assert got == fingerprint([process_camera(0, stream, preset(), 60)])
        assert len(got[0][2]) >= 3

    def test_motion_only_files_track_as_columns(self, tmp_path):
        det, _ = write_camera(tmp_path, self.SCENE)
        got = fingerprint([process_camera(0, CameraFiles(det), study2_preset(), 60)])
        assert got == fingerprint([process_camera(0, formats.read_detections(det),
                                                  study2_preset(), 60)])
        assert len(got[0][2]) >= 3 and got[0][2][0][4] is None

    @pytest.fixture(scope="class")
    def wide_camera(self, tmp_path_factory):
        """A camera whose embeddings file is 10 MB (D = 256), of which
        study2 tracks about a sixth of the rows."""
        scene = ScenarioConfig(seed=11, cameras=1, identities=10, frames=300,
                               embedding_dim=256, embedding_noise_sigma=0.02,
                               false_positive_rate=0.2, miss_prob=0.05)
        return write_camera(tmp_path_factory.mktemp("wide"), scene)

    @pytest.mark.parametrize("route", ["process_camera", "run_cameras", "track"])
    def test_peak_holds_tracked_rows_not_the_file(self, wide_camera, monkeypatch, route):
        # The embeddings file is read a block at a time, keeping the tracked
        # rows' vectors only: up to the first step the traced peak stays
        # below their bytes plus a few blocks, far under the file's matrix.
        det, emb = wide_camera
        files = CameraFiles(det, emb)
        stream = formats.read_detections(det)
        dim = 256
        tracked = len(pipeline._tracked_rows(stream, study2_preset())) * dim * 8
        matrix = len(stream) * dim * 8
        bound = tracked + 6 * formats._READ_BLOCK
        assert emb.stat().st_size >= 6 << 20 and bound < matrix / 2, (bound, matrix)
        at_step = []
        step = Tracker.step

        def stepping(tracker, *args):
            if not at_step:
                at_step.append(tracemalloc.get_traced_memory()[1])
            return step(tracker, *args)

        monkeypatch.setattr(Tracker, "step", stepping)
        run = {
            "process_camera": lambda: process_camera(0, files, study2_preset(), 300),
            "run_cameras": lambda: run_cameras({0: files}, study2_preset(), total_frames=300),
            "track": lambda: main(["track", "--detections", str(det), "--embeddings", str(emb),
                                   "--config", "study2", "--output",
                                   str(det.with_name(f"{route}.csv"))]),
        }[route]
        run()  # once untraced, so one-time allocations are not counted
        at_step.clear()
        tracemalloc.start()
        try:
            run()
        finally:
            tracemalloc.stop()
        assert at_step and at_step[0] < bound, (at_step, tracked, matrix)


def make_tracklet(camera_id, track_id, embedding, length=10, w=80.0, h=120.0):
    return Tracklet(
        camera_id=camera_id,
        track_id=track_id,
        frames=list(range(length)),
        boxes=[(0, 0, w, h)] * length,
        confidences=[0.9] * length,
        embedding=np.asarray(embedding, dtype=float),
    )


class TestAssociateAndRefine:
    def test_refine_prunes_members_after_association(self):
        # Association clusters every tracklet; the short tracklet, which
        # refinement removes, is then dropped from its cluster, and emptied
        # clusters disappear from the count.
        e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        per_camera = {
            0: [make_tracklet(0, 1, e1), make_tracklet(0, 2, e2, length=2)],
        }
        cfg = PipelineConfig(
            association=AssociationConfig(threshold=0.3),
            refine=RefineConfig(min_track_length=5),
        )
        clusters, counts = associate_and_refine(per_camera, cfg)
        assert counts is None
        assert [c.members for c in clusters] == [[(0, 1)]]
        assert [c.global_id for c in clusters] == [1]

    def test_missing_embeddings_rejected(self):
        t = Tracklet(0, 1, [0], [(0, 0, 5, 5)], [0.9], None)
        with pytest.raises(ConfigError):
            associate_and_refine({0: [t]}, PipelineConfig())

    def test_method_override(self):
        # The greedy pass gives {1, 2, 3} and {4}; two of the first
        # cluster's three members lie within 0.5 of the second's centroid,
        # so the voting pass merges the first into the second.
        per_camera = {0: [make_tracklet(0, i + 1, [v]) for i, v in enumerate((0, 0.4, 0.5, 0.85))]}
        clusters, counts = associate_and_refine(per_camera, PipelineConfig(), ["euclidean_voting"])
        assert [c.members for c in clusters] == [[(0, 4), (0, 1), (0, 2), (0, 3)]]
        assert counts is None
        clusters, counts = associate_and_refine(
            per_camera, PipelineConfig(), ["euclidean", "euclidean_voting"]
        )
        assert [c.members for c in clusters] == [[(0, 1), (0, 2), (0, 3)], [(0, 4)]]
        assert counts == {"euclidean": 2, "euclidean_voting": 1}


class TestRunPipeline:
    def test_methods_side_by_side(self):
        cfg = ScenarioConfig(seed=70, cameras=2, identities=3, frames=40, embedding_dim=16)
        _, streams = generate(cfg)
        res = run_pipeline(
            streams, PipelineConfig(), total_frames=40, methods=["euclidean", "euclidean_voting"]
        )
        assert res.method_counts == {"euclidean": 3, "euclidean_voting": 3}
        assert res.unique_count == 3

    def test_parallel_equals_sequential(self):
        cfg = ScenarioConfig(
            seed=71, cameras=3, identities=4, frames=50, embedding_dim=16,
            embedding_noise_sigma=0.05, miss_prob=0.1,
        )
        _, streams = generate(cfg)
        pc = PipelineConfig()
        seq = run_cameras(streams, pc, parallel=False, total_frames=50)
        par = run_cameras(streams, pc, parallel=True, total_frames=50)
        assert fingerprint(seq) == fingerprint(par)


def fingerprint(runs):
    return [
        (
            r.camera_id,
            r.frames_processed,
            [
                (t.track_id, t.frames.tolist(), t.boxes.tolist(),
                 t.confidences.tolist(), None if t.embedding is None else t.embedding.tobytes())
                for t in r.tracklets
            ],
        )
        for r in runs
    ]
