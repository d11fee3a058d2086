import numpy as np
import pytest

from mcmot.association import AssociationConfig
from mcmot.config import PipelineConfig, study1_preset
from mcmot.geometry import BoundingBox, Detection
from mcmot.pipeline import (
    associate_and_refine,
    keep_frame,
    process_camera,
    run_cameras,
    run_pipeline,
)
from mcmot.refine import RefineConfig
from mcmot.sim import ConfigError, ScenarioConfig, generate
from mcmot.tracker import TrackerConfig, Tracklet


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


def constant_stream(frames, x=100.0, conf=0.9):
    return [
        Detection(frame=f, box=BoundingBox(x, 50.0, 30.0, 60.0), confidence=conf)
        for f in range(frames)
    ]


class TestProcessCamera:
    def test_frames_processed_counts_decimated(self):
        cfg = PipelineConfig(tracker=TrackerConfig(frame_stride=4))
        run = process_camera(0, constant_stream(300), cfg)
        assert run.frames_processed == 75

    def test_total_frames_overrides_stream_extent(self):
        cfg = PipelineConfig()
        run = process_camera(0, constant_stream(10), cfg, total_frames=50)
        assert run.frames_processed == 50

    def test_detection_beyond_total_frames_rejected(self):
        with pytest.raises(ValueError, match="frame 12"):
            process_camera(0, constant_stream(10) + constant_stream(13)[12:], PipelineConfig(),
                           total_frames=10)
        with pytest.raises(ValueError, match="frame -1"):
            process_camera(0, [Detection(-1, BoundingBox(0, 0, 5, 5), 0.9)], PipelineConfig())

    def test_detection_threshold_filters_ingest(self):
        cfg = PipelineConfig(detection_threshold=0.95)
        run = process_camera(0, constant_stream(20, conf=0.9), cfg)
        assert run.tracklets == []

    def test_export_confidence_filters_tracklets(self):
        cfg = PipelineConfig(export_confidence=0.95)
        run = process_camera(0, constant_stream(20, conf=0.9), cfg)
        assert run.tracklets == []
        cfg = PipelineConfig(export_confidence=0.5)
        run = process_camera(0, constant_stream(20, conf=0.9), cfg)
        assert len(run.tracklets) == 1

    def test_study1_preset_decimation(self):
        run = process_camera(0, constant_stream(300), study1_preset())
        assert run.frames_processed == 270


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
        # Association runs first; refinement then drops the short tracklet
        # from its cluster, and empty clusters disappear from the count.
        e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        per_camera = {
            0: [make_tracklet(0, 1, e1), make_tracklet(0, 2, e2, length=2)],
        }
        cfg = PipelineConfig(
            association=AssociationConfig(threshold=0.3),
            refine=RefineConfig(min_track_length=5),
        )
        clusters, count = associate_and_refine(per_camera, cfg)
        assert count == 1
        assert clusters[0].members == [(0, 1)]
        assert [c.global_id for c in clusters] == [1]

    def test_missing_embeddings_rejected(self):
        t = Tracklet(0, 1, [0], [(0, 0, 5, 5)], [0.9], None)
        with pytest.raises(ConfigError):
            associate_and_refine({0: [t]}, PipelineConfig())

    def test_method_override(self):
        e = np.array([1.0, 0.0])
        per_camera = {0: [make_tracklet(0, 1, e)], 1: [make_tracklet(1, 1, e)]}
        _, count = associate_and_refine(per_camera, PipelineConfig(), method="euclidean_voting")
        assert count == 1


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

        def fingerprint(runs):
            return [
                (
                    r.camera_id,
                    r.frames_processed,
                    [
                        (t.track_id, t.frames.tolist(), t.boxes.tolist(),
                         t.confidences.tolist(), t.embedding.tobytes())
                        for t in r.tracklets
                    ],
                )
                for r in runs
            ]

        assert fingerprint(seq) == fingerprint(par)
