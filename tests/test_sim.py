import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcmot import formats
from mcmot.sim import (
    ConfigError,
    Occlusion,
    ScenarioConfig,
    generate,
    scenario_from_dict,
    scenario_to_dict,
    to_json,
)


def stream_fingerprint(streams):
    out = []
    for cam in sorted(streams):
        for d in streams[cam]:
            out.append(
                (
                    cam,
                    d.frame,
                    d.box.x,
                    d.box.y,
                    d.box.w,
                    d.box.h,
                    d.confidence,
                    None if d.embedding is None else d.embedding.tobytes(),
                )
            )
    return out


class TestDeterminism:
    def test_same_seed_identical_streams(self):
        cfg = ScenarioConfig(
            seed=123, cameras=2, identities=4, frames=40, embedding_dim=16,
            embedding_noise_sigma=0.1, miss_prob=0.1, false_positive_rate=0.5,
            box_jitter_sigma=1.0, camera_motion_sigma=2.0,
        )
        t1, s1 = generate(cfg)
        t2, s2 = generate(cfg)
        assert stream_fingerprint(s1) == stream_fingerprint(s2)
        assert t1.embeddings.tobytes() == t2.embeddings.tobytes()
        assert t1.boxes.keys() == t2.boxes.keys()
        for cam in t1.boxes:
            assert [
                [(i, (b.x, b.y, b.w, b.h)) for i, b in frame] for frame in t1.boxes[cam]
            ] == [[(i, (b.x, b.y, b.w, b.h)) for i, b in frame] for frame in t2.boxes[cam]]

    def test_different_seeds_differ(self):
        cfg1 = ScenarioConfig(seed=1, cameras=1, identities=2, frames=10, embedding_dim=8)
        cfg2 = ScenarioConfig(seed=2, cameras=1, identities=2, frames=10, embedding_dim=8)
        assert stream_fingerprint(generate(cfg1)[1]) != stream_fingerprint(generate(cfg2)[1])


class TestZeroNoise:
    def test_embeddings_equal_ground_exactly(self):
        cfg = ScenarioConfig(seed=7, cameras=2, identities=3, frames=20, embedding_dim=32)
        truth, streams = generate(cfg)
        ground = {truth.embeddings[i].tobytes() for i in range(cfg.identities)}
        for dets in streams.values():
            for d in dets:
                assert d.embedding.tobytes() in ground

    def test_every_identity_every_frame(self):
        cfg = ScenarioConfig(seed=8, cameras=1, identities=5, frames=30, embedding_dim=8)
        _, streams = generate(cfg)
        per_frame = {}
        for d in streams[0]:
            per_frame[d.frame] = per_frame.get(d.frame, 0) + 1
        assert per_frame == {f: 5 for f in range(30)}


class TestBounds:
    def test_boxes_inside_image(self):
        cfg = ScenarioConfig(
            seed=9, cameras=2, identities=6, frames=60, embedding_dim=8,
            box_jitter_sigma=3.0, camera_motion_sigma=4.0, false_positive_rate=1.0,
        )
        truth, streams = generate(cfg)
        img_w, img_h = cfg.image_size
        for frames in truth.boxes.values():
            for entries in frames:
                for _, b in entries:
                    assert 0 <= b.x and b.x + b.w <= img_w + 1e-9
                    assert 0 <= b.y and b.y + b.h <= img_h + 1e-9
        for dets in streams.values():
            for d in dets:
                assert 0 <= d.box.x and d.box.x + d.box.w <= img_w + 1e-9
                assert 0 <= d.box.y and d.box.y + d.box.h <= img_h + 1e-9

    def test_constant_velocity_truth(self):
        cfg = ScenarioConfig(seed=10, cameras=1, identities=3, frames=50, embedding_dim=8)
        truth, _ = generate(cfg)
        frames = truth.boxes[0]
        for identity in range(3):
            xs = [e[identity][1].x for e in frames]
            diffs = np.diff(xs)
            assert np.allclose(diffs, diffs[0], atol=1e-9)


class TestSeparation:
    def test_ground_embeddings_separated(self):
        cfg = ScenarioConfig(seed=11, identities=8, embedding_dim=64, identity_min_separation=1.0)
        truth, _ = generate(ScenarioConfig(seed=11, identities=8, embedding_dim=64, frames=1))
        e = truth.embeddings
        for i in range(len(e)):
            for j in range(i + 1, len(e)):
                assert np.linalg.norm(e[i] - e[j]) >= cfg.identity_min_separation

    def test_noise_margin_measured_on_sample(self):
        # identities=2, separation 1.0, sigma=0.1: the intra-identity embedding
        # spread must stay well under the inter-identity distance.
        cfg = ScenarioConfig(
            seed=12, cameras=1, identities=2, frames=100, embedding_dim=512,
            embedding_noise_sigma=0.1,
        )
        truth, streams = generate(cfg)
        by_identity = {0: [], 1: []}
        for d, entry in zip(streams[0], [e for frame in truth.boxes[0] for e in frame]):
            by_identity[entry[0]].append(d.embedding)
        inter = np.linalg.norm(truth.embeddings[0] - truth.embeddings[1])
        for embs in by_identity.values():
            embs = np.asarray(embs)
            spread = max(
                np.linalg.norm(embs[i] - embs[j])
                for i in range(0, len(embs), 7)
                for j in range(i + 1, len(embs), 7)
            )
            assert spread < inter

    def test_impossible_separation_rejected(self):
        with pytest.raises(ConfigError):
            generate(
                ScenarioConfig(seed=13, identities=40, embedding_dim=2, identity_min_separation=1.9)
            )


class TestImperfections:
    def test_miss_prob_drops_detections(self):
        base = ScenarioConfig(seed=14, cameras=1, identities=4, frames=100, embedding_dim=8)
        noisy = ScenarioConfig(
            seed=14, cameras=1, identities=4, frames=100, embedding_dim=8, miss_prob=0.3
        )
        n_full = len(generate(base)[1][0])
        n_miss = len(generate(noisy)[1][0])
        assert n_miss < n_full
        assert n_miss == pytest.approx(n_full * 0.7, rel=0.15)

    def test_false_positives_added(self):
        cfg = ScenarioConfig(
            seed=15, cameras=1, identities=1, frames=200, embedding_dim=8,
            false_positive_rate=0.5,
        )
        _, streams = generate(cfg)
        n_fp = len(streams[0]) - 200
        assert n_fp == pytest.approx(100, rel=0.4)

    def test_occlusion_blocks_region(self):
        region = (0.0, 0.0, 1920.0, 1080.0)  # whole image
        cfg = ScenarioConfig(
            seed=16, cameras=1, identities=3, frames=30, embedding_dim=8,
            occlusions=(Occlusion(camera=0, frame_start=10, frame_end=19, region=region),),
        )
        _, streams = generate(cfg)
        frames_seen = {d.frame for d in streams[0]}
        assert frames_seen == set(range(30)) - set(range(10, 20))

    def test_occlusion_other_camera_unaffected(self):
        region = (0.0, 0.0, 1920.0, 1080.0)
        cfg = ScenarioConfig(
            seed=17, cameras=2, identities=2, frames=20, embedding_dim=8,
            occlusions=(Occlusion(camera=0, frame_start=0, frame_end=19, region=region),),
        )
        _, streams = generate(cfg)
        assert streams[0] == []
        assert len(streams[1]) == 40


class TestScenarioSerialization:
    def test_round_trip(self):
        cfg = ScenarioConfig(
            seed=18, cameras=2, identities=3, frames=25, embedding_dim=8,
            occlusions=(Occlusion(0, 1, 5, (0.0, 0.0, 10.0, 10.0)),),
        )
        assert scenario_from_dict(scenario_to_dict(cfg)) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            scenario_from_dict({"camera_count": 3})

    def test_validation_propagates(self):
        with pytest.raises(ConfigError):
            scenario_from_dict({"identities": 0})

    @pytest.mark.parametrize(
        "doc",
        [
            {"frames": True},
            {"seed": 1.0},
            {"miss_prob": "0.1"},
            {"image_size": [1920, 1080.0]},
            {"image_size": [1920, True]},
            {"image_size": [1920]},
            {"box_width_range": [70.0, 110.0, 150.0]},
            {"box_width_range": {"low": 70.0, "high": 110.0}},
            {"occlusions": {"camera": 0}},
            {"occlusions": [[0, 1, 5, [0.0, 0.0, 10.0, 10.0]]]},
            {"occlusions": [None]},
            {"occlusions": [{"camera": 0, "frame_start": 1, "frame_end": 5,
                             "region": [0.0, 0.0, 10.0]}]},
            {"occlusions": [{"camera": 0, "frame_start": 1, "frame_end": 5}]},
            {"occlusions": [{"camera": 0, "frame_start": 1, "frame_end": 5,
                             "region": [0.0, 0.0, 10.0, 10.0], "bogus": 1}]},
            [],
        ],
    )
    def test_field_types_checked(self, doc):
        with pytest.raises(ConfigError):
            scenario_from_dict(doc)

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"image_size": [1920]}, "image_size must be a list of 2 items, got [1920]"),
            ({"occlusions": [{"camera": 0}]}, "occlusions[0] is missing 'frame_start'"),
            ({"occlusions": [None]}, "occlusions[0] must be a JSON object"),
            ({"occlusions": [{"camera": 0.0, "frame_start": 1, "frame_end": 5,
                              "region": [0, 0, 1, 1]}]},
             "occlusions[0].camera must be an integer, got 0.0"),
            ({"camera_count": 3}, "unknown key 'camera_count' in scenario config"),
            ([], "scenario config must be a JSON object"),
            ({"seed": -1}, "seed must be >= 0, got -1"),
            ({"speed_max": -3.0}, "speed_max must be >= 0, got -3.0"),
        ],
    )
    def test_field_errors_name_the_field(self, doc, message):
        with pytest.raises(ConfigError) as info:
            scenario_from_dict(doc)
        assert str(info.value) == message

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_json_round_trip(self, tmp_path_factory, data):
        # The written document reads back equal; every integer field takes
        # values past int64 and past the float range too.
        big = st.integers(-(10**400), 10**400)
        small = st.floats(1e-300, 1.0)
        # Box ranges stay below the default image's 1080 pixels.
        rng = st.floats(1e-3, 1e3).flatmap(lambda low: st.tuples(st.just(low), st.floats(low, 1e3)))
        occlusion = st.builds(
            Occlusion, camera=big, frame_start=big, frame_end=big,
            region=st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 4),
        )
        fields = dict(
            seed=st.integers(0, 10**400), cameras=st.integers(1, 10**30),
            identities=st.integers(1, 10**30),
            frames=st.integers(1, 10**30), embedding_dim=st.integers(1, 10**30),
            image_size=st.tuples(st.integers(1001, 10**30), st.integers(1001, 10**30)),
            embedding_noise_sigma=small, identity_min_separation=small,
            miss_prob=st.floats(0.0, 1.0), false_positive_rate=small,
            occlusions=st.lists(occlusion, max_size=3).map(tuple),
            box_jitter_sigma=small, camera_motion_sigma=small, speed_max=small,
            box_width_range=rng, box_height_range=rng, fp_size_range=rng,
        )
        cfg = ScenarioConfig(**data.draw(st.fixed_dictionaries({}, optional=fields)))
        doc = to_json(cfg)
        assert json.loads(json.dumps(doc)) == doc  # plain JSON values: lists, not tuples
        path = tmp_path_factory.mktemp("scenario") / "scenario.json"
        path.write_text(json.dumps(doc))
        assert scenario_from_dict(formats.read_json(path)) == cfg
