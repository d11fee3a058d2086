import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcmot import formats
from mcmot.geometry import BoundingBox, CameraStream, Detection
from mcmot.sim import (
    ConfigError,
    GroundTruth,
    Occlusion,
    ScenarioConfig,
    _jitter_box,
    _sample_ground_embeddings,
    _sample_trajectory,
    generate,
    scenario_from_dict,
    scenario_to_dict,
    to_json,
)

COLUMNS = ("frame", "det_id", "box", "confidence", "class_id", "embeddings")


def stream_fingerprint(streams):
    return [
        (cam, *(getattr(streams[cam], c).tobytes() for c in COLUMNS)) for cam in sorted(streams)
    ]


def reference_generate(cfg: ScenarioConfig) -> tuple[GroundTruth, dict[int, list[Detection]]]:
    """The simulator as it was before it wrote columns: one Detection per
    row, in the same draw order. Kept as the byte oracle of generate."""
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    img_w, img_h = cfg.image_size
    ground = _sample_ground_embeddings(rng, cfg)
    truth = GroundTruth(identity_count=cfg.identities, embeddings=ground)
    streams: dict[int, list[Detection]] = {}

    def noisy_embedding(identity):
        if cfg.embedding_noise_sigma == 0.0:
            return ground[identity].copy()
        scale = cfg.embedding_noise_sigma / np.sqrt(cfg.embedding_dim)
        e = ground[identity] + rng.normal(scale=scale, size=cfg.embedding_dim)
        return e / np.linalg.norm(e)

    for camera in range(cfg.cameras):
        trajectories = [_sample_trajectory(rng, cfg) for _ in range(cfg.identities)]
        if cfg.camera_motion_sigma > 0:
            steps = rng.normal(scale=cfg.camera_motion_sigma, size=(cfg.frames, 2))
            drift = np.cumsum(steps, axis=0)
        else:
            drift = np.zeros((cfg.frames, 2))
        frames = {}
        dets = []
        for f in range(cfg.frames):
            entries = []
            raw = [(identity, x0 + vx * f, y0 + vy * f, w, h)
                   for identity, (x0, y0, vx, vy, w, h) in enumerate(trajectories)]
            dx, dy = drift[f]
            if raw and (dx or dy):
                dx = float(np.clip(dx, -min(r[1] for r in raw),
                                   img_w - max(r[1] + r[3] for r in raw)))
                dy = float(np.clip(dy, -min(r[2] for r in raw),
                                   img_h - max(r[2] + r[4] for r in raw)))
            for identity, x, y, w, h in raw:
                box = BoundingBox(x + dx, y + dy, w, h)
                entries.append((identity, box))
                if any(o.blocks(camera, f, box) for o in cfg.occlusions):
                    continue
                if cfg.miss_prob > 0 and rng.random() < cfg.miss_prob:
                    continue
                dets.append(Detection(
                    frame=f,
                    box=BoundingBox(*_jitter_box(rng, box, cfg.box_jitter_sigma, img_w, img_h)),
                    confidence=float(rng.uniform(0.5, 1.0)),
                    embedding=noisy_embedding(identity),
                ))
            if cfg.false_positive_rate > 0:
                for _ in range(rng.poisson(cfg.false_positive_rate)):
                    fw = rng.uniform(*cfg.fp_size_range)
                    fh = rng.uniform(*cfg.fp_size_range)
                    fx = rng.uniform(0.0, img_w - fw)
                    fy = rng.uniform(0.0, img_h - fh)
                    e = rng.normal(size=cfg.embedding_dim)
                    dets.append(Detection(frame=f, box=BoundingBox(fx, fy, fw, fh),
                                          confidence=float(rng.uniform(0.5, 1.0)),
                                          embedding=e / np.linalg.norm(e)))
            frames[f] = entries
        truth.cameras[camera] = frames
        streams[camera] = dets
    return truth, streams


@st.composite
def scenarios(draw):
    """Small scenarios with every imperfection the simulator draws: misses,
    false positives, occlusions, box jitter and camera motion, D = 1 and
    D >= 2, down to a single frame or identity."""
    dim = draw(st.sampled_from([1, 2, 3, 8]))
    sigma = st.just(0.0) | st.floats(0.0, 3.0)
    region = st.tuples(st.floats(0, 1000), st.floats(0, 600)).map(
        lambda tl: (tl[0], tl[1], tl[0] + 900.0, tl[1] + 500.0))
    occlusion = st.builds(Occlusion, camera=st.integers(0, 2), frame_start=st.integers(0, 8),
                          frame_end=st.integers(0, 12), region=region)
    return ScenarioConfig(
        seed=draw(st.integers(0, 2**32)),
        cameras=draw(st.integers(1, 3)),
        # On the unit line there are two embeddings, +1 and -1.
        identities=draw(st.integers(1, 2 if dim == 1 else 4)),
        frames=draw(st.integers(1, 12)),
        embedding_dim=dim,
        embedding_noise_sigma=draw(st.sampled_from([0.0, 0.0, 0.05, 0.3])),
        identity_min_separation=0.5,
        miss_prob=draw(st.sampled_from([0.0, 0.0, 0.3, 1.0])),
        false_positive_rate=draw(st.sampled_from([0.0, 0.0, 0.5, 2.0])),
        occlusions=tuple(draw(st.lists(occlusion, max_size=2))),
        box_jitter_sigma=draw(sigma),
        camera_motion_sigma=draw(sigma),
    )


class TestColumnsOracle:
    """generate writes, column for column and byte for byte, what the
    Detection-building simulator converted with from_detections wrote."""

    def assert_as_reference(self, cfg):
        truth, streams = generate(cfg)
        ref_truth, ref_streams = reference_generate(cfg)
        assert truth.embeddings.tobytes() == ref_truth.embeddings.tobytes()
        assert sorted(streams) == sorted(ref_streams) == list(range(cfg.cameras))
        for cam, stream in streams.items():
            assert {f: [(i, (b.x, b.y, b.w, b.h)) for i, b in entries]
                    for f, entries in truth.cameras[cam].items()} == \
                {f: [(i, (b.x, b.y, b.w, b.h)) for i, b in entries]
                 for f, entries in ref_truth.cameras[cam].items()}
            want = CameraStream.from_detections(ref_streams[cam])
            n = len(ref_streams[cam])
            assert stream.embeddings.shape == (n, cfg.embedding_dim)
            for name in COLUMNS:
                got = getattr(stream, name)
                expected = getattr(want, name)
                if expected is None:  # from_detections of no rows has no matrix
                    assert n == 0
                    expected = np.empty((0, cfg.embedding_dim))
                assert (got.dtype, got.shape) == (expected.dtype, expected.shape), name
                assert got.tobytes() == expected.tobytes(), name
        return streams

    @settings(max_examples=200, deadline=None)
    @given(scenarios())
    def test_columns_equal_the_reference(self, cfg):
        self.assert_as_reference(cfg)

    @pytest.mark.parametrize("dim", [1, 8])
    def test_empty_camera(self, dim):
        cfg = ScenarioConfig(seed=5, cameras=2, identities=2, frames=6, embedding_dim=dim,
                             miss_prob=1.0)
        streams = self.assert_as_reference(cfg)
        for stream in streams.values():
            assert len(stream) == 0 and stream.box.shape == (0, 4)
            assert stream.embeddings.shape == (0, dim)


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
        assert t1.cameras.keys() == t2.cameras.keys()
        for cam in t1.cameras:
            assert [
                [(i, (b.x, b.y, b.w, b.h)) for i, b in frame] for frame in t1.cameras[cam].values()
            ] == [[(i, (b.x, b.y, b.w, b.h)) for i, b in frame]
                  for frame in t2.cameras[cam].values()]

    def test_different_seeds_differ(self):
        cfg1 = ScenarioConfig(seed=1, cameras=1, identities=2, frames=10, embedding_dim=8)
        cfg2 = ScenarioConfig(seed=2, cameras=1, identities=2, frames=10, embedding_dim=8)
        assert stream_fingerprint(generate(cfg1)[1]) != stream_fingerprint(generate(cfg2)[1])


class TestZeroNoise:
    def test_embeddings_equal_ground_exactly(self):
        cfg = ScenarioConfig(seed=7, cameras=2, identities=3, frames=20, embedding_dim=32)
        truth, streams = generate(cfg)
        ground = {truth.embeddings[i].tobytes() for i in range(cfg.identities)}
        for stream in streams.values():
            for e in stream.embeddings:
                assert e.tobytes() in ground

    def test_every_identity_every_frame(self):
        cfg = ScenarioConfig(seed=8, cameras=1, identities=5, frames=30, embedding_dim=8)
        _, streams = generate(cfg)
        assert np.bincount(streams[0].frame).tolist() == [5] * 30
        assert streams[0].det_id.tolist() == list(range(5)) * 30


class TestBounds:
    def test_boxes_inside_image(self):
        cfg = ScenarioConfig(
            seed=9, cameras=2, identities=6, frames=60, embedding_dim=8,
            box_jitter_sigma=3.0, camera_motion_sigma=4.0, false_positive_rate=1.0,
        )
        truth, streams = generate(cfg)
        img_w, img_h = cfg.image_size
        for frames in truth.cameras.values():
            for entries in frames.values():
                for _, b in entries:
                    assert 0 <= b.x and b.x + b.w <= img_w + 1e-9
                    assert 0 <= b.y and b.y + b.h <= img_h + 1e-9
        for stream in streams.values():
            x, y, w, h = stream.box.T
            assert np.all((0 <= x) & (x + w <= img_w + 1e-9))
            assert np.all((0 <= y) & (y + h <= img_h + 1e-9))

    def test_constant_velocity_truth(self):
        cfg = ScenarioConfig(seed=10, cameras=1, identities=3, frames=50, embedding_dim=8)
        truth, _ = generate(cfg)
        frames = truth.cameras[0]
        for identity in range(3):
            xs = [e[identity][1].x for e in frames.values()]
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
        for e, entry in zip(streams[0].embeddings,
                            [e for frame in truth.cameras[0].values() for e in frame]):
            by_identity[entry[0]].append(e)
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
        frames_seen = set(streams[0].frame.tolist())
        assert frames_seen == set(range(30)) - set(range(10, 20))

    def test_occlusion_other_camera_unaffected(self):
        region = (0.0, 0.0, 1920.0, 1080.0)
        cfg = ScenarioConfig(
            seed=17, cameras=2, identities=2, frames=20, embedding_dim=8,
            occlusions=(Occlusion(camera=0, frame_start=0, frame_end=19, region=region),),
        )
        _, streams = generate(cfg)
        assert len(streams[0]) == 0 and streams[0].embeddings.shape == (0, 8)
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

    @pytest.mark.parametrize("name, value", [
        (name, value) for name in ("embedding_noise_sigma", "false_positive_rate",
                                   "box_jitter_sigma", "camera_motion_sigma", "speed_max")
        for value in (-1.0, np.nan)
    ])
    def test_sign_guards_reject_nan(self, name, value):
        # The Python API has no JSON reader in front of it to reject a NaN.
        with pytest.raises(ConfigError, match=f"^{name} must be >= 0, got {value}$"):
            ScenarioConfig(**{name: value})

    @pytest.mark.parametrize("value", [0.0, -1.0, np.nan])
    def test_separation_guard_rejects_nan(self, value):
        with pytest.raises(ConfigError, match="^identity_min_separation must be > 0$"):
            ScenarioConfig(identity_min_separation=value)

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
