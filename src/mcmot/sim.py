"""Seeded synthetic multi-camera scenarios: ground-truth identities with
constant-velocity trajectories, noisy detections, and identity-consistent
noisy embeddings.

All randomness comes from numpy's Philox bit generator (a named 64-bit
counter-based PRNG), so a fixed seed reproduces streams bit-for-bit across
runs and platforms. Draw order is fixed: ground embeddings first, then per
camera (sorted) per frame per identity, then false positives; generate
writes each draw straight into its camera's CameraStream columns.

The module also holds the JSON codec of the config documents, this
scenario config and the pipeline config: from_json reads one strictly, and
to_json writes one.
"""

from __future__ import annotations

import dataclasses
import math
import typing
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .geometry import BoundingBox, CameraStream


@dataclass(frozen=True)
class Occlusion:
    """Region of one camera that blocks detections during [frame_start, frame_end]."""

    camera: int
    frame_start: int
    frame_end: int
    region: tuple[float, float, float, float]  # tlbr

    def blocks(self, camera: int, frame: int, box: BoundingBox) -> bool:
        if camera != self.camera or not self.frame_start <= frame <= self.frame_end:
            return False
        cx, cy = box.x + box.w / 2.0, box.y + box.h / 2.0
        x1, y1, x2, y2 = self.region
        return x1 <= cx <= x2 and y1 <= cy <= y2


@dataclass(frozen=True)
class ScenarioConfig:
    """Scenario knobs.

    embedding_noise_sigma is the RMS norm of the additive Gaussian noise
    vector (per-component std sigma/sqrt(D)), so sigma compares directly with
    identity_min_separation on the unit sphere. box_jitter_sigma perturbs the
    emitted detection boxes; camera_motion_sigma adds a shared per-frame
    random-walk offset to all boxes of a camera (moving-camera mode).
    """

    seed: int = 0
    cameras: int = 3
    identities: int = 10
    frames: int = 300
    image_size: tuple[int, int] = (1920, 1080)
    embedding_dim: int = 512
    embedding_noise_sigma: float = 0.0
    identity_min_separation: float = 1.0
    miss_prob: float = 0.0
    false_positive_rate: float = 0.0
    occlusions: tuple[Occlusion, ...] = ()
    box_jitter_sigma: float = 0.0
    camera_motion_sigma: float = 0.0
    speed_max: float = 3.0
    box_width_range: tuple[float, float] = (70.0, 110.0)
    box_height_range: tuple[float, float] = (120.0, 200.0)
    fp_size_range: tuple[float, float] = (15.0, 55.0)

    def __post_init__(self) -> None:
        if self.identities < 1 or self.cameras < 1 or self.frames < 1:
            raise ConfigError("cameras, identities and frames must be >= 1")
        if not self.identity_min_separation > 0:
            raise ConfigError("identity_min_separation must be > 0")
        if not 0.0 <= self.miss_prob <= 1.0:
            raise ConfigError("miss_prob must be in [0, 1]")
        if self.embedding_dim < 1:
            raise ConfigError(f"embedding_dim must be >= 1, got {self.embedding_dim}")
        for name in ("embedding_noise_sigma", "false_positive_rate", "box_jitter_sigma",
                     "camera_motion_sigma", "speed_max"):
            if not getattr(self, name) >= 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if (
            self.box_width_range[1] >= self.image_size[0]
            or self.box_height_range[1] >= self.image_size[1]
        ):
            raise ConfigError("object boxes must fit inside the image")
        for name in ("box_width_range", "box_height_range", "fp_size_range"):
            low, high = getattr(self, name)
            if not 0 < low <= high:
                raise ConfigError(
                    f"{name} must be [low, high] with 0 < low <= high, got {[low, high]}"
                )
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.fp_size_range[1] > min(self.image_size):
            raise ConfigError("false-positive boxes must fit inside the image")


@dataclass(eq=False)
class GroundTruth:
    """A scenario's ground truth as generate builds it and truth.json holds
    it (formats.write_truth_json, read_truth_json): the identity count, one
    unit embedding per identity (None if a truth file has none), and each
    camera's identity boxes by frame; generate lists every frame."""

    identity_count: int
    embeddings: typing.Optional[np.ndarray]  # (identities, D), unit rows
    cameras: dict[int, dict[int, list[tuple[int, BoundingBox]]]] = field(default_factory=dict)

    def frames_of(self, camera: int) -> dict[int, list[tuple[int, BoundingBox]]]:
        return self.cameras[camera]


def _sample_ground_embeddings(rng: np.random.Generator, cfg: ScenarioConfig) -> np.ndarray:
    """Uniform unit-sphere samples, rejected until pairwise separation holds."""
    accepted: list[np.ndarray] = []
    attempts = 0
    max_attempts = 1000 * cfg.identities
    while len(accepted) < cfg.identities:
        if attempts >= max_attempts:
            raise ConfigError(
                f"cannot place {cfg.identities} identities at pairwise separation "
                f">= {cfg.identity_min_separation} in dimension {cfg.embedding_dim}"
            )
        attempts += 1
        v = rng.normal(size=cfg.embedding_dim)
        v /= np.linalg.norm(v)
        if all(
            np.linalg.norm(v - u) >= cfg.identity_min_separation for u in accepted
        ):
            accepted.append(v)
    return np.asarray(accepted)


def _sample_trajectory(
    rng: np.random.Generator, cfg: ScenarioConfig
) -> tuple[float, float, float, float, float, float]:
    """(x0, y0, vx, vy, w, h) with the whole constant-velocity path in bounds."""
    img_w, img_h = cfg.image_size
    w = rng.uniform(*cfg.box_width_range)
    h = rng.uniform(*cfg.box_height_range)
    span = max(cfg.frames - 1, 1)

    def axis(extent: float) -> tuple[float, float]:
        vcap = max(0.0, min(cfg.speed_max, (extent - 1e-6) / span))
        v = rng.uniform(-vcap, vcap)
        lo = max(0.0, -v * span)
        hi = min(extent, extent - v * span)
        return rng.uniform(lo, hi), v

    x0, vx = axis(img_w - w)
    y0, vy = axis(img_h - h)
    return x0, y0, vx, vy, w, h


def _noisy_embedding(rng: np.random.Generator, ground: np.ndarray, sigma: float) -> np.ndarray:
    if sigma == 0.0:
        return ground
    noise = rng.normal(scale=sigma / np.sqrt(ground.shape[0]), size=ground.shape[0])
    e = ground + noise
    return e / np.linalg.norm(e)


def generate(cfg: ScenarioConfig) -> tuple[GroundTruth, dict[int, CameraStream]]:
    """Build the ground truth and one detection stream per camera, as
    columns: det_ids count from 0 within each frame, and a camera without
    detections has a (0, D) embedding matrix.

    Deterministic given cfg.seed. Every emitted box lies within the image;
    with zero noise, every detection's embedding equals its identity's ground
    embedding exactly.
    """
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    img_w, img_h = cfg.image_size
    ground = _sample_ground_embeddings(rng, cfg)
    truth = GroundTruth(identity_count=cfg.identities, embeddings=ground)
    streams: dict[int, CameraStream] = {}

    for camera in range(cfg.cameras):
        trajectories = [_sample_trajectory(rng, cfg) for _ in range(cfg.identities)]
        drift = (np.cumsum(rng.normal(scale=cfg.camera_motion_sigma, size=(cfg.frames, 2)), axis=0)
                 if cfg.camera_motion_sigma > 0 else np.zeros((cfg.frames, 2)))
        frames: dict[int, list[tuple[int, BoundingBox]]] = {}
        rows: list[tuple[int, float, float, float, float, float]] = []  # frame, box, confidence
        vectors: list[np.ndarray] = []
        for f in range(cfg.frames):
            entries: list[tuple[int, BoundingBox]] = []
            raw = [(identity, x0 + vx * f, y0 + vy * f, w, h)
                   for identity, (x0, y0, vx, vy, w, h) in enumerate(trajectories)]
            # Shared camera offset, clamped so every box stays in bounds.
            dx, dy = drift[f]
            if raw and (dx or dy):
                dx = float(np.clip(dx, -min(r[1] for r in raw), img_w - max(r[1] + r[3] for r in raw)))
                dy = float(np.clip(dy, -min(r[2] for r in raw), img_h - max(r[2] + r[4] for r in raw)))
            for identity, x, y, w, h in raw:
                box = BoundingBox(x + dx, y + dy, w, h)
                entries.append((identity, box))
                if any(o.blocks(camera, f, box) for o in cfg.occlusions):
                    continue
                if cfg.miss_prob > 0 and rng.random() < cfg.miss_prob:
                    continue
                rows.append((f, *_jitter_box(rng, box, cfg.box_jitter_sigma, img_w, img_h),
                             float(rng.uniform(0.5, 1.0))))
                vectors.append(_noisy_embedding(rng, ground[identity], cfg.embedding_noise_sigma))
            if cfg.false_positive_rate > 0:
                for _ in range(rng.poisson(cfg.false_positive_rate)):
                    fw = rng.uniform(*cfg.fp_size_range)
                    fh = rng.uniform(*cfg.fp_size_range)
                    fx = rng.uniform(0.0, img_w - fw)
                    fy = rng.uniform(0.0, img_h - fh)
                    e = rng.normal(size=cfg.embedding_dim)  # drawn before the confidence
                    vectors.append(e / np.linalg.norm(e))
                    rows.append((f, fx, fy, fw, fh, float(rng.uniform(0.5, 1.0))))
            frames[f] = entries
        truth.cameras[camera] = frames
        n = len(rows)
        frame = np.array([r[0] for r in rows], dtype=np.int64)
        values = np.array([r[1:] for r in rows], dtype=np.float64).reshape(n, 5)
        streams[camera] = CameraStream(
            frame=frame, det_id=np.arange(n, dtype=np.int64) - np.searchsorted(frame, frame),
            box=values[:, :4], confidence=values[:, 4], class_id=np.zeros(n, dtype=np.int64),
            embeddings=np.array(vectors, dtype=np.float64).reshape(n, cfg.embedding_dim))
    return truth, streams


def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    return to_json(cfg)


def scenario_from_dict(doc: dict) -> ScenarioConfig:
    """Strict parse of a scenario config document (see from_json)."""
    return from_json(ScenarioConfig, doc, root="scenario config")


def to_json(value):
    """A config dataclass as a JSON document: a dataclass becomes an object
    keyed by its field names, a tuple a list."""
    if dataclasses.is_dataclass(value):
        return {f.name: to_json(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, tuple):
        return [to_json(v) for v in value]
    return value


def from_json(kind, value, base=None, name: str = "", root: str = "config"):
    """`value`, parsed from JSON, as a field of type `kind`, strictly: an
    Optional field takes null, a dataclass is an object keyed by its field
    names (unknown keys are rejected), a tuple is a list of its length, and
    anything else is checked by typed_value. `name` is the field's dotted
    path, and `root` names the whole document in messages.

    With a `base` instance, omitted fields keep the base's values, nested
    sections start from the base's section, and a null section is the base's
    section. Without one, omitted fields take their defaults and required
    fields must be present. A ValueError from a section's __post_init__
    becomes ConfigError("invalid <section> config: ...").
    """
    if typing.get_origin(kind) is typing.Union:
        if value is None:
            return None
        kind = next(t for t in typing.get_args(kind) if t is not type(None))
    if dataclasses.is_dataclass(kind):
        if value is None and base is not None:
            return base
        where = name or root
        if not isinstance(value, dict):
            raise ConfigError(f"{where} must be a JSON object")
        types = typing.get_type_hints(kind)
        unknown = sorted(set(value) - set(types))
        if unknown:
            raise ConfigError(f"unknown key {unknown[0]!r} in {where}")
        fields = {
            key: from_json(types[key], v, getattr(base, key, None),
                           f"{name}.{key}" if name else key)
            for key, v in value.items()
        }
        if base is None:
            for f in dataclasses.fields(kind):
                required = f.default is f.default_factory is dataclasses.MISSING
                if required and f.name not in fields:
                    raise ConfigError(f"{where} is missing {f.name!r}")
        try:
            return kind(**fields) if base is None else dataclasses.replace(base, **fields)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"invalid {where} config: {exc}") from exc
    if typing.get_origin(kind) is tuple:
        args = typing.get_args(kind)
        if not isinstance(value, list) or (args[-1] is not Ellipsis and len(value) != len(args)):
            size = "a list" if args[-1] is Ellipsis else f"a list of {len(args)} items"
            raise ConfigError(f"{name} must be {size}, got {value!r}")
        items = [args[0]] * len(value) if args[-1] is Ellipsis else args
        return tuple(
            from_json(t, v, name=f"{name}[{i}]") for i, (v, t) in enumerate(zip(value, items))
        )
    return typed_value(name, value, kind)


def typed_value(name: str, value, kind: type):
    """`value` checked as a config field of type `kind`. The JSON type must
    match exactly (true is not an integer, "5" is not a number), except that
    an integer is taken as a float; floats must be finite."""
    if kind is float and type(value) is int:
        try:
            value = float(value)
        except OverflowError:
            raise ConfigError(
                f"{name} must be a finite number, got an integer beyond the float range"
            ) from None
    if type(value) is not kind or (kind is float and not math.isfinite(value)):
        raise ConfigError(f"{name} must be {_TYPE_NAMES[kind]}, got {value!r}")
    return value


_TYPE_NAMES = {bool: "a boolean", int: "an integer", float: "a finite number", str: "a string"}


def _jitter_box(
    rng: np.random.Generator, box: BoundingBox, sigma: float, img_w: float, img_h: float
) -> tuple[float, float, float, float]:
    """The emitted (x, y, w, h) of a truth box, jittered and kept in the image."""
    if sigma == 0.0:
        return box.x, box.y, box.w, box.h
    x = box.x + rng.normal(scale=sigma)
    y = box.y + rng.normal(scale=sigma)
    w = max(1.0, box.w + rng.normal(scale=sigma / 2.0))
    h = max(1.0, box.h + rng.normal(scale=sigma / 2.0))
    w = min(w, img_w)
    h = min(h, img_h)
    return float(np.clip(x, 0.0, img_w - w)), float(np.clip(y, 0.0, img_h - h)), w, h
