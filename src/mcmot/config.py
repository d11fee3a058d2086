"""Pipeline configuration: named presets for the two study setups plus strict
JSON config-file parsing with explicit overrides."""

from __future__ import annotations

import dataclasses
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .association import AssociationConfig
from .refine import RefineConfig
from .errors import ConfigError
from .formats import read_json
from .sim import typed_value
from .tracker import TrackerConfig


@dataclass(frozen=True)
class PipelineConfig:
    """End-to-end settings for ingest, tracking, association and refinement.

    detection_threshold filters raw detections at ingest; export_confidence
    filters tracklets at export by mean confidence. frame_keep=(m, n) keeps
    the first m frames of every block of n (block decimation); the tracker's
    frame_stride additionally keeps every stride-th frame.
    """

    tracker: TrackerConfig = TrackerConfig()
    refine: RefineConfig = RefineConfig()
    association: AssociationConfig = AssociationConfig()
    detection_threshold: float = 0.0
    export_confidence: float = 0.0
    frame_keep: Optional[tuple[int, int]] = None

    def __post_init__(self) -> None:
        if self.frame_keep is not None:
            keep, block = self.frame_keep
            if not (1 <= keep <= block):
                raise ConfigError(f"frame_keep must satisfy 1 <= keep <= block, got {self.frame_keep}")


def study1_preset() -> PipelineConfig:
    """Fixed multi-view cameras, crowded scene: long track buffer, block
    frame decimation, detections filtered at 0.3 and tracklets exported at
    mean confidence 0.6."""
    return PipelineConfig(
        tracker=TrackerConfig(
            min_confidence=0.3,
            nms_threshold=0.4,
            max_age=180,
            n_init=3,
            nn_budget=100,
            max_appearance_distance=0.2,
            max_iou_distance=0.7,
            appearance_metric="euclidean",
            frame_stride=1,
        ),
        refine=RefineConfig(),
        association=AssociationConfig(method="euclidean", threshold=0.5, intra_first=True),
        detection_threshold=0.3,
        export_confidence=0.6,
        frame_keep=(270, 300),
    )


def study2_preset() -> PipelineConfig:
    """Moving (drone) camera: very long track buffer, quarter-rate frame
    stride, Euclidean appearance matching at max distance 0.05, and output
    refinement by object size and confidence."""
    return PipelineConfig(
        tracker=TrackerConfig(
            min_confidence=0.65,
            nms_threshold=1.0,
            max_age=250,
            n_init=3,
            nn_budget=100,
            max_appearance_distance=0.05,
            max_iou_distance=0.7,
            appearance_metric="euclidean",
            frame_stride=4,
        ),
        refine=RefineConfig(
            min_width=60.0,
            min_height=50.0,
            min_track_length=0,
            min_mean_confidence=0.65,
        ),
        association=AssociationConfig(method="euclidean", threshold=0.5, intra_first=True),
        detection_threshold=0.25,
        export_confidence=0.0,
        frame_keep=None,
    )


PRESETS = {
    "default": PipelineConfig,
    "study1": study1_preset,
    "study2": study2_preset,
}


def config_to_dict(cfg: PipelineConfig) -> dict:
    doc = {
        "tracker": dataclasses.asdict(cfg.tracker),
        "refine": dataclasses.asdict(cfg.refine),
        "association": dataclasses.asdict(cfg.association),
        "detection_threshold": cfg.detection_threshold,
        "export_confidence": cfg.export_confidence,
        "frame_keep": None if cfg.frame_keep is None else list(cfg.frame_keep),
    }
    return doc


def config_from_dict(doc: dict) -> PipelineConfig:
    """Build a config from a dict, optionally starting from a named preset.

    Unknown keys anywhere are rejected.
    """
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    doc = dict(doc)
    preset = doc.pop("preset", "default")
    if not isinstance(preset, str) or preset not in PRESETS:
        raise ConfigError(f"unknown preset {preset!r}; expected one of {sorted(PRESETS)}")
    base = PRESETS[preset]()

    sections = {
        "tracker": (TrackerConfig, base.tracker),
        "refine": (RefineConfig, base.refine),
        "association": (AssociationConfig, base.association),
    }
    kwargs: dict = {}
    for name, (cls, current) in sections.items():
        overrides = doc.pop(name, None)
        if overrides is None:
            kwargs[name] = current
            continue
        if not isinstance(overrides, dict):
            raise ConfigError(f"config section {name!r} must be an object")
        types = typing.get_type_hints(cls)
        unknown = sorted(set(overrides) - set(types))
        if unknown:
            raise ConfigError(f"unknown key {unknown[0]!r} in config section {name!r}")
        checked = {
            key: typed_value(f"{name}.{key}", value, types[key])
            for key, value in overrides.items()
        }
        try:
            kwargs[name] = dataclasses.replace(current, **checked)
        except ValueError as exc:
            raise ConfigError(f"invalid {name} config: {exc}") from exc

    for scalar in ("detection_threshold", "export_confidence"):
        kwargs[scalar] = typed_value(scalar, doc.pop(scalar, getattr(base, scalar)), float)
    if "frame_keep" in doc:
        fk = doc.pop("frame_keep")
        if fk is not None and not (isinstance(fk, list) and len(fk) == 2):
            raise ConfigError(f"frame_keep must be null or a list [keep, block], got {fk!r}")
        kwargs["frame_keep"] = (
            None if fk is None else tuple(typed_value("frame_keep", v, int) for v in fk)
        )
    else:
        kwargs["frame_keep"] = base.frame_keep

    if doc:
        raise ConfigError(f"unknown config key {sorted(doc)[0]!r}")
    return PipelineConfig(**kwargs)


def load_config(source: str | Path | None) -> PipelineConfig:
    """Resolve a preset name or a JSON config file path.

    The file is parsed like every JSON input (formats.read_json): invalid
    JSON, a non-finite number or a repeated key is a FormatError.
    """
    if source is None:
        return PipelineConfig()
    source = str(source)
    if source in PRESETS:
        return PRESETS[source]()
    path = Path(source)
    if not path.exists():
        raise ConfigError(f"config {source!r} is neither a preset {sorted(PRESETS)} nor a file")
    return config_from_dict(read_json(path))
