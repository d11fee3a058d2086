"""Pipeline configuration: named presets for the two study setups plus strict
JSON config-file parsing with explicit overrides."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .association import AssociationConfig
from .refine import RefineConfig
from .errors import ConfigError
from .formats import read_json
from .sim import from_json, to_json
from .tracker import INT64_MAX, TrackerConfig


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
        # A negative threshold keeps every detection or tracklet; NaN keeps none.
        for name in ("detection_threshold", "export_confidence"):
            if math.isnan(getattr(self, name)):
                raise ConfigError(f"{name} must be a number, got nan")
        if self.frame_keep is not None:
            keep, block = self.frame_keep
            if not 1 <= keep <= block <= INT64_MAX:
                raise ConfigError("frame_keep must satisfy 1 <= keep <= block <= 2**63 - 1, "
                                  f"got {self.frame_keep}")


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
    return to_json(cfg)


def config_from_dict(doc: dict) -> PipelineConfig:
    """Build a config from a dict, starting from the named preset ("default"
    when omitted), by the strict rules of sim.from_json."""
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    doc = dict(doc)
    preset = doc.pop("preset", "default")
    if not isinstance(preset, str) or preset not in PRESETS:
        raise ConfigError(f"unknown preset {preset!r}; expected one of {sorted(PRESETS)}")
    return from_json(PipelineConfig, doc, PRESETS[preset]())


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
