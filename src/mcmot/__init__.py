"""Deterministic multi-camera multi-object tracking.

Per-camera tracking-by-detection (constant-velocity Kalman prediction,
Mahalanobis/appearance gating, Hungarian assignment, track lifecycle)
followed by two-stage cross-camera tracklet association, output refinement,
and unique-person counting, driven by detection/embedding files or the
built-in synthetic scenario generator.
"""

from .assignment import INFEASIBLE, Matching, gate, iou_matching, matching_cascade, solve_assignment
from .association import (
    AssociationConfig, Cluster, associate_methods, associate_multicamera, voting_merge
)
from .config import PipelineConfig, load_config, study1_preset, study2_preset
from .errors import ConfigError
from .geometry import BoundingBox, CameraStream, Detection, iou, iou_matrix, nms
from .kalman import CHI2_GATE_95, KalmanFilter, KalmanState, NoiseProfile
from .pipeline import CameraFiles, process_camera, run_cameras, run_pipeline
from .refine import (
    ConfusionCounts,
    RefineConfig,
    count_confusion,
    id_switches,
    l2_count_error,
    refine,
)
from .sim import GroundTruth, Occlusion, ScenarioConfig, generate
from .tracker import Tracker, TrackerConfig, Tracklet, appearance_cost

__version__ = "0.1.0"
