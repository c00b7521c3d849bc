"""Momentum-aware trajectory planning: shape-based candidate matching,
query refinement over planning history, consistency metrics and a seeded
closed-loop harness for comparing the momentum planner against a one-shot
baseline."""

from .curation import SampleRecord, curate, is_turning, samples_from_log
from .errors import (
    AlignmentError,
    ConfigError,
    EmptyInputError,
    GeometryError,
    HorizonError,
    InvalidPoseError,
    LogCorruptionError,
    ShapeError,
)
from .interactor import QueryBatch, WeightBundle, mpi_forward
from .matching import DistanceKind, TrajectorySet, hausdorff, ttm_select
from .metrics import (
    L2Protocol,
    LossWeights,
    MetricReport,
    ObstacleBox,
    collision_rate,
    combined_losses,
    focal_loss,
    l2_error,
    mean_reports,
    min_ade_fde,
    tpc,
)
from .simulator import (
    FrameRecord,
    RunSettings,
    ScenarioLog,
    ScenarioSpec,
    ScriptedObstacle,
    load_log,
    report_from_log,
    run_closed_loop,
    save_log,
)
from .trajectory import (
    OverlapMask,
    Pose2,
    Trajectory,
    overlap_mask,
    relative_pose,
    resample,
    transform_from_frame,
    transform_to_frame,
)

__version__ = "0.1.0"

__all__ = [
    "AlignmentError",
    "ConfigError",
    "DistanceKind",
    "EmptyInputError",
    "FrameRecord",
    "GeometryError",
    "HorizonError",
    "InvalidPoseError",
    "L2Protocol",
    "LogCorruptionError",
    "LossWeights",
    "MetricReport",
    "ObstacleBox",
    "OverlapMask",
    "Pose2",
    "QueryBatch",
    "RunSettings",
    "SampleRecord",
    "ScenarioLog",
    "ScenarioSpec",
    "ScriptedObstacle",
    "ShapeError",
    "Trajectory",
    "TrajectorySet",
    "WeightBundle",
    "collision_rate",
    "combined_losses",
    "curate",
    "focal_loss",
    "hausdorff",
    "is_turning",
    "l2_error",
    "load_log",
    "mean_reports",
    "min_ade_fde",
    "mpi_forward",
    "overlap_mask",
    "relative_pose",
    "report_from_log",
    "resample",
    "run_closed_loop",
    "samples_from_log",
    "save_log",
    "tpc",
    "transform_from_frame",
    "transform_to_frame",
    "ttm_select",
]
