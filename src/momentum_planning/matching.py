"""Trajectory-set distances and history-consistent candidate selection.

The selector re-expresses every candidate in the frame the historical
trajectory was planned in, scores each one by a set distance, and keeps the
closest.  Hausdorff is the default because it penalizes the worst-aligned
stretch of a candidate; the pointwise-mean baseline is retained for
ablations and is sensitive to where samples happen to bunch up.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import AlignmentError, EmptyInputError, ShapeError
from .trajectory import Pose2, Trajectory, resample, transform_to_frame


class DistanceKind(str, Enum):
    HAUSDORFF = "hausdorff"
    MEAN_EUCLIDEAN = "euclidean"


@dataclass(frozen=True)
class TrajectorySet:
    """K candidate plans with scores and per-candidate query embeddings."""

    trajectories: tuple[Trajectory, ...]
    scores: np.ndarray
    queries: np.ndarray

    def __post_init__(self):
        trajs = tuple(self.trajectories)
        if len(trajs) < 1:
            raise EmptyInputError("candidate set needs at least one trajectory")
        scores = np.asarray(self.scores, dtype=np.float64).reshape(-1)
        queries = np.asarray(self.queries, dtype=np.float64)
        if len(scores) != len(trajs):
            raise ShapeError(f"{len(trajs)} candidates but {len(scores)} scores")
        if queries.ndim != 2 or queries.shape[0] != len(trajs):
            raise ShapeError(
                f"queries must be (K, D), got {queries.shape} for K={len(trajs)}"
            )
        if not (np.isfinite(scores).all() and np.isfinite(queries).all()):
            raise ShapeError("scores and queries must be finite")
        scores.setflags(write=False)
        queries.setflags(write=False)
        object.__setattr__(self, "trajectories", trajs)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "queries", queries)

    def __len__(self) -> int:
        return len(self.trajectories)


def _points_of(traj) -> np.ndarray:
    pts = traj.points if isinstance(traj, Trajectory) else np.asarray(traj, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ShapeError(f"expected (N, 2) points, got shape {pts.shape}")
    if len(pts) == 0:
        raise EmptyInputError("distance over an empty point set is undefined")
    return pts


def directed_hausdorff(a, b) -> float:
    """sup over a of inf over b of the pointwise Euclidean distance."""
    pa, pb = _points_of(a), _points_of(b)
    dx = pa[:, 0][:, None] - pb[:, 0][None, :]
    dy = pa[:, 1][:, None] - pb[:, 1][None, :]
    d = np.sqrt(dx * dx + dy * dy)
    return float(d.min(axis=1).max())


def hausdorff(a, b) -> float:
    """Symmetric Hausdorff distance: max of the two directed values."""
    return max(directed_hausdorff(a, b), directed_hausdorff(b, a))


def mean_euclidean(a, b) -> float:
    """Mean pointwise distance between two equal-length trajectories."""
    pa, pb = _points_of(a), _points_of(b)
    if len(pa) != len(pb):
        raise AlignmentError(
            f"pointwise mean needs equal lengths, got {len(pa)} and {len(pb)}"
        )
    diff = pa - pb
    return float(np.sqrt(diff[:, 0] ** 2 + diff[:, 1] ** 2).mean())


def trajectory_distance(a: Trajectory, b: Trajectory, kind: DistanceKind) -> float:
    """Distance dispatch; the pointwise baseline aligns lengths by resampling
    both inputs to the longer one first."""
    kind = DistanceKind(kind)
    if kind is DistanceKind.HAUSDORFF:
        return hausdorff(a, b)
    n = max(len(a), len(b))
    return mean_euclidean(resample(a, n), resample(b, n))


def ttm_select(
    candidates: TrajectorySet,
    history: Trajectory,
    frame_delta: Pose2,
    kind: DistanceKind = DistanceKind.HAUSDORFF,
) -> int:
    """Pick the candidate closest to the historical trajectory.

    Every candidate is moved into the historical frame via ``frame_delta``
    before the distance is evaluated.  Ties resolve to the lowest index.
    """
    best_idx = -1
    best_dist = np.inf
    for i, candidate in enumerate(candidates.trajectories):
        d = trajectory_distance(transform_to_frame(candidate, frame_delta), history, kind)
        if d < best_dist:
            best_dist = d
            best_idx = i
    return best_idx
