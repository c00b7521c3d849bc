"""Planar trajectory containers and rigid-frame operations.

Trajectories are short horizons of future waypoints sampled on a fixed time
step (0.5 s by default).  Points are stored as an (N, 2) float64 array; a
row is one waypoint.  Poses are proper rigid transforms in the plane, used
both as world poses of the ego and as frame deltas between two ego frames.

Conventions:
  * ``transform_to_frame(traj, pose)`` treats ``pose`` as the pose of the
    target frame expressed in the frame the points currently live in, and
    applies ``p -> R^-1 (p - t)``.
  * ``relative_pose(prev, cur)`` returns exactly the pose that moves points
    expressed in the current ego frame into the previous ego frame.

Each of the three rigid-frame operations has one definition, a kernel over
broadcast stacks of points and poses: ``_to_frame``, ``_from_frame`` and
``_frame_delta``.  TTM, TPC and the rollout call them over frame stacks;
``transform_to_frame``, ``transform_from_frame`` and ``relative_pose`` are
their calls on one pose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AlignmentError,
    EmptyInputError,
    GeometryError,
    InvalidPoseError,
)

DEFAULT_DT = 0.5
ORTHONORMAL_TOL = 1e-9


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1 and pts.size == 2:
        pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise GeometryError(f"expected an (N, 2) point array, got shape {pts.shape}")
    return pts


@dataclass(frozen=True)
class Trajectory:
    """A fixed-rate sequence of future waypoints.

    Waypoint i sits at time (i + 1) * dt relative to the frame the
    trajectory is expressed in.
    """

    points: np.ndarray
    dt: float = DEFAULT_DT

    def __post_init__(self):
        pts = _as_points(self.points)
        if len(pts) < 1:
            raise EmptyInputError("a trajectory needs at least one waypoint")
        if not np.isfinite(pts).all():
            raise GeometryError("trajectory contains non-finite coordinates")
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise GeometryError(f"dt must be positive and finite, got {self.dt}")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class Pose2:
    """A proper rigid transform (rotation + translation) in the plane."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        rot = np.asarray(self.rotation, dtype=np.float64)
        trans = np.asarray(self.translation, dtype=np.float64).reshape(2)
        if rot.shape != (2, 2):
            raise InvalidPoseError(f"rotation must be 2x2, got {rot.shape}")
        # the checks run on Python floats: numpy's per-call overhead on a
        # 2x2 block costs ten times the arithmetic
        (a, b), (c, d) = rot.tolist()
        if not all(map(math.isfinite, (a, b, c, d, *trans.tolist()))):
            raise InvalidPoseError("pose contains non-finite entries")
        # the entries of R^T R - I
        off = max(abs(a * a + c * c - 1.0), abs(a * b + c * d), abs(b * b + d * d - 1.0))
        if off > ORTHONORMAL_TOL:
            raise InvalidPoseError("rotation block is not orthonormal")
        if abs(a * d - b * c - 1.0) > ORTHONORMAL_TOL:
            raise InvalidPoseError("rotation block must have determinant +1")
        rot.setflags(write=False)
        trans.setflags(write=False)
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", trans)

    @staticmethod
    def identity() -> "Pose2":
        return Pose2(np.eye(2), np.zeros(2))

    @staticmethod
    def from_heading(heading: float, translation=(0.0, 0.0)) -> "Pose2":
        return Pose2(rotation_matrix(heading), np.asarray(translation, dtype=np.float64))

    def heading(self) -> float:
        return float(math.atan2(self.rotation[1, 0], self.rotation[0, 0]))


def rotation_matrix(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


@dataclass(frozen=True)
class OverlapMask:
    """Per-waypoint flags over the *current* trajectory.

    flags[i] is True when waypoint i of the current trajectory has a
    same-absolute-time twin in the previous trajectory.
    """

    flags: np.ndarray

    def __post_init__(self):
        flags = np.asarray(self.flags, dtype=bool).reshape(-1)
        flags.setflags(write=False)
        object.__setattr__(self, "flags", flags)

    def __len__(self) -> int:
        return len(self.flags)


def _to_frame(points, rotation, translation) -> np.ndarray:
    """Points (..., N, 2) re-expressed in the frames whose poses are the
    (..., 2, 2) rotations and (..., 2) translations, leading axes broadcast:
    every point p becomes R^-1 (p - t), computed as (p - t) @ R."""
    return (points - translation[..., None, :]) @ rotation


def _from_frame(points, rotation, translation) -> np.ndarray:
    """Inverse of ``_to_frame``: every point p becomes R p + t, computed as
    p @ R^T + t."""
    return points @ np.swapaxes(rotation, -1, -2) + translation[..., None, :]


def _frame_delta(rot_prev, t_prev, rot_cur, t_cur):
    """The poses of previous frames seen from current ones, given both in a
    common frame as (..., 2, 2) rotations and (..., 2) translations: the
    rotations R_cur^T R_prev and translations R_cur^T (t_prev - t_cur)."""
    rot_t = np.swapaxes(rot_cur, -1, -2)
    return rot_t @ rot_prev, (rot_t @ (t_prev - t_cur)[..., None])[..., 0]


def transform_to_frame(traj: Trajectory, pose: Pose2) -> Trajectory:
    """Re-express ``traj`` in the frame whose pose (in the trajectory's
    current frame) is ``pose``: every point p becomes R^-1 (p - t)."""
    return Trajectory(_to_frame(traj.points, pose.rotation, pose.translation), dt=traj.dt)


def transform_from_frame(traj: Trajectory, pose: Pose2) -> Trajectory:
    """Inverse of :func:`transform_to_frame`: p becomes R p + t."""
    return Trajectory(_from_frame(traj.points, pose.rotation, pose.translation), dt=traj.dt)


def relative_pose(world_pose_prev: Pose2, world_pose_cur: Pose2) -> Pose2:
    """Frame delta between two ego poses given in a common world frame.

    The returned pose is the previous frame as seen from the current frame,
    so feeding it to :func:`transform_to_frame` moves points expressed in
    the current ego frame into the previous ego frame.
    """
    prev, cur = world_pose_prev, world_pose_cur
    return Pose2(*_frame_delta(prev.rotation, prev.translation, cur.rotation, cur.translation))


def resample(traj: Trajectory, n: int) -> Trajectory:
    """Resample to ``n`` waypoints, uniform in arc length, endpoints exact.

    ``n == len(traj)`` is an exact no-op, which keeps repeated resampling
    stable; anything else linearly interpolates along the polyline.
    """
    if n < 2:
        raise GeometryError(f"cannot resample to {n} points; need n >= 2")
    if len(traj) < 2:
        raise GeometryError("cannot resample a single-waypoint trajectory")
    if n == len(traj):
        return traj
    pts = traj.points
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    s = np.concatenate([[0.0], np.cumsum(seg)])
    total = s[-1]
    if total <= 0.0:
        # all points coincide, or lie so close that their squared gaps
        # underflow to zero; collapse onto the first point, endpoints exact
        out = np.repeat(pts[:1], n, axis=0)
        out[-1] = pts[-1]
        return Trajectory(out, dt=traj.dt)
    targets = np.linspace(0.0, total, n)
    out = np.column_stack(
        [np.interp(targets, s, pts[:, 0]), np.interp(targets, s, pts[:, 1])]
    )
    out[0] = pts[0]
    out[-1] = pts[-1]
    return Trajectory(out, dt=traj.dt)


def overlap_mask(cur: Trajectory, prev: Trajectory, frame_gap_steps: int = 1) -> OverlapMask:
    """Flags over ``cur`` marking waypoints whose absolute time also exists
    in ``prev`` (waypoint i of cur aligns with waypoint i + gap of prev)."""
    if frame_gap_steps < 0:
        raise GeometryError(f"frame gap must be >= 0, got {frame_gap_steps}")
    if cur.dt != prev.dt:
        raise AlignmentError(f"dt mismatch: {cur.dt} vs {prev.dt}")
    idx = np.arange(len(cur))
    return OverlapMask(idx + frame_gap_steps < len(prev))


# ---------------------------------------------------------------------------
# serialization


def trajectory_to_dict(traj: Trajectory) -> dict:
    return {"dt": float(traj.dt), "points": traj.points.tolist()}


def trajectory_from_dict(obj: dict) -> Trajectory:
    if not isinstance(obj, dict) or "dt" not in obj or "points" not in obj:
        raise GeometryError("trajectory record must carry 'dt' and 'points'")
    return Trajectory(np.asarray(obj["points"], dtype=np.float64), dt=float(obj["dt"]))
