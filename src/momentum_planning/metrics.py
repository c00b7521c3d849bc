"""Displacement, collision, consistency and loss-arithmetic metrics.

Two L2 conventions coexist in the planning literature and differ enough to
flip comparisons, so both are first-class here:

  * ``AT_TIMESTEP`` reads the displacement at the horizon step itself.
  * ``AVERAGED_UP_TO`` averages displacements over every step up to and
    including the horizon.

Consistency (``tpc``) compares the current prediction against the previous
one after moving it into the previous frame; only waypoints whose absolute
time exists in both predictions participate, and the per-sample value is
the RMSE over those pairs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .errors import AlignmentError, ConfigError, EmptyInputError, HorizonError, ShapeError
from .matching import TrajectorySet
from .trajectory import OverlapMask, Pose2, Trajectory, transform_to_frame

_HORIZON_SNAP = 1e-9


class L2Protocol(str, Enum):
    AT_TIMESTEP = "vad"
    AVERAGED_UP_TO = "uniad"


@dataclass(frozen=True)
class ObstacleBox:
    """An oriented rectangle on the ground plane."""

    center: tuple[float, float]
    heading: float
    length: float
    width: float

    def __post_init__(self):
        cx, cy = float(self.center[0]), float(self.center[1])
        if not all(map(math.isfinite, (cx, cy, self.heading, self.length, self.width))):
            raise ShapeError("obstacle box fields must be finite")
        if self.length <= 0.0 or self.width <= 0.0:
            raise ShapeError("obstacle box extents must be positive")
        object.__setattr__(self, "center", (cx, cy))

    def corners(self) -> np.ndarray:
        return _box_corners(self.center, self.heading, self.length, self.width)

    def fields(self) -> tuple:
        """``(center, heading, length, width)``, the form :func:`overlap_flags` takes."""
        return np.asarray(self.center), self.heading, self.length, self.width


_CORNER_SIGNS = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, -1.0], [-1.0, 1.0]])


def _box_corners(center, heading, length, width) -> np.ndarray:
    """Corners (..., 4, 2) of oriented rectangles broadcast over the
    leading axes of the inputs (center carries a trailing axis of 2)."""
    c, s = np.cos(heading), np.sin(heading)
    half = np.stack(np.broadcast_arrays(0.5 * np.asarray(length, dtype=np.float64),
                                        0.5 * np.asarray(width, dtype=np.float64)), axis=-1)
    local = half[..., None, :] * _CORNER_SIGNS
    rot = np.stack((c, -s, s, c), axis=-1).reshape(*np.shape(c), 2, 2)
    # one small matrix product per box, as a single box would compute it
    return local @ np.swapaxes(rot, -1, -2) + np.asarray(center)[..., None, :]


def _horizon_index(horizon_s: float, dt: float, available: int) -> int:
    steps = int(round(horizon_s / dt))
    if steps < 1 or abs(steps * dt - horizon_s) > _HORIZON_SNAP:
        raise HorizonError(f"horizon {horizon_s} s is not a positive multiple of dt={dt}")
    if steps > available:
        raise HorizonError(
            f"horizon {horizon_s} s needs {steps} waypoints, only {available} available"
        )
    return steps - 1


def l2_error(
    pred: Trajectory,
    gt: Trajectory,
    horizons_s: Sequence[float],
    protocol: L2Protocol = L2Protocol.AT_TIMESTEP,
) -> dict[float, float]:
    """Displacement error per horizon under the chosen protocol."""
    protocol = L2Protocol(protocol)
    if pred.dt != gt.dt:
        raise AlignmentError(f"dt mismatch: {pred.dt} vs {gt.dt}")
    n = min(len(pred), len(gt))
    d = np.linalg.norm(pred.points[:n] - gt.points[:n], axis=1)
    out = {}
    for h in horizons_s:
        idx = _horizon_index(h, pred.dt, n)
        if protocol is L2Protocol.AT_TIMESTEP:
            out[float(h)] = float(d[idx])
        else:
            out[float(h)] = float(d[: idx + 1].mean())
    return out


def overlap_flags(a, b) -> np.ndarray:
    """Separating-axis test for broadcast stacks of oriented rectangles.

    ``a`` and ``b`` are ``(center, heading, length, width)`` array tuples
    (center with a trailing axis of 2) whose leading axes broadcast against
    each other; returns one flag per broadcast position.  Touching counts
    as overlap: a pair is apart only when some box axis separates the
    corner projections strictly.
    """
    ca, cb = _box_corners(*a), _box_corners(*b)
    shape = np.broadcast_shapes(ca.shape, cb.shape)
    # a's four corners then b's, so one product projects both onto an axis
    corners = np.concatenate([np.broadcast_to(ca, shape), np.broadcast_to(cb, shape)], axis=-2)
    apart = np.zeros(shape[:-2], dtype=bool)
    for heading in (a[1], b[1]):
        c, s = np.cos(heading), np.sin(heading)
        for axis in (np.stack((c, s), axis=-1), np.stack((-s, c), axis=-1)):
            # corner index first, so the extremes reduce across whole arrays
            proj = np.moveaxis((corners @ axis[..., None])[..., 0], -1, 0).copy()
            pa, pb = proj[:4], proj[4:]
            apart |= (pa.max(axis=0) < pb.min(axis=0)) | (pb.max(axis=0) < pa.min(axis=0))
    return ~apart


def boxes_overlap(a: ObstacleBox, b: ObstacleBox) -> bool:
    """Separating-axis test for two oriented rectangles; touching counts."""
    return bool(overlap_flags(a.fields(), b.fields()))


def ego_headings(points: np.ndarray) -> np.ndarray:
    """Heading per waypoint of (..., n, 2) paths, from forward differences.

    A zero-length step keeps the heading of the step before it (0 at the
    start) and the last waypoint reuses the previous heading; a single
    waypoint points from the origin towards itself.
    """
    if points.shape[-2] == 1:
        x, y = points[..., 0], points[..., 1]
        return np.where((x != 0.0) | (y != 0.0), np.arctan2(y, x), 0.0)
    d = np.diff(points, axis=-2)
    moved = (d[..., 0] != 0.0) | (d[..., 1] != 0.0)
    last_moved = np.maximum.accumulate(np.where(moved, np.arange(moved.shape[-1]), -1), axis=-1)
    step_heading = np.arctan2(d[..., 1], d[..., 0])
    headings = np.where(
        last_moved >= 0,
        np.take_along_axis(step_heading, np.maximum(last_moved, 0), axis=-1),
        0.0,
    )
    return np.concatenate([headings, headings[..., -1:]], axis=-1)


def _clamped_track(obstacle, n: int) -> list:
    """An obstacle's box at each of ``n`` waypoints: a static box
    everywhere, a track clamped at its end."""
    if isinstance(obstacle, ObstacleBox):
        return [obstacle] * n
    seq = list(obstacle)
    if not seq:
        raise EmptyInputError("dynamic obstacle track is empty")
    return seq[:n] + seq[-1:] * (n - len(seq))


def collision_flags(pred: Trajectory, ego_dims: tuple[float, float], obstacles) -> np.ndarray:
    """Per-waypoint collision flags of the ego box swept along ``pred``.

    ``obstacles`` entries are either a static box or a per-waypoint
    sequence of boxes (clamped at its end for longer predictions).
    """
    length, width = float(ego_dims[0]), float(ego_dims[1])
    if not (0.0 < length < math.inf and 0.0 < width < math.inf):
        raise ShapeError(f"ego extents must be positive and finite, got {ego_dims}")
    n = len(pred)
    tracks = [_clamped_track(obstacle, n) for obstacle in obstacles]
    rows = np.array(
        [[(*box.center, box.heading, box.length, box.width) for box in track] for track in tracks],
        dtype=np.float64,
    ).reshape(len(tracks), n, 5)
    ego = (pred.points, ego_headings(pred.points), length, width)
    return overlap_flags(ego, (rows[..., :2], rows[..., 2], rows[..., 3], rows[..., 4])).any(axis=0)


def collision_rate(
    pred: Trajectory,
    ego_dims: tuple[float, float],
    obstacles,
    horizons_s: Sequence[float],
) -> dict[float, float]:
    """Percent collision per horizon for one prediction: 100 when any step
    up to the horizon collides, else 0."""
    flags = collision_flags(pred, ego_dims, obstacles)
    out = {}
    for h in horizons_s:
        idx = _horizon_index(h, pred.dt, len(pred))
        out[float(h)] = 100.0 if flags[: idx + 1].any() else 0.0
    return out


def tpc(
    cur_pred: Trajectory,
    prev_pred: Trajectory,
    frame_delta: Pose2,
    mask: OverlapMask,
    frame_gap_steps: int = 1,
) -> float | None:
    """Consistency of consecutive predictions, as RMSE over the overlap.

    The current prediction is moved into the previous frame first; masked
    waypoint i pairs with previous waypoint i + gap.  Returns None when the
    mask selects nothing (the sample is skipped by aggregation).
    """
    if len(mask) != len(cur_pred):
        raise ShapeError(f"mask length {len(mask)} != prediction length {len(cur_pred)}")
    idx = np.flatnonzero(mask.flags)
    if idx.size == 0:
        return None
    if idx.max() + frame_gap_steps >= len(prev_pred):
        raise AlignmentError("mask selects waypoints beyond the previous horizon")
    moved = transform_to_frame(cur_pred, frame_delta)
    diff = moved.points[idx] - prev_pred.points[idx + frame_gap_steps]
    sq = diff[:, 0] ** 2 + diff[:, 1] ** 2
    return float(math.sqrt(sq.mean()))


def min_ade_fde(candidates: TrajectorySet, gt: Trajectory):
    """Best average and final displacement over candidates.

    The two minima are independent, matching how motion benchmarks report
    them; the returned index belongs to the ADE winner (lowest index on a
    tie).
    """
    ades, fdes = [], []
    for traj in candidates.trajectories:
        if len(traj) != len(gt):
            raise AlignmentError(
                f"candidate length {len(traj)} != ground-truth length {len(gt)}"
            )
        d = np.linalg.norm(traj.points - gt.points, axis=1)
        ades.append(float(d.mean()))
        fdes.append(float(d[-1]))
    best = int(np.argmin(ades))
    return ades[best], float(min(fdes)), best


def focal_loss(prob: float, target: int, alpha: float = 0.25, gamma: float = 2.0) -> float:
    """-alpha * (1 - p_t)^gamma * ln(p_t) with p_t the probability assigned
    to the true class."""
    if not 0.0 < prob < 1.0:
        raise ValueError(f"prob must lie strictly inside (0, 1), got {prob}")
    if target not in (0, 1):
        raise ValueError(f"target must be 0 or 1, got {target}")
    p_t = prob if target == 1 else 1.0 - prob
    return -alpha * (1.0 - p_t) ** gamma * math.log(p_t)


@dataclass(frozen=True)
class LossWeights:
    """Per-term weights for the staged training losses."""

    det_cls: float = 2.0
    det_reg: float = 0.25
    map_cls: float = 1.0
    map_reg: float = 10.0
    motion_cls: float = 0.2
    motion_reg: float = 0.2
    plan_cls: float = 0.5
    plan_reg: float = 1.0
    plan_status: float = 1.0

    def __post_init__(self):
        for name, value in vars(self).items():
            if value < 0.0 or not math.isfinite(value):
                raise ConfigError(f"loss weight {name} must be non-negative, got {value}")


def combined_losses(
    det_terms: tuple[float, float],
    map_terms: tuple[float, float],
    motion_terms: tuple[float, float],
    plan_terms: tuple[float, float, float],
    weights: LossWeights = LossWeights(),
) -> tuple[float, float]:
    """Stage totals: (detection+map, detection+map+motion+planning)."""
    w = weights
    l_det = w.det_cls * det_terms[0] + w.det_reg * det_terms[1]
    l_map = w.map_cls * map_terms[0] + w.map_reg * map_terms[1]
    l_mp = (
        w.motion_cls * motion_terms[0]
        + w.motion_reg * motion_terms[1]
        + w.plan_cls * plan_terms[0]
        + w.plan_reg * plan_terms[1]
        + w.plan_status * plan_terms[2]
    )
    stage_one = l_det + l_map
    return stage_one, stage_one + l_mp


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class MetricReport:
    """Per-horizon metric maps plus scalar candidate-quality numbers."""

    l2: Mapping[float, float]
    collision_rate: Mapping[float, float]
    tpc: Mapping[float, float]
    min_ade: float
    min_fde: float

    def rows(self):
        """Stable (metric, horizon, value) listing used by every serializer."""
        out = []
        for name, mapping in (("l2", self.l2), ("collision_rate", self.collision_rate), ("tpc", self.tpc)):
            for h in sorted(mapping):
                out.append((name, float(h), float(mapping[h])))
        out.append(("min_ade", None, float(self.min_ade)))
        out.append(("min_fde", None, float(self.min_fde)))
        return out

    def to_csv_text(self) -> str:
        lines = ["metric,horizon_s,value"]
        for name, h, v in self.rows():
            lines.append(f"{name},{'' if h is None else repr(h)},{repr(v)}")
        return "\n".join(lines) + "\n"

    def to_json_text(self) -> str:
        payload = {
            "l2": [[float(h), float(v)] for h, v in sorted(self.l2.items())],
            "collision_rate": [[float(h), float(v)] for h, v in sorted(self.collision_rate.items())],
            "tpc": [[float(h), float(v)] for h, v in sorted(self.tpc.items())],
            "min_ade": float(self.min_ade),
            "min_fde": float(self.min_fde),
        }
        return json.dumps(payload)

    @staticmethod
    def from_json_text(text: str) -> "MetricReport":
        obj = json.loads(text)
        return MetricReport(
            l2={float(h): float(v) for h, v in obj["l2"]},
            collision_rate={float(h): float(v) for h, v in obj["collision_rate"]},
            tpc={float(h): float(v) for h, v in obj["tpc"]},
            min_ade=float(obj["min_ade"]),
            min_fde=float(obj["min_fde"]),
        )


def mean_reports(reports: Sequence[MetricReport]) -> MetricReport:
    """Horizon-wise mean across reports, order-independent by construction."""
    if not reports:
        raise EmptyInputError("nothing to aggregate")
    horizons = {name: sorted(getattr(reports[0], name)) for name in ("l2", "collision_rate", "tpc")}
    for rep in reports:
        for name, hs in horizons.items():
            if sorted(getattr(rep, name)) != hs:
                raise AlignmentError("reports to aggregate must share horizons")
    n = len(reports)

    def mean_map(name):
        return {
            h: math.fsum(getattr(rep, name)[h] for rep in reports) / n
            for h in horizons[name]
        }

    return MetricReport(
        l2=mean_map("l2"),
        collision_rate=mean_map("collision_rate"),
        tpc=mean_map("tpc"),
        min_ade=math.fsum(r.min_ade for r in reports) / n,
        min_fde=math.fsum(r.min_fde for r in reports) / n,
    )
