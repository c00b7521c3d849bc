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

Each metric has one definition, a kernel over stacks of F frames: the
two L2 protocols, the TPC pairing, min ADE/FDE, swept-box collisions, the
horizon rule and the per-frame mean, which is nan over no frames.  The
pointwise displacement they read is ``matching._displacements``, the one
the pointwise-mean distance averages.  A rollout's report folds them over
every frame at once; ``l2_error``, ``tpc``, ``min_ade_fde``,
``collision_flags`` and ``collision_rate`` are their calls on one frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .errors import AlignmentError, ConfigError, EmptyInputError, GeometryError, HorizonError, ShapeError
from .matching import TrajectorySet, _displacements, _moved
from .trajectory import OverlapMask, Pose2, Trajectory, _from_frame, _mean
from .trajectory import transform_to_frame  # noqa: F401

# nothing here calls transform_to_frame; it stays importable on this module
# because bench/tracing.py wraps it here.

_HORIZON_SNAP = 1e-9


def _number(name: str, value) -> float:
    """``value`` as a float; bools, strings and other non-numbers are
    rejected rather than converted.  Every number field of a record, here
    and in ``simulator``, reads through this."""
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        return float(value)
    raise ConfigError(f"{name} must be a number, got {value!r}")


class L2Protocol(str, Enum):
    AT_TIMESTEP = "vad"
    AVERAGED_UP_TO = "uniad"


# obstacle centre bound, per coordinate: no ego path gets farther from the
# origin than 100 m/s * 610 s = 61 km, so a box past it can never be hit,
# and one near the float64 limit overflows the collision kernel's sums.
# The simulator's own bounds, MAX_NOISE and its neighbours, sit there.
MAX_OBSTACLE_COORD_M = 1e7


@dataclass(frozen=True)
class ObstacleBox:
    """An oriented rectangle on the ground plane, its centre within
    ``MAX_OBSTACLE_COORD_M`` of the origin on each axis."""

    center: tuple[float, float]
    heading: float
    length: float
    width: float

    def __post_init__(self):
        if not isinstance(self.center, (list, tuple, np.ndarray)) or len(self.center) != 2:
            raise ShapeError(f"obstacle box center must be two numbers, got {self.center!r}")
        object.__setattr__(self, "center", tuple(_number("center", v) for v in self.center))
        for name in ("heading", "length", "width"):
            object.__setattr__(self, name, _number(name, getattr(self, name)))
        if not all(map(math.isfinite, (*self.center, self.heading, self.length, self.width))):
            raise ShapeError("obstacle box fields must be finite")
        if not all(abs(v) <= MAX_OBSTACLE_COORD_M for v in self.center):
            raise ShapeError(f"obstacle box center {self.center} is past {MAX_OBSTACLE_COORD_M:g} m on an axis")
        if self.length <= 0.0 or self.width <= 0.0:
            raise ShapeError("obstacle box extents must be positive")

    def corners(self) -> np.ndarray:
        """The four corners (4, 2), clockwise from front left."""
        c, s = np.cos(self.heading), np.sin(self.heading)
        local = np.array([[0.5 * self.length, 0.5 * self.width]]) * _CORNER_SIGNS
        return _from_frame(local, np.array([[c, -s], [s, c]]), np.asarray(self.center))

    def fields(self) -> tuple:
        """``(center, heading, length, width)``, the form :func:`overlap_flags` takes."""
        return np.asarray(self.center), self.heading, self.length, self.width


_CORNER_SIGNS = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, -1.0], [-1.0, 1.0]])


def _horizon_index(horizon_s: float, dt: float, available: int) -> int:
    """Index of the last of ``available`` waypoints on a ``dt`` grid that a
    horizon of ``horizon_s`` seconds reads: the one horizon rule, which
    every metric and ``RunSettings`` apply.  A horizon that is no positive
    multiple of dt (non-finite ones included) or needs more waypoints than
    there are raises ``HorizonError``."""
    ratio = horizon_s / dt
    # round() refuses inf and nan, which are no multiple of dt either
    steps = int(round(ratio)) if math.isfinite(ratio) else 0
    if steps < 1 or abs(steps * dt - horizon_s) > _HORIZON_SNAP:
        raise HorizonError(f"horizon {horizon_s} s is not a positive multiple of dt={dt}")
    if steps > available:
        raise HorizonError(
            f"horizon {horizon_s} s needs {steps} waypoints, only {available} available"
        )
    return steps - 1


def _mean_of(values: np.ndarray) -> float:
    """The mean of per-frame values, summed with ``math.fsum`` in frame
    order; nan for no frames, so that an empty aggregate never reads as a
    perfect score."""
    return math.fsum(values.tolist()) / len(values) if len(values) else math.nan


def _l2(d: np.ndarray, steps: int, protocol: L2Protocol) -> np.ndarray:
    """L2 per row of (F, n) displacements over the first ``steps``
    waypoints: the last one's, or their mean."""
    if protocol is L2Protocol.AVERAGED_UP_TO:
        return _mean(d[:, :steps], -1)
    return d[:, steps - 1]


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
    d = _displacements(pred.points[None, :n], gt.points[None, :n])
    return {float(h): float(_l2(d, _horizon_index(h, pred.dt, n) + 1, protocol)[0]) for h in horizons_s}


def overlap_flags(a, b) -> np.ndarray:
    """Separating-axis test for broadcast stacks of oriented rectangles.

    ``a`` and ``b`` are ``(center, heading, length, width)`` array tuples
    (center with a trailing axis of 2) whose leading axes broadcast against
    each other; returns one flag per broadcast position.  On each of the
    four box axes a pair is apart when the centre offset's projection
    exceeds the sum of both boxes' projected half extents (the closed form
    of Gottschalk, Lin & Manocha's OBB test).  Touching counts as overlap:
    only a strictly greater offset separates.  Swapping ``a`` and ``b``
    negates the offset and reorders commutative products, so the flags are
    exactly symmetric.
    """
    (center_a, heading_a, length_a, width_a), (center_b, heading_b, length_b, width_b) = a, b
    d = np.asarray(center_b, dtype=np.float64) - np.asarray(center_a, dtype=np.float64)
    dx, dy = d[..., 0], d[..., 1]
    ca, sa, cb, sb = np.cos(heading_a), np.sin(heading_a), np.cos(heading_b), np.sin(heading_b)
    cos_ab, sin_ab = np.abs(ca * cb + sa * sb), np.abs(sa * cb - ca * sb)
    la, wa, lb, wb = (0.5 * np.asarray(v, dtype=np.float64) for v in (length_a, width_a, length_b, width_b))
    # a's length and width axes, then b's
    return ~(
        (np.abs(dx * ca + dy * sa) > la + (lb * cos_ab + wb * sin_ab))
        | (np.abs(dy * ca - dx * sa) > wa + (lb * sin_ab + wb * cos_ab))
        | (np.abs(dx * cb + dy * sb) > lb + (la * cos_ab + wa * sin_ab))
        | (np.abs(dy * cb - dx * sb) > wb + (la * sin_ab + wa * cos_ab))
    )


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


def _swept_hits(points: np.ndarray, length: float, width: float, boxes) -> np.ndarray:
    """Per-waypoint collision flags (..., n) of a ``length`` x ``width`` ego
    box swept along (..., n, 2) paths, heading along them, against
    ``boxes``: obstacle stacks in ``overlap_flags`` form whose leading
    obstacle axis comes before axes that broadcast against the paths."""
    ego = (points, ego_headings(points), length, width)
    return overlap_flags(ego, boxes).any(axis=0)


def _collided(hits: np.ndarray, steps: int) -> np.ndarray:
    """100 per row of (F, n) hit flags with a hit among its first ``steps``
    waypoints, else 0."""
    return np.where(hits[:, :steps].any(axis=-1), 100.0, 0.0)


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
    return _swept_hits(pred.points, length, width, (rows[..., :2], rows[..., 2], rows[..., 3], rows[..., 4]))


def collision_rate(
    pred: Trajectory,
    ego_dims: tuple[float, float],
    obstacles,
    horizons_s: Sequence[float],
) -> dict[float, float]:
    """Percent collision per horizon for one prediction: 100 when any step
    up to the horizon collides, else 0."""
    flags = collision_flags(pred, ego_dims, obstacles)[None]
    return {float(h): float(_collided(flags, _horizon_index(h, pred.dt, len(pred)) + 1)[0]) for h in horizons_s}


def _consistency_sq(cur, prev, rotation, translation, gap: int) -> np.ndarray:
    """The TPC pairing over F frames: each plan (F, n, 2) moved into the
    frame before by its (F, 2, 2) rotation and (F, 2) translation, the
    product TTM moves candidates by, then the squared distance (F, L) from
    its waypoint i to waypoint i + gap of that frame's plan (F, m, 2), for
    every i < L = min(n, m - gap)."""
    moved = _moved(cur[:, None], rotation, translation)[:, 0]
    length = min(moved.shape[1], prev.shape[1] - gap)
    diff = moved[:, :length] - prev[:, gap : gap + length]
    return diff[..., 0] ** 2 + diff[..., 1] ** 2


def _rms(sq: np.ndarray) -> np.ndarray:
    """Root of the mean over the last axis."""
    return np.sqrt(_mean(sq, -1))


def tpc(
    cur_pred: Trajectory,
    prev_pred: Trajectory,
    frame_delta: Pose2,
    mask: OverlapMask,
    frame_gap_steps: int = 1,
) -> float | None:
    """Consistency of consecutive predictions, as RMSE over the overlap.

    The current prediction is moved into the previous frame first; masked
    waypoint i pairs with previous waypoint i + gap, and the gap must be
    non-negative.  Returns None when the mask selects nothing (the sample is
    skipped by aggregation).
    """
    if frame_gap_steps < 0:
        raise GeometryError(f"frame gap must be >= 0, got {frame_gap_steps}")
    if len(mask) != len(cur_pred):
        raise ShapeError(f"mask length {len(mask)} != prediction length {len(cur_pred)}")
    idx = np.flatnonzero(mask.flags)
    if idx.size == 0:
        return None
    if idx.max() + frame_gap_steps >= len(prev_pred):
        raise AlignmentError("mask selects waypoints beyond the previous horizon")
    sq = _consistency_sq(cur_pred.points[None], prev_pred.points[None], frame_delta.rotation[None],
                         frame_delta.translation[None], frame_gap_steps)
    return float(_rms(sq[:, idx])[0])


def _best_displacements(points: np.ndarray, gt: np.ndarray):
    """Min ADE (F,), min FDE (F,) and every candidate's ADE (F, K) of
    candidate stacks (F, K, N, 2) against ground truths (F, N, 2).  The
    last is the minimum's operand, returned for ``min_ade_fde``, the one
    caller that names the ADE winner."""
    d = _displacements(points, gt[:, None])
    ade = _mean(d, -1)
    return ade.min(axis=-1), d[..., -1].min(axis=-1), ade


def min_ade_fde(candidates: TrajectorySet, gt: Trajectory):
    """Best average and final displacement over candidates.

    The two minima are independent, matching how motion benchmarks report
    them; the returned index belongs to the ADE winner (lowest index on a
    tie).
    """
    n = candidates.points.shape[1]
    if n != len(gt):
        raise AlignmentError(f"candidate length {n} != ground-truth length {len(gt)}")
    ade, fde, per_candidate = _best_displacements(candidates.points[None], gt.points[None])
    return float(ade[0]), float(fde[0]), int(per_candidate[0].argmin())


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
            lines.append(f"{_row_key(name, h)},{v!r}")
        return "\n".join(lines) + "\n"


def _row_key(metric: str, horizon) -> str:
    """A report row's metric and horizon cells, as every CSV writes them."""
    return f"{metric},{'' if horizon is None else repr(horizon)}"


def _fold_report(horizons_s, dt: float, protocol: L2Protocol, d, hits, sq, min_ade: float,
                 min_fde: float) -> MetricReport:
    """The report over F frames at every horizon, from per-frame rows: the
    displacements (F, n) of each chosen plan, its collision flags (F, n)
    and its TPC pairing (F', n') against the plan before (a frame without
    one has no row); min ADE/FDE are given.  Each horizon slices its first
    waypoints from those rows, and per-frame values go through
    ``_mean_of``.  Where no waypoint of any frame hit anything, every
    horizon's collision rate is that mean of zeros, 0.0, or nan over no
    frames, without reducing the flags."""
    l2, collision, consistency = {}, {}, {}
    any_hit = np.logical_or.reduce(hits, axis=None)
    no_hit = 0.0 if len(hits) else math.nan
    for h in horizons_s:
        steps = _horizon_index(h, dt, d.shape[1]) + 1
        l2[h] = _mean_of(_l2(d, steps, protocol))
        collision[h] = _mean_of(_collided(hits, steps)) if any_hit else no_hit
        consistency[h] = _mean_of(_rms(sq[:, :steps]))
    return MetricReport(l2=l2, collision_rate=collision, tpc=consistency, min_ade=min_ade, min_fde=min_fde)


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
