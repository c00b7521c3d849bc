"""Seeded desk-scale scenarios for exercising the two planners end to end.

The world is deliberately small: an analytic ground-truth path, scripted
box obstacles, and a proposal generator that fans K candidates around the
remaining ground-truth future.  All randomness flows through one
``numpy.random.Generator`` seeded from the scenario spec, so a run is
reproducible to the byte and the one-shot and momentum planners can be
compared on identical proposal streams.

Execution model: every candidate shares its first waypoint (the fan opens
over the horizon, and the one shared first-step perturbation is drawn once
per frame), so the pose sequence the ego traces does not depend on which
candidate a planner picks.  Differences between planners show up where
they should for consistency studies: in the predicted tails.

A rollout therefore runs in three passes.  The stream pass draws every
frame's noise at once, chains the ego poses in a short loop, moves the
ground truth into every ego frame once, for the proposals and the scene
alike, and builds all frames' proposals as stacked arrays and the scene
quantities no choice changes; the most recent stream is kept for the next
rollout on the same scene.  The selection pass then chooses over those
stacks.  Within it only the previous choice depends on the planner, so
the momentum planner's TTM distances and MPI scores are computed for
every previous choice at once, stacked over frame blocks, and the choices
are chased through them; at history depth 2 each block hands the next the
cell state of its last history row.  The score pass scores what the
choice changes.
An execution that followed the chosen plan instead would have to choose
inside the pose loop.

Every frame transform and frame delta here is a call of the stacked
kernels in ``trajectory``, and the obstacle motion model has one
definition, ``_boxes_at``.
"""

from __future__ import annotations

import base64
import binascii
import functools
import json
import logging
import math
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from time import perf_counter_ns
from typing import Sequence

import numpy as np

from .errors import AlignmentError, ConfigError, EmptyInputError, GeometryError, HorizonError
from .errors import LogCorruptionError, ShapeError
from .interactor import QueryBatch, WeightBundle, mix_history, softmax
from .interactor import _lstm_step, _refined_scores, _score_gate
from .interactor import mpi_forward  # noqa: F401
from .matching import DistanceKind, TrajectorySet, _displacements, _moved, _pair_distances, ttm_select
from .metrics import MAX_OBSTACLE_COORD_M, L2Protocol, MetricReport, ObstacleBox, _best_displacements
from .metrics import _consistency_sq, _fold_report, _horizon_index, _mean_of, _number, _swept_hits
from .metrics import collision_flags, l2_error, min_ade_fde, tpc  # noqa: F401
from .trajectory import Pose2, Trajectory, _frame_delta, _from_frame, _json_numbers, _mean, _to_frame
from .trajectory import transform_to_frame  # noqa: F401

# The per-trajectory metrics above score one frame each and report_from_log
# does not call them, the rollout moves its futures into the ego frame
# through the stacked kernel, not transform_to_frame, and nothing here
# calls mpi_forward; they stay importable here because bench/tracing.py
# wraps them on this module.

_logger = logging.getLogger(__name__)

SIM_DT = 0.5
LOG_FORMAT_VERSION = 2

# scenario bounds: faster or longer scenes overflow the metrics or build
# paths of millions of waypoints before the first frame is planned
MAX_SPEED_MPS = 100.0
MAX_DURATION_S = 600.0
# turns tighter than this are no road geometry, and a radius near zero
# makes the swept angle s / r overflow to inf
MIN_RADIUS_M = 1.0
# size bounds: a rollout holds every frame's noise, candidates and queries
# at once, so these and MAX_DURATION_S bound its memory
MAX_K = 16
MAX_HORIZON_STEPS = 20
MAX_D_Q = 128
# the last absolute step any obstacle track is read at, 610 s in: the last
# waypoint of the last plan of the longest scene
MAX_TRACK_STEP = round(MAX_DURATION_S / SIM_DT) + MAX_HORIZON_STEPS
# seeds, scenario and weight seeds alike, fit in 64 unsigned bits; far
# larger ones make the ``run_seed<seed>`` file names too long to write
MAX_SEED = 2**64 - 1
# noise scales (mode_noise_m, jitter_m, ns): the rollout squares distances
# between noisy candidates and multiplies noisy queries by the weights,
# and from about 1e155 those overflow float64.  1e6 m is no sensor's
# noise, and a rollout at it stays far inside the range and warns of nothing
MAX_NOISE = 1e6

# the most float64 values the momentum selection pass holds at once for a
# block of frames: its (frames, K, K', N, N) pointwise distances, or the
# cell's working set, ``_CELL_ARRAYS`` arrays the size of its (frames, K,
# 4 d_q) pre-activations.  A rollout's whole stack of either would outgrow
# its stream; at the size bounds a block is one frame, at the default sizes
# 28.
_SELECT_BLOCK_ELEMENTS = 1 << 17
# the input product, the pre-activations, the sigmoid and its two
# temporaries, and the gates' quarter-width arrays: tracemalloc reads about
# 5.5 pre-activations per frame of a block at the size bounds
_CELL_ARRAYS = 6

SCENARIO_KINDS = ("straight", "arc_turn", "s_curve")
PLANNER_KINDS = ("oneshot", "momentum")

# queries must be comparable across frames, so their projection is fixed
# once per (width, horizon) and never depends on the scenario seed
_QUERY_PROJECTION_SEED = 1_400_305


# ---------------------------------------------------------------------------
# records
#
# ScriptedObstacle, ScenarioSpec and RunSettings declare their schema once,
# as dataclass fields: each field's annotation picks its coercion in
# ``_COERCE``, its default is the dataclass default, and the dict form
# lists the fields in declaration order.  ``__post_init__`` coerces, then
# checks the bounds, so a config file and a direct call give equal records.


def _integral(name: str, value) -> int:
    """``value`` as an int; bools, fractions and non-numbers are rejected
    rather than truncated."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def _pair(name: str, value) -> tuple[float, float]:
    if not isinstance(value, (list, tuple, np.ndarray)) or len(value) != 2:
        raise ConfigError(f"{name} must be two numbers, got {value!r}")
    return _number(name, value[0]), _number(name, value[1])


def _floats(name: str, value) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{name} must be a list of numbers, got {value!r}")
    return tuple(_number(name, v) for v in value)


def _obstacles(name: str, value) -> tuple:
    return tuple(o if isinstance(o, ScriptedObstacle) else ScriptedObstacle.from_dict(o) for o in value)


# field annotation -> (name, value) -> coerced value; None keeps the value
_COERCE = {
    "str": None,
    "ObstacleBox": None,
    "int": _integral,
    "int | None": lambda name, value: None if value is None else _integral(name, value),
    "float": _number,
    "tuple[float, float]": _pair,
    "tuple[float, ...]": _floats,
    "tuple[ScriptedObstacle, ...]": _obstacles,
    "DistanceKind": lambda name, value: DistanceKind(value),
    "L2Protocol": lambda name, value: L2Protocol(value),
}


@functools.cache
def _schema(cls) -> dict:
    """A record class's field names in declaration order, each with the
    coercion its annotation picks in ``_COERCE``."""
    return {f.name: _COERCE[f.type] for f in fields(cls)}


def _coerce(record) -> None:
    """Set every field of a frozen record to its coerced value."""
    for name, convert in _schema(type(record)).items():
        if convert is not None:
            object.__setattr__(record, name, convert(name, getattr(record, name)))


def _plain(value):
    # a field value in its JSON form; tuples hold numbers or obstacles
    if isinstance(value, tuple):
        return [v.to_dict() if isinstance(v, ScriptedObstacle) else v for v in value]
    return value.value if isinstance(value, Enum) else value


def _record_dict(record) -> dict:
    """A record's fields in declaration order: enums by value, tuples as
    lists, obstacles by their own ``to_dict``."""
    return {name: _plain(getattr(record, name)) for name in _schema(type(record))}


def _read_record(cls, obj, what: str):
    """``cls(**obj)`` for a mapping of ``cls``'s fields; any way that fails
    is a ConfigError."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} must be a mapping")
    unknown = obj.keys() - _schema(cls)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown, key=str)}")
    try:
        return cls(**obj)
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        # ValueError covers the obstacle box's own ShapeError
        raise ConfigError(f"bad {what}: {exc}") from exc


@dataclass(frozen=True)
class ScriptedObstacle:
    """A box with constant-velocity motion whose centre stays within
    ``MAX_OBSTACLE_COORD_M`` on each axis up to ``MAX_TRACK_STEP``."""

    box: ObstacleBox
    velocity: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        _coerce(self)
        if not math.hypot(*self.velocity) <= MAX_SPEED_MPS:
            raise ConfigError(
                f"obstacle speed must be finite and at most {MAX_SPEED_MPS} m/s, got {self.velocity}"
            )
        # the centre at MAX_TRACK_STEP in _boxes_at's float arithmetic; the
        # centre moves monotonically on each axis, and so do its rounded
        # products, so the first and last steps bound every step's box
        t = MAX_TRACK_STEP * SIM_DT
        if not all(abs(c + v * t) <= MAX_OBSTACLE_COORD_M for c, v in zip(self.box.center, self.velocity)):
            raise ConfigError(
                f"obstacle at {self.box.center} moving at {self.velocity} m/s passes "
                f"{MAX_OBSTACLE_COORD_M:g} m on an axis within {MAX_TRACK_STEP * SIM_DT:g} s"
            )

    def at_step(self, step: int) -> ObstacleBox:
        """The box at absolute ``step``, in [0, ``MAX_TRACK_STEP``]:
        ``_boxes_at`` for one obstacle and one step."""
        if not 0 <= step <= MAX_TRACK_STEP:
            raise ConfigError(f"track step must be in [0, {MAX_TRACK_STEP}] (MAX_TRACK_STEP), got {step!r}")
        center, heading, length, width = _boxes_at((self,), step)
        return ObstacleBox(center[0], heading[0], length[0], width[0])

    def to_dict(self) -> dict:
        """The box's fields and the velocity, in one flat record."""
        return _record_dict(self.box) | {"velocity": list(self.velocity)}

    @staticmethod
    def from_dict(obj) -> "ScriptedObstacle":
        """The flat record ``to_dict`` writes: the box's fields beside an
        optional velocity."""
        if isinstance(obj, dict):
            box = {key: value for key, value in obj.items() if key != "velocity"}
            obj = {key: value for key, value in obj.items() if key == "velocity"}
            obj["box"] = _read_record(ObstacleBox, box, "obstacle")
        return _read_record(ScriptedObstacle, obj, "obstacle")


def _boxes_at(obstacles, steps) -> tuple:
    """The obstacles' boxes at absolute ``steps``, an int array of any
    shape, in ``overlap_flags`` form: centres (O, *steps.shape, 2) moved
    from the box centre by velocity * step * SIM_DT, and headings, lengths
    and widths (O, 1, ...) that broadcast against them.  This is the one
    definition of the obstacle motion model."""
    rows = np.array([(*o.box.center, *o.velocity, o.box.heading, o.box.length, o.box.width)
                     for o in obstacles])
    rows = rows.reshape((len(obstacles),) + (1,) * np.ndim(steps) + (7,))
    t = (np.asarray(steps) * SIM_DT)[..., None]
    return rows[..., 0:2] + rows[..., 2:4] * t, rows[..., 4], rows[..., 5], rows[..., 6]


@dataclass(frozen=True)
class ScenarioSpec:
    """Analytic scenario: path kind, duration, speed, obstacles, seed."""

    kind: str
    duration_s: float
    speed_mps: float
    radius_m: float = 20.0
    angle_rad: float = math.pi / 2.0
    obstacles: tuple[ScriptedObstacle, ...] = ()
    seed: int = 0

    def __post_init__(self):
        _coerce(self)
        if self.kind not in SCENARIO_KINDS:
            raise ConfigError(f"unknown scenario kind {self.kind!r}; pick one of {SCENARIO_KINDS}")
        if not 0.0 < self.duration_s <= MAX_DURATION_S:
            raise ConfigError(
                f"duration must be positive and at most {MAX_DURATION_S} s, got {self.duration_s}"
            )
        if round(self.duration_s / SIM_DT) < 1:
            raise ConfigError(
                f"duration {self.duration_s} s is shorter than one {SIM_DT} s planning frame"
            )
        if not 0.0 < self.speed_mps <= MAX_SPEED_MPS:
            raise ConfigError(
                f"speed must be positive and at most {MAX_SPEED_MPS} m/s, got {self.speed_mps}"
            )
        if not (math.isfinite(self.radius_m) and math.isfinite(self.angle_rad)):
            raise ConfigError(
                f"radius and turn angle must be finite, got {self.radius_m} and {self.angle_rad}"
            )
        if self.kind in ("arc_turn", "s_curve") and not self.radius_m >= MIN_RADIUS_M:
            raise ConfigError(f"radius must be at least {MIN_RADIUS_M} m, got {self.radius_m}")
        if self.kind == "arc_turn" and not self.angle_rad > 0.0:
            raise ConfigError(f"turn angle must be positive, got {self.angle_rad}")
        if not 0 <= self.seed <= MAX_SEED:
            raise ConfigError(f"seed must be in [0, 2**64 - 1], got {self.seed}")

    def to_dict(self) -> dict:
        return _record_dict(self)

    @staticmethod
    def from_dict(obj) -> "ScenarioSpec":
        return _read_record(ScenarioSpec, obj, "scenario")


@dataclass(frozen=True)
class RunSettings:
    """Everything about a run that is not the scenario itself."""

    planner: str = "momentum"
    history_depth: int = 1
    distance: DistanceKind = DistanceKind.HAUSDORFF
    k: int = 6
    horizon_steps: int = 6
    d_q: int = 32
    mode_noise_m: float = 1.0
    jitter_m: float = 0.3
    ns: float = 0.1
    weight_seed: int = 0
    occlusion_start: int | None = None
    occlusion_len: int = 0
    ego_length_m: float = 4.0
    ego_width_m: float = 2.0
    protocol: L2Protocol = L2Protocol.AT_TIMESTEP
    horizons_s: tuple[float, ...] = (1.0, 2.0, 3.0)

    def __post_init__(self):
        _coerce(self)
        if self.planner not in PLANNER_KINDS:
            raise ConfigError(f"unknown planner {self.planner!r}; pick one of {PLANNER_KINDS}")
        if self.history_depth not in (0, 1, 2):
            raise ConfigError(f"history depth must be 0, 1 or 2, got {self.history_depth}")
        if not 1 <= self.k <= MAX_K:
            raise ConfigError(f"candidate count must be in [1, {MAX_K}], got {self.k}")
        if not 2 <= self.horizon_steps <= MAX_HORIZON_STEPS:
            raise ConfigError(f"horizon steps must be in [2, {MAX_HORIZON_STEPS}], got {self.horizon_steps}")
        if not 1 <= self.d_q <= MAX_D_Q:
            raise ConfigError(f"query width must be in [1, {MAX_D_Q}], got {self.d_q}")
        for name in ("mode_noise_m", "jitter_m", "ns"):
            value = getattr(self, name)
            if not 0.0 <= value <= MAX_NOISE:
                raise ConfigError(f"{name} must be in [0, {MAX_NOISE:g}], got {value}")
        if not 0 <= self.weight_seed <= MAX_SEED:
            raise ConfigError(f"weight seed must be in [0, 2**64 - 1], got {self.weight_seed}")
        if self.occlusion_start is not None and self.occlusion_start < 0:
            raise ConfigError(f"occlusion start must be >= 0, got {self.occlusion_start}")
        if self.occlusion_len < 0:
            raise ConfigError(f"occlusion length must be >= 0, got {self.occlusion_len}")
        if not (0.0 < self.ego_length_m < math.inf and 0.0 < self.ego_width_m < math.inf):
            raise ConfigError("ego dimensions must be positive and finite")
        if not self.horizons_s:
            raise ConfigError("at least one evaluation horizon is required")
        for h in self.horizons_s:
            try:
                _horizon_index(h, SIM_DT, self.horizon_steps)
            except HorizonError as exc:
                raise ConfigError(f"evaluation {exc}") from exc

    def to_dict(self) -> dict:
        return _record_dict(self)

    @staticmethod
    def from_dict(obj) -> "RunSettings":
        return _read_record(RunSettings, obj, "settings")


def _is_index(idx, k: int) -> bool:
    return type(idx) is int and 0 <= idx < k


def _index_error(idx, k: int) -> AlignmentError:
    return AlignmentError(f"chosen_index must be an integer in [0, {k}), got {idx!r}")


def _refined_error(k: int) -> ShapeError:
    return ShapeError(f"refined_scores must be {k} finite numbers")


@dataclass(frozen=True)
class FrameRecord:
    """One planning step: what was proposed, chosen and where the ego was.

    The proposal stack is the only copy of the plans; the chosen plan is
    its row ``chosen_index``.
    """

    time_s: float
    ego_pose: Pose2
    proposals: TrajectorySet
    chosen_index: int
    refined_scores: np.ndarray | None = None

    def __post_init__(self):
        k, idx = len(self.proposals), self.chosen_index
        if not _is_index(idx, k):
            raise _index_error(idx, k)
        if self.refined_scores is not None:
            refined = np.asarray(self.refined_scores, dtype=np.float64)
            if refined.shape != (k,) or not np.isfinite(refined).all():
                raise _refined_error(k)
            refined.setflags(write=False)
            object.__setattr__(self, "refined_scores", refined)

    @classmethod
    def per_frame(cls, times, poses, proposals, chosen, refined=None, refined_frames=()) -> tuple:
        """One record per frame, from each frame's time, pose, proposal set
        and chosen index; the proposal sets share one K, as
        ``TrajectorySet.per_frame`` builds them.  Row i of the (F', K)
        ``refined`` block holds the refined scores of frame
        ``refined_frames[i]``; the other frames have none.

        The indices and the block are checked once, with the checks each
        record would make, and the first record at fault raises its own
        error.  The block is then made read-only; it is not copied, and each
        refined frame holds a view of its row.
        """
        if not chosen:
            return ()
        k = len(proposals[0])
        bad_index = next((j for j, idx in enumerate(chosen) if not _is_index(idx, k)), len(chosen))
        bad_refined = len(chosen)
        if refined is not None:
            refined = np.asarray(refined, dtype=np.float64)
            if refined_frames and (refined.ndim != 2 or refined.shape[1] != k):
                bad_refined = refined_frames[0]
            elif not np.isfinite(refined).all():
                bad_refined = refined_frames[int(np.argmin(np.isfinite(refined).all(axis=1)))]
        if min(bad_index, bad_refined) < len(chosen):
            raise _index_error(chosen[bad_index], k) if bad_index <= bad_refined else _refined_error(k)
        rows = {}
        if refined is not None:
            refined.setflags(write=False)
            rows = dict(zip(refined_frames, refined))
        records = []
        for j, (time_s, pose, props, idx) in enumerate(zip(times, poses, proposals, chosen)):
            # the fields as the frozen dataclass's __init__ would set them
            record = cls.__new__(cls)
            record.__dict__.update(time_s=time_s, ego_pose=pose, proposals=props, chosen_index=idx,
                                   refined_scores=rows.get(j))
            records.append(record)
        return tuple(records)

    @property
    def chosen_trajectory(self) -> Trajectory:
        return Trajectory(self.proposals.points[self.chosen_index], dt=self.proposals.dt)


@dataclass(frozen=True)
class ScenarioLog:
    spec: ScenarioSpec
    settings: RunSettings
    frames: tuple[FrameRecord, ...] = field(default_factory=tuple)


# ---------------------------------------------------------------------------
# scenario generation


def _path_point(spec: ScenarioSpec, s: float) -> tuple[float, float]:
    r = spec.radius_m
    if spec.kind == "straight":
        return s, 0.0
    if spec.kind == "arc_turn":
        swept = s / r
        if swept <= spec.angle_rad:
            return r * math.sin(swept), r * (1.0 - math.cos(swept))
        # past the commanded angle the path continues along the exit tangent
        a = spec.angle_rad
        ex, ey = r * math.sin(a), r * (1.0 - math.cos(a))
        tail = s - r * a
        return ex + tail * math.cos(a), ey + tail * math.sin(a)
    # s_curve: left arc for the first half of the nominal length, then a
    # mirrored right arc (the switch point depends only on duration and
    # speed, so horizon extensions never move earlier geometry)
    half = 0.5 * spec.duration_s * spec.speed_mps
    if s <= half:
        swept = s / r
        return r * math.sin(swept), r * (1.0 - math.cos(swept))
    theta_s = half / r
    px, py = r * math.sin(theta_s), r * (1.0 - math.cos(theta_s))
    theta = theta_s - (s - half) / r
    return (
        px + r * (math.sin(theta_s) - math.sin(theta)),
        py + r * (math.cos(theta) - math.cos(theta_s)),
    )


def _path_points(spec: ScenarioSpec, extra_steps: int) -> list[tuple[float, float]]:
    """The path's ``round(duration/dt) + extra_steps`` waypoints, one step
    of travel apart; the ego's start pose at the origin is not one."""
    n_steps = int(round(spec.duration_s / SIM_DT)) + int(extra_steps)
    step_len = spec.speed_mps * SIM_DT
    return [_path_point(spec, step_len * (j + 1)) for j in range(n_steps)]


def _gen_path(spec: ScenarioSpec, extra_steps: int) -> Trajectory:
    return Trajectory(np.array(_path_points(spec, extra_steps)), dt=SIM_DT)


def gen_scenario(spec: ScenarioSpec, extra_steps: int = 0):
    """Ground-truth future path plus per-step obstacle tracks.

    Returns ``(path, tracks)`` where path holds ``round(duration/dt) +
    extra_steps`` waypoints (the ego's start pose at the origin is not a
    waypoint) and ``tracks[i][step]`` is obstacle i at that absolute step,
    every step's box from one ``_boxes_at`` call.  ``extra_steps`` is in
    [0, ``MAX_HORIZON_STEPS``], so every step is a track step.
    """
    if not 0 <= extra_steps <= MAX_HORIZON_STEPS:
        raise ConfigError(
            f"extra steps must be in [0, {MAX_HORIZON_STEPS}] (MAX_HORIZON_STEPS), got {extra_steps!r}"
        )
    path = _gen_path(spec, extra_steps)
    center, heading, length, width = _boxes_at(spec.obstacles, np.arange(len(path) + 1))
    # each obstacle's heading, length and width, which its motion keeps
    fixed = np.concatenate([heading, length, width], axis=-1).tolist()
    tracks = [[ObstacleBox(c, *rest) for c in cs] for cs, rest in zip(center.tolist(), fixed)]
    return path, tracks


# ---------------------------------------------------------------------------
# proposals


@functools.lru_cache(maxsize=16)
def _query_projection(d_q: int, flat_len: int) -> np.ndarray:
    rng = np.random.default_rng(_QUERY_PROJECTION_SEED)
    projection = rng.standard_normal((d_q, flat_len)) / math.sqrt(flat_len)
    projection.setflags(write=False)
    return projection


def candidate_queries(points: np.ndarray, d_q: int) -> np.ndarray:
    """Deterministic per-candidate embeddings of a (K, N, 2) stack: centered
    waypoints through a fixed seeded projection, one stacked product."""
    pts = np.asarray(points, dtype=np.float64)
    if len(pts) == 0:
        raise EmptyInputError("no candidates to embed")
    flat = (pts - _mean(pts, 1, keepdims=True)).reshape(len(pts), -1, 1)
    return (_query_projection(d_q, flat.shape[1]) @ flat)[..., 0]


def _lateral_normals(points: np.ndarray) -> np.ndarray:
    """Unit left normal at each waypoint of an (..., N, 2) stack: that of the
    segment leaving it, or of the last segment for the final waypoint.  A
    zero-length segment carries the normal of the last segment before it
    that has one, (0, 1) if none has; a single waypoint takes the normal of
    a unit step along x."""
    n = points.shape[-2]
    if n > 1:
        seg = points[..., 1:, :] - points[..., :-1, :]
    else:
        seg = np.zeros(points.shape[:-2] + (1, 2)) + (1.0, 0.0)
    # math.hypot, not np.hypot: the two can differ in the last bit
    flat = seg.reshape(-1, 2)
    norms = np.array(list(map(math.hypot, flat[:, 0].tolist(), flat[:, 1].tolist())))
    norms = norms.reshape(seg.shape[:-1])
    keep = norms > 0.0
    unit = seg[..., ::-1] * (-1.0, 1.0)
    if keep.all():
        unit /= norms[..., None]
    else:
        np.divide(unit, norms[..., None], out=unit, where=keep[..., None])
        carried = np.maximum.accumulate(np.where(keep, np.arange(seg.shape[-2]), -1), axis=-1)
        unit = np.where(
            (carried < 0)[..., None], (0.0, 1.0), np.take_along_axis(unit, carried[..., None], axis=-2)
        )
    return unit if n == 1 else np.concatenate([unit, unit[..., -1:, :]], axis=-2)


def _fan_width(k: int, n: int) -> int:
    """Standard normals one frame's fan draws: the shared first step (2),
    every candidate's jitter (K, N-1, 2) and the observation (N, 2)."""
    return 2 + 2 * k * (n - 1) + 2 * n


@functools.lru_cache(maxsize=MAX_K)
def _fan_offsets(k: int) -> np.ndarray:
    """The fan's K lateral offset coefficients, read-only: ``linspace(-1,
    1, K)``, or 0 for one candidate."""
    coeffs = np.linspace(-1.0, 1.0, k) if k > 1 else np.zeros(1)
    coeffs.setflags(write=False)
    return coeffs


def _fan(gt: np.ndarray, draws: np.ndarray, shared_first: np.ndarray, k: int, mode_noise: float,
         jitter: float, d_q: int):
    """The proposal model over F frames at once.

    ``gt`` is the (F, N, 2) stack of ego-frame ground-truth futures and
    ``draws`` the (F, ``_fan_width``) standard normals of each frame, in
    draw order; ``shared_first`` is the (F, 2) shared first step, ``0.0 +
    jitter * draws[:, :2]``.  ``0.0 + sigma * z`` is what
    ``rng.normal(0.0, sigma)`` computes, +0.0 for sigma = 0 included.
    Returns the (F, K, N, 2) candidates, the (F, K) scores and the
    (F, K, d_q) queries; every value is the one a single frame's
    computation gives, bit for bit.
    """
    f, n = gt.shape[:2]
    cand_jitter = 0.0 + jitter * draws[:, 2 : 2 + 2 * k * (n - 1)].reshape(f, k, n - 1, 2)
    observed = gt + (0.0 + mode_noise * draws[:, 2 + 2 * k * (n - 1) :].reshape(f, n, 2))

    normals = _lateral_normals(gt)
    ramp = np.arange(n) / (n - 1) if n > 1 else np.zeros(n)
    cands = gt[:, None] + (mode_noise * _fan_offsets(k))[:, None, None] * ramp[:, None] * normals[:, None]
    cands[:, :, 0] += shared_first[:, None]
    cands[:, :, 1:] += cand_jitter

    ades = _mean(_displacements(cands, observed[:, None]), -1)
    scores = softmax(-ades)
    queries = candidate_queries(cands.reshape(f * k, n, 2), d_q).reshape(f, k, d_q)
    return cands, scores, queries


def propose(
    gt_future: Trajectory,
    k: int,
    mode_noise: float,
    jitter: float,
    seed,
    d_q: int = 32,
) -> TrajectorySet:
    """Fan K candidates around the ground-truth future.

    Candidate i follows the future plus a smooth lateral mode offset that
    opens from zero at the first waypoint (all candidates share the first
    step, including its one shared jitter draw), plus per-waypoint jitter.
    Scores are a softmax of negative ADE to a noise-corrupted observation
    of the future, so the score leader wobbles frame to frame the way a
    perception stack's would.

    This is the one-frame call of the rollout's batched proposal model.
    Draw order: the shared first-step jitter (2), then every candidate's
    jitter (K, N-1, 2), candidate by candidate, then the observation (N, 2).
    """
    if k < 1:
        raise EmptyInputError("need at least one candidate")
    if not (mode_noise >= 0.0 and jitter >= 0.0):
        raise ValueError(f"noise scales must be non-negative, got {mode_noise} and {jitter}")
    rng = np.random.default_rng(seed)
    draws = rng.standard_normal((1, _fan_width(k, len(gt_future))))
    cands, scores, queries = _fan(gt_future.points[None], draws, 0.0 + jitter * draws[:, :2], k, mode_noise,
                                  jitter, d_q)
    return TrajectorySet.from_points(cands[0], scores[0], queries[0], dt=gt_future.dt)


def perturb_features(features: np.ndarray, ns: float, seed) -> np.ndarray:
    """Additive Gaussian feature noise: x + ns * eps."""
    if ns < 0.0 or not math.isfinite(ns):
        raise ValueError(f"noise scale must be non-negative, got {ns}")
    rng = np.random.default_rng(seed)
    x = np.asarray(features, dtype=np.float64)
    return x + ns * rng.standard_normal(x.shape)


# ---------------------------------------------------------------------------
# planners


def step_oneshot(proposals: TrajectorySet) -> int:
    """Highest score wins; ties go to the lowest index."""
    return int(np.argmax(proposals.scores))


def step_momentum(
    proposals: TrajectorySet,
    history: Sequence[FrameRecord],
    frame_delta: Pose2,
    weights: WeightBundle,
    kind: DistanceKind = DistanceKind.HAUSDORFF,
):
    """History-consistent selection plus query refinement.

    With no history this is exactly the one-shot rule.  Otherwise the
    candidate whose shape best matches the most recent chosen trajectory
    (after moving into that frame) supplies the query; the refinement stack
    re-scores the candidate set and the argmax of the refined scores wins.
    Returns ``(chosen_index, refined_scores | None)``.

    It runs, for one frame, the stages a rollout's stacked selection runs
    over frame blocks: ``ttm_select`` through the same ``_pair_distances``
    kernel, ``mix_history`` through the same score gate and cell, and
    ``_refined_scores``, the score half of the refinement stack; the
    trajectory head, whose output would be discarded, is not run.
    """
    history = list(history)
    if not history:
        return step_oneshot(proposals), None
    k_star = ttm_select(proposals, history[-1].chosen_trajectory, frame_delta, kind)
    mixed = mix_history([QueryBatch(f.proposals.queries, f.proposals.scores) for f in history], weights)
    refined_scores = _refined_scores(proposals.queries[k_star], mixed, proposals.queries, weights)
    return int(np.argmax(refined_scores)), refined_scores


def _choose_momentum(stream: _Stream, settings: RunSettings, weights: WeightBundle):
    """The momentum planner's chosen index for every frame of a stream and
    the (F-1, K) block of refined scores of every frame but the first, over
    the stream's (F, K, N, 2) points, (F, K) scores, (F, K, D) queries and
    frame deltas.

    Frames go in blocks that hold at most ``_SELECT_BLOCK_ELEMENTS``
    values at once.  Each block score-gates its frames' history rows, the
    frame before each, takes their cell input product once and runs the
    cell over them from the zero state.  At depth 2 a second step on the
    same product takes each frame's row from the state of the row before
    it; the block's first row takes it from the state the previous block
    carries over, which is the zero state before frame 1, whose history is
    frame 0 alone.  Each frame's refined scores are then computed for every
    candidate TTM could pick.  The previous frame's choice is one of its
    refined scores' argmaxes (the choice made before the block, for the
    block's first frame), so TTM distances are computed to those plans
    only.  The choices are chased through the argmin and argmax tables over
    Python ints; ties go to the lowest index.
    """
    points, scores, queries = stream.scene.points, stream.scores, stream.queries
    delta_rot, delta_xy = stream.scene.delta_rot, stream.scene.delta_xy
    n_frames, k, n = points.shape[:3]
    d_q = queries.shape[-1]
    chosen, refined_rows = [int(np.argmax(scores[0]))], np.empty((n_frames - 1, k))
    w_ih, w_hh, b = weights.get("lstm.W_ih"), weights.get("lstm.W_hh"), weights.get("lstm.b")
    # a block holds the cell's working set over its (frames, K, 4 d_q)
    # pre-activations and (frames, K, K', N, N) distances; its (frames, K,
    # 2 d_q) head inputs are smaller than the first
    block = max(1, _SELECT_BLOCK_ELEMENTS // (k * max(_CELL_ARRAYS * 4 * d_q, k * n * n)))
    # the first step's state for the row before the block
    h_last = c_last = np.zeros((1, k, d_q))
    timed = _logger.isEnabledFor(logging.DEBUG)
    clock = perf_counter_ns if timed else int  # below debug level int() stands in: 0, no timing
    mix_ns = refine_ns = ttm_ns = 0
    for s in range(1, n_frames, block):
        e = min(s + block, n_frames)
        hist = slice(s - 1, e - 1)
        t0 = clock()
        xw = _score_gate(queries[hist], scores[hist], weights, "identity")[-1] @ w_ih.T
        _, _, _, _, c1, _, mixed = _lstm_step(xw, None, None, w_hh, b)
        if settings.history_depth == 2:
            h0, c0 = np.concatenate([h_last, mixed[:-1]]), np.concatenate([c_last, c1[:-1]])
            h_last, c_last = mixed[-1:], c1[-1:]
            mixed = _lstm_step(xw, h0, c0, w_hh, b)[-1]
        t1 = clock()
        # (frames, TTM pick, K)
        refined = _refined_scores(queries[s:e], mixed[:, None], queries[s:e][:, None], weights)
        best = refined.argmax(axis=-1).tolist()
        t2 = clock()
        reach = [[chosen[-1]]] + [sorted(set(row)) for row in best[:-1]]
        width = max(map(len, reach))
        cols = np.array([r + r[:1] * (width - len(r)) for r in reach])
        plans = points[hist][np.arange(e - s)[:, None], cols]
        moved = _moved(points[s:e], delta_rot[hist], delta_xy[hist])
        ttm = _pair_distances(moved, plans, settings.distance).argmin(axis=1).tolist()
        picks = []
        for t in range(e - s):
            picks.append(ttm[t][reach[t].index(chosen[-1])])
            chosen.append(best[t][picks[-1]])
        refined_rows[hist] = refined[np.arange(e - s), picks]
        t3 = clock()
        mix_ns, refine_ns, ttm_ns = mix_ns + t1 - t0, refine_ns + t2 - t1, ttm_ns + t3 - t2
    if timed:
        _logger.debug(
            "choose momentum: %d frames, gate + cell %d us, refined scores %d us, TTM + chase %d us",
            n_frames, mix_ns // 1000, refine_ns // 1000, ttm_ns // 1000,
        )
    return chosen, refined_rows


# ---------------------------------------------------------------------------
# closed loop


def _world(spec: ScenarioSpec, horizon_steps: int) -> np.ndarray:
    """The scenario's path in world coordinates, the ego's start at the
    origin first, long enough for the last frame's horizon."""
    world = np.array([(0.0, 0.0), *_path_points(spec, horizon_steps)])
    if not np.isfinite(world).all():
        raise GeometryError("trajectory contains non-finite coordinates")
    return world


def _futures(world: np.ndarray, rot: np.ndarray, xy: np.ndarray, h: int):
    """The absolute step (F, h) of every waypoint planned from the ego poses
    ``rot``/``xy`` along ``world``, and the ground-truth futures there in
    each ego frame (F, h, 2).  A rollout transforms its ground truth here
    once, for its proposals and its scene; a replay, from the log."""
    n_frames = len(rot)
    if n_frames + h > len(world):
        raise AlignmentError(f"log has {n_frames} frames, the scenario's path covers {len(world) - h}")
    # absolute step of waypoint i planned at frame j; always within the path
    steps = np.arange(n_frames)[:, None] + 1 + np.arange(h)
    return steps, _to_frame(world[steps], rot, xy)


@dataclass(frozen=True, eq=False)
class _Scene:
    """All that scoring reads of F planned frames and no choice changes, as
    read-only arrays: the ego rotations (F, 2, 2) and positions (F, 2) with
    the frame deltas (F-1, 2, 2) and (F-1, 2) that move each frame's points
    into the frame before, the proposals (F, K, h, 2), the absolute step of
    each planned waypoint (F, h), the ego-frame ground-truth futures
    (F, h, 2), and min ADE/FDE."""

    rot: np.ndarray
    xy: np.ndarray
    delta_rot: np.ndarray
    delta_xy: np.ndarray
    points: np.ndarray
    steps: np.ndarray
    gt: np.ndarray
    min_ade: float
    min_fde: float


def _scene(rot, xy, steps, gt, points) -> _Scene:
    """The ``_Scene`` of frames planned from the ego poses ``rot``/``xy``,
    with the ``_futures`` ``steps`` and ``gt`` and the proposals
    ``points``.  The rollout builds it from its stream and
    ``report_from_log`` from a log, both here."""
    ade, fde, _ = _best_displacements(points, gt)
    delta_rot, delta_xy = _frame_delta(rot[:-1], xy[:-1], rot[1:], xy[1:])
    for array in (rot, xy, delta_rot, delta_xy, points, steps, gt):
        array.setflags(write=False)
    return _Scene(rot, xy, delta_rot, delta_xy, points, steps, gt, min_ade=_mean_of(ade), min_fde=_mean_of(fde))


def _pose_stack(poses) -> tuple[np.ndarray, np.ndarray]:
    """The (F, 2, 2) rotations and (F, 2) positions of a log's F
    ``Pose2``s."""
    rot = np.array([p.rotation for p in poses]).reshape(-1, 2, 2)
    return rot, np.array([p.translation for p in poses]).reshape(-1, 2)


@dataclass(frozen=True, eq=False)
class _Stream:
    """A rollout's stream pass, all that no planner changes: its scene, each
    frame's ego pose and proposal set (views of the scene's points), and
    the read-only (F, K) scores and (F, K, D) perturbed queries."""

    scene: _Scene
    poses: tuple[Pose2, ...]
    proposals: tuple[TrajectorySet, ...]
    scores: np.ndarray
    queries: np.ndarray


def _stream(spec: ScenarioSpec, settings: RunSettings) -> _Stream:
    """The stream pass of a rollout: the ego pose of every frame, every
    frame's proposals over one checked (F, K, N, 2) stack, and the scene
    they are scored on.  At debug level it logs the time of each stage."""
    timed = _logger.isEnabledFor(logging.DEBUG)
    clock = perf_counter_ns if timed else int  # below debug level int() stands in: 0, no timing
    k, h, d_q = settings.k, settings.horizon_steps, settings.d_q
    t0 = clock()
    world = _world(spec, h)
    n_frames = int(round(spec.duration_s / SIM_DT))
    t1 = clock()
    width = _fan_width(k, h)
    draws = np.random.default_rng(spec.seed).standard_normal((n_frames, width + k * d_q))
    shared_first = 0.0 + settings.jitter_m * draws[:, :2]
    t2 = clock()
    # each pose goes straight into its row of the stacks, the rotation as
    # rotation_matrix builds it, and the next step reads the rows as views
    rot, xy = np.empty((n_frames, 2, 2)), np.empty((n_frames, 2))
    dx, dy = (world[1] - world[0]).tolist()
    heading, x, y = math.atan2(dy, dx), 0.0, 0.0
    for j in range(n_frames):
        c, s = math.cos(heading), math.sin(heading)
        rot[j] = ((c, -s), (s, c))
        xy[j] = (x, y)
        if j + 1 == n_frames:
            break
        # step to this frame's first waypoint, which every candidate shares:
        # its ground truth, the one waypoint this step reads, plus the
        # shared step.  The fan's lateral offset there is +-0.0 and the
        # shared step nonzero or +0.0, so this sum equals it bit for bit.
        # Both products stay (1, 2) numpy calls: BLAS fuses multiply-adds
        # that Python float arithmetic would round apart
        first = _to_frame(world[j + 1 : j + 2], rot[j], xy[j]) + shared_first[j]
        nx, ny = _from_frame(first, rot[j], xy[j])[0].tolist()
        dx, dy = nx - x, ny - y
        # on a zero-length step the heading stays the rotation's own
        heading = math.atan2(dy, dx) if (dx, dy) != (0.0, 0.0) else math.atan2(s, c)
        x, y = nx, ny
    poses = Pose2.per_frame(rot, xy)
    t3 = clock()
    steps, gt = _futures(world, rot, xy, h)
    cands, scores, queries = _fan(gt, draws[:, :width], shared_first, k, settings.mode_noise_m, settings.jitter_m,
                                  d_q)
    queries += (settings.ns * draws[:, width:]).reshape(n_frames, k, d_q)
    if settings.occlusion_start is not None:
        scores[settings.occlusion_start : settings.occlusion_start + settings.occlusion_len] = 1.0 / k
    proposals = TrajectorySet.per_frame(cands, scores, queries, dt=SIM_DT)
    t4 = clock()
    scene = _scene(rot, xy, steps, gt, cands)
    if timed:
        t5 = clock()
        _logger.debug(
            "stream pass: %d frames, world %d us, draws %d us, poses %d us, futures + fan %d us, scene %d us",
            n_frames, (t1 - t0) // 1000, (t2 - t1) // 1000, (t3 - t2) // 1000, (t4 - t3) // 1000,
            (t5 - t4) // 1000,
        )
    return _Stream(scene, poses, proposals, scores, queries)


def _stream_key(spec: ScenarioSpec, settings: RunSettings) -> tuple:
    """The exact bits of every input the stream pass reads; floats by their
    hex form, so 0.0 and -0.0 never share a stream."""
    floats = (
        spec.duration_s, spec.speed_mps, spec.radius_m, spec.angle_rad,
        settings.mode_noise_m, settings.jitter_m, settings.ns,
    )
    return (
        spec.kind, spec.seed, settings.k, settings.horizon_steps, settings.d_q,
        settings.occlusion_start, settings.occlusion_len, *(x.hex() for x in floats),
    )


# (key, stream) of the most recent rollout, one tuple so that no reader
# sees one stream's key with another's stream.  One entry serves paired
# runs, every planner on one scene back to back, and holds one stream.  It
# is module state because ``paired_reports`` and the benchmark's
# turn-compare pair planners through separate run_closed_loop calls; the
# key covers every input the stream reads and the stream is read-only, so
# a reused stream is the one a cold rollout would build.
_last_stream: tuple | None = None


def _shared_stream(spec: ScenarioSpec, settings: RunSettings) -> tuple[_Stream, bool]:
    """The stream of ``spec`` under ``settings``, and whether it is the
    previous rollout's, reused."""
    global _last_stream
    key = _stream_key(spec, settings)
    entry = _last_stream
    if entry is not None and entry[0] == key:
        return entry[1], True
    # let the old stream go before the new one is built
    entry = _last_stream = None
    stream = _stream(spec, settings)
    _last_stream = (key, stream)
    return stream, False


def _refines(settings: RunSettings) -> bool:
    """Only the momentum planner with history refines, and reads weights."""
    return settings.planner == "momentum" and settings.history_depth > 0


def _choose(settings: RunSettings, stream: _Stream, weights: WeightBundle | None):
    """The planner's chosen index for every frame of a stream, and the
    (F-1, K) refined scores of every frame but the first, or None where it
    does not refine."""
    if _refines(settings):
        return _choose_momentum(stream, settings, weights)
    return np.argmax(stream.scores, axis=1).tolist(), None


def run_closed_loop(
    spec: ScenarioSpec,
    settings: RunSettings,
    weights: WeightBundle | None = None,
):
    """Receding-horizon rollout; returns ``(log, report)``.

    Each 0.5 s frame takes the remaining ground-truth future in the ego
    frame, proposes K candidates, perturbs their query embeddings, lets the
    configured planner choose, records the frame, then advances the ego by
    the candidates' shared first step.

    The rollout runs in three passes.  The stream pass builds all that does
    not depend on the planner:
      * every frame's noise in one draw from the scenario's generator, one
        row per frame, each row in the order a frame reads it: the shared
        first step, the candidates' jitter, the observation, the query
        noise;
      * the ego poses, in a short loop, since each pose follows from the
        previous frame's first step; it moves only that one ground-truth
        waypoint into each frame, and the pose stack is checked once;
      * every frame's ego-frame ground truth, moved once (``_futures``);
        the proposals are fanned around it and the scene holds it;
      * every frame's candidates, scores, perturbed queries and occlusion,
        as stacked arrays checked once;
      * the scene the plans are scored on (``_scene``): pose stacks, frame
        deltas, ego-frame ground truth, min ADE/FDE.
    The most recent stream is kept, so the next rollout on the same scene
    and stream settings (another planner, say, as ``paired_reports`` runs
    it) reuses it.
    The selection pass (``_choose``) then chooses over those stacks: the row
    argmax for one-shot.  For momentum, only the previous choice depends on
    the planner, so each frame's TTM distances to every candidate of the
    frame before and its refined scores for every candidate TTM could pick
    are computed stacked over frames, in blocks of bounded size, and the
    choices are chased through them frame by frame; ``step_momentum`` runs
    the same stages for one frame.  The frame records are views of the
    stacks, checked once (``FrameRecord.per_frame``).  The score pass
    (``_score_choice``) scores only what the choice changes: L2, TPC and
    collisions.

    The poses can come first only because every candidate shares its first
    waypoint, so the executed path never depends on the planner.  An
    execution that follows the chosen plan would have to choose inside the
    pose loop.
    """
    if weights is not None and (
        weights.d_q != settings.d_q or weights.k != settings.k or weights.n_t != settings.horizon_steps
    ):
        raise ConfigError(
            f"weights sized ({weights.d_q}, {weights.k}, {weights.n_t}) do not fit "
            f"settings ({settings.d_q}, {settings.k}, {settings.horizon_steps})"
        )
    if weights is None and _refines(settings):
        weights = WeightBundle.seeded(settings.d_q, settings.k, settings.horizon_steps, settings.weight_seed)
    timed = _logger.isEnabledFor(logging.DEBUG)
    clock = perf_counter_ns if timed else int  # below debug level int() stands in: 0, no timing

    t0 = clock()
    stream, reused = _shared_stream(spec, settings)
    t1 = clock()
    chosen, refined = _choose(settings, stream, weights)
    times = [j * SIM_DT for j in range(len(chosen))]
    frames = FrameRecord.per_frame(
        times, stream.poses, stream.proposals, chosen, refined, refined_frames=range(1, len(chosen))
    )
    t2 = clock()
    report = _score_choice(stream.scene, chosen, settings, spec.obstacles)
    if timed:
        t3 = clock()
        _logger.debug(
            "stream %s: stream %d us, choose %d us, score %d us",
            "reused" if reused else "built", (t1 - t0) // 1000, (t2 - t1) // 1000, (t3 - t2) // 1000,
        )
    return ScenarioLog(spec, settings, frames), report


def paired_reports(spec: ScenarioSpec, settings: RunSettings, seeds) -> list[tuple]:
    """The paired study behind ``compare`` and the experiment scripts:
    ``(seed, momentum report, one-shot report)`` for each of ``seeds``, on
    ``spec`` at that seed.

    The momentum planner runs under ``settings``, whatever planner they
    name; its one-shot baseline runs under the same settings with
    ``planner="oneshot"`` and ``history_depth=0``.  The two rollouts of a
    seed run back to back, so the baseline scores the momentum rollout's
    stream.
    """
    momentum = replace(settings, planner="momentum")
    oneshot = replace(momentum, planner="oneshot", history_depth=0)
    pairs = []
    for seed in seeds:
        seeded = replace(spec, seed=seed)
        pairs.append((seed, run_closed_loop(seeded, momentum)[1], run_closed_loop(seeded, oneshot)[1]))
    return pairs


def _check_frame(frame: FrameRecord, j: int, shapes: dict) -> None:
    """Frame j of a log fits it: planned at j * SIM_DT, and its arrays have
    the ``_frame_shapes`` of the log's settings.  Only the points and the
    queries are compared: the pose, the scores and the refined scores have
    the shapes their own records give them against the points."""
    props = frame.proposals
    _check_clock(j, frame.time_s, props.dt)
    got, want = (props.points.shape, props.queries.shape), (shapes["points"], shapes["queries"])
    if got != want:
        raise AlignmentError(f"frame {j}: points and queries {got}, settings say {want}")


def _check_clock(j: int, time_s, dt) -> None:
    """Frame j of a log is planned at j * SIM_DT, on plans sampled every
    SIM_DT."""
    if time_s != j * SIM_DT:
        raise AlignmentError(f"frame {j}: time {time_s!r} s, its position says {j * SIM_DT} s")
    if dt != SIM_DT:
        raise AlignmentError(f"frame {j}: plan dt {dt!r}, the log's is {SIM_DT}")


def _log_futures(log: ScenarioLog) -> tuple:
    """A log's checked pose stack and the ``_futures`` planned from it:
    every frame checked against the ``_frame_shapes`` of its settings, the
    ego poses stacked by ``_pose_stack`` as the stream pass stacks its
    own, then ``(rot, xy, steps, gt)``."""
    shapes, h = _frame_shapes(log.settings), log.settings.horizon_steps
    for j, frame in enumerate(log.frames):
        _check_frame(frame, j, shapes)
    rot, xy = _pose_stack([frame.ego_pose for frame in log.frames])
    return rot, xy, *_futures(_world(log.spec, h), rot, xy, h)


def _log_scene(log: ScenarioLog) -> _Scene:
    """The ``_Scene`` of a log whose frames all fit its settings, stacked
    from the log alone."""
    rot, xy, steps, gt = _log_futures(log)
    points = np.array([frame.proposals.points for frame in log.frames])
    return _scene(rot, xy, steps, gt, points.reshape(-1, log.settings.k, *gt.shape[1:]))


def ground_truth_futures(log: ScenarioLog) -> np.ndarray:
    """Every frame's ground-truth future in its ego frame (x forward), the
    (F, horizon_steps, 2) stack the metrics score against."""
    return _log_futures(log)[3]


def report_from_log(log: ScenarioLog) -> MetricReport:
    """Recompute every metric from a log alone.

    The log's scene is stacked from its frames and built through the same
    ``_scene`` the rollout uses, and its choices are scored through the
    same ``_score_choice``, so replaying a persisted log reproduces the
    run's report exactly.  It reads nothing a rollout kept, so a replay is
    an independent recomputation.
    """
    timed = _logger.isEnabledFor(logging.DEBUG)
    clock = perf_counter_ns if timed else int  # below debug level int() stands in: 0, no timing
    t0 = clock()
    scene = _log_scene(log)
    t1 = clock()
    report = _score_choice(scene, [f.chosen_index for f in log.frames], log.settings, log.spec.obstacles)
    if timed:
        t2 = clock()
        _logger.debug("report_from_log: %d frames, scene %d us, score %d us",
                      len(log.frames), (t1 - t0) // 1000, (t2 - t1) // 1000)
    return report


def _score_choice(scene: _Scene, chosen_index, settings: RunSettings, obstacles) -> MetricReport:
    """Score the plans chosen on a scene, one index per frame: L2 under the
    settings' protocol, TPC and collisions with ``obstacles`` at every
    horizon; min ADE/FDE are the scene's.

    This assembles the chosen plans, the frame deltas and the obstacle
    tracks as stacked (frame, waypoint) arrays, and ``metrics`` scores them
    with the kernels its per-trajectory functions call on one frame, so the
    report matches scoring frame by frame bit for bit.
    """
    h = settings.horizon_steps
    n_frames = len(scene.points)
    chosen = scene.points[np.arange(n_frames), chosen_index]
    # frame j's plan moved into frame j-1, paired with that frame's plan
    # one step on
    sq = _consistency_sq(chosen[1:], chosen[:-1], scene.delta_rot, scene.delta_xy, 1)

    # collisions: ego boxes swept along the plans against every obstacle at
    # the same absolute step, one kernel call over (obstacle, frame, waypoint);
    # a scene without obstacles has nothing to hit
    if obstacles:
        pred_world = _from_frame(chosen, scene.rot, scene.xy)
        boxes = _boxes_at(obstacles, scene.steps)
        hits = _swept_hits(pred_world, settings.ego_length_m, settings.ego_width_m, boxes)
    else:
        hits = np.zeros((n_frames, h), dtype=bool)

    return _fold_report(
        settings.horizons_s, SIM_DT, settings.protocol, _displacements(chosen, scene.gt), hits, sq,
        scene.min_ade, scene.min_fde,
    )


# ---------------------------------------------------------------------------
# log persistence


# Format v2, the one written: a header line, then one JSON line per frame.
# Every float array is one string, base64 of its little-endian float64
# bytes, so it reads back bit for bit (-0.0 and subnormals included); its
# shape comes from the header's k, horizon_steps and d_q.  The chosen plan
# is not stored: it is row chosen_index of the proposals.  Format v1, still
# read, wrote the arrays as decimal JSON lists and the chosen plan in full;
# ``_v1_fields`` decodes its frame into the record ``_v2_fields`` returns,
# so the frames of either format are built and checked by
# ``_stacked_frames``.  A header of either format holds only kind,
# format_version, spec and settings, a v2 frame only kind, time_s,
# chosen_index, dt and the ``_frame_shapes`` arrays, and a v1 frame, its
# pose, its proposals and each plan only the keys ``_v1_fields`` reads;
# ``load_log`` refuses any other key.


def _frame_shapes(settings: RunSettings) -> dict:
    """The format-2 frame record's float arrays, name -> shape from the
    settings, in the order a record lists them; ``refined_scores`` only on
    the frames the momentum planner refined."""
    k = settings.k
    return {"rotation": (2, 2), "xy": (2,), "points": (k, settings.horizon_steps, 2), "scores": (k,),
            "queries": (k, settings.d_q), "refined_scores": (k,)}


def _frame_arrays(frame: FrameRecord) -> dict:
    """A frame's float arrays under the names of ``_frame_shapes``; no
    ``refined_scores`` where the frame was not refined."""
    pose, props = frame.ego_pose, frame.proposals
    arrays = {"rotation": pose.rotation, "xy": pose.translation, "points": props.points, "scores": props.scores,
              "queries": props.queries, "refined_scores": frame.refined_scores}
    return {name: array for name, array in arrays.items() if array is not None}


def _encode(array) -> str:
    return binascii.b2a_base64(np.ascontiguousarray(array, dtype="<f8"), newline=False).decode("ascii")


def _decode(text: str, shape: tuple[int, ...], name: str) -> bytes:
    """The little-endian float64 bytes of an array of ``shape`` in base64."""
    raw = base64.b64decode(text, validate=True)
    size = 8 * math.prod(shape)
    if len(raw) != size:
        raise ShapeError(f"{name} holds {len(raw)} bytes, shape {shape} needs {size}")
    return raw


def _frame_line(frame: FrameRecord) -> str:
    """A frame's format-2 record as ``json.dumps`` writes it, in one
    formatting step.  ``_check_frame`` has made time_s and dt finite and the
    chosen index an int, and JSON writes those as their ``repr``; base64
    holds no character JSON escapes."""
    arrays = "".join(f', "{name}": "{_encode(array)}"' for name, array in _frame_arrays(frame).items())
    return (f'{{"kind": "frame", "time_s": {float(frame.time_s)!r}, "chosen_index": {frame.chosen_index!r}, '
            f'"dt": {float(frame.proposals.dt)!r}{arrays}}}')


def _finite_number(obj: dict, key: str) -> float:
    value = obj[key]
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ValueError(f"{key} must be a finite number, got {value!r}")
    return float(value)


def _known_keys(obj, keys, what: str) -> dict:
    """``obj``, a JSON record or a part of one, if it is a mapping that
    holds no key outside ``keys``."""
    if not isinstance(obj, dict):
        raise TypeError(f"{what} must be an object")
    if obj.keys() - keys:
        raise ValueError(f"unknown {what} keys: {sorted(obj.keys() - keys)}")
    return obj


def _json_objects(path):
    """Each non-blank line of a JSON-lines file as ``(line number, object)``.
    Lines end at \\n, \\r or \\r\\n; a line that is not UTF-8, not JSON or
    not a JSON object raises ``LogCorruptionError`` on its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    for line_no, raw in enumerate(data.splitlines(), start=1):
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise LogCorruptionError(f"not UTF-8 (byte {exc.start}: {exc.reason})", line_number=line_no) from exc
        if not text.strip():
            continue
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise LogCorruptionError(f"invalid JSON ({exc.msg})", line_number=line_no) from exc
        if not isinstance(obj, dict):
            raise LogCorruptionError("record must be an object", line_number=line_no)
        yield line_no, obj


def _v2_fields(obj: dict, shapes: dict) -> dict:
    """A format-2 frame record decoded: time_s and dt as finite numbers, the
    chosen index as written, and each ``_frame_shapes`` array as its bytes.
    refined_scores may be absent or null; every other array is required."""
    _known_keys(obj, shapes.keys() | {"kind", "time_s", "chosen_index", "dt"}, "frame")
    fields = {name: _decode(obj[name], shape, name) for name, shape in shapes.items()
              if name != "refined_scores" or obj.get(name) is not None}
    return fields | {"dt": _finite_number(obj, "dt"), "time_s": _finite_number(obj, "time_s"),
                     "chosen_index": obj["chosen_index"]}


def _listed(value, shape: tuple[int, ...], name: str) -> bytes:
    """The little-endian float64 bytes of a decimal JSON list of exactly
    ``shape`` that holds JSON numbers only."""
    array = np.asarray(_json_numbers(value, name), dtype="<f8")
    if array.shape != shape:
        raise ShapeError(f"{name} has shape {array.shape}, the settings say {shape}")
    return array.tobytes()


def _v1_fields(obj: dict, shapes: dict) -> dict:
    """A format-1 frame record decoded into the record ``_v2_fields``
    returns: each array listed in exactly its ``_frame_shapes`` shape, as
    its bytes, and one dt, shared by every plan, the stored chosen plan
    included.  Where the chosen index is valid, the stored chosen plan must
    be bit-equal to that proposal; ``FrameRecord.per_frame`` refuses any
    other index."""
    _known_keys(obj, {"kind", "time_s", "ego_pose", "proposals", "chosen_index", "chosen_trajectory",
                      "refined_scores"}, "frame")
    pose = _known_keys(obj["ego_pose"], {"rotation", "xy"}, "ego_pose")
    props = _known_keys(obj["proposals"], {"trajectories", "scores", "queries"}, "proposals")
    plans = [_known_keys(t, {"dt", "points"}, "plan") for t in props["trajectories"]]
    stored = _known_keys(obj["chosen_trajectory"], {"dt", "points"}, "chosen_trajectory")
    dts = {_finite_number(t, "dt") for t in [*plans, stored]}
    if len(dts) != 1:
        raise AlignmentError(f"plans must share one dt, got {sorted(dts)}")
    lists = {"rotation": pose["rotation"], "xy": pose["xy"], "points": [t["points"] for t in plans],
             "scores": props["scores"], "queries": props["queries"], "refined_scores": obj.get("refined_scores")}
    fields = {name: _listed(lists[name], shape, name) for name, shape in shapes.items()
              if name != "refined_scores" or lists[name] is not None}
    idx, plan_shape = obj["chosen_index"], shapes["points"][1:]
    # the one place a chosen plan arrives stored: it must be the proposal
    if _is_index(idx, len(plans)) and (_listed(stored["points"], plan_shape, "chosen_trajectory")
                                       != _listed(plans[idx]["points"], plan_shape, "points")):
        raise ValueError(f"chosen_trajectory is not proposal {idx}")
    return fields | {"dt": dts.pop(), "time_s": _finite_number(obj, "time_s"), "chosen_index": idx}


def _stacked_frames(records: list, first: int, shapes: dict) -> list:
    """The frames of decoded frame records of either format, the first of
    them frame ``first`` of its log.  Each array is one stack of every
    record's bytes, checked once, as a whole, by ``TrajectorySet.per_frame``,
    ``Pose2.per_frame`` and ``FrameRecord.per_frame``, and every frame holds
    views of their rows."""
    if not records:
        return []
    for j, rec in enumerate(records, first):
        _check_clock(j, rec["time_s"], rec["dt"])

    def stack(name, recs=records):
        return np.frombuffer(b"".join(rec[name] for rec in recs), dtype="<f8").reshape(-1, *shapes[name])

    proposals = TrajectorySet.per_frame(stack("points"), stack("scores"), stack("queries"), dt=SIM_DT)
    poses = Pose2.per_frame(stack("rotation"), stack("xy"))
    refined_frames = [j for j, rec in enumerate(records) if "refined_scores" in rec]
    refined = stack("refined_scores", [records[j] for j in refined_frames])
    return list(FrameRecord.per_frame([rec["time_s"] for rec in records], poses, proposals,
                                      [rec["chosen_index"] for rec in records], refined, refined_frames))


def _checked_frames(records: list, line_numbers: list, shapes: dict) -> list:
    """The frames of a log's decoded records, from ``_stacked_frames``.  If
    that fails, the records are built one at a time to find the first at
    fault, and its error is raised as corrupt input on its line."""
    try:
        return _stacked_frames(records, 0, shapes)
    except (KeyError, TypeError, ValueError):
        for j, (rec, line_no) in enumerate(zip(records, line_numbers)):
            try:
                _stacked_frames([rec], j, shapes)
            except (KeyError, TypeError, ValueError) as exc:
                raise LogCorruptionError(f"bad frame record: {exc}", line_number=line_no) from exc
        raise


def log_to_jsonl(log: ScenarioLog) -> str:
    header = {
        "kind": "header",
        "format_version": LOG_FORMAT_VERSION,
        "spec": log.spec.to_dict(),
        "settings": log.settings.to_dict(),
    }
    lines = [json.dumps(header)]
    shapes = _frame_shapes(log.settings)
    for j, frame in enumerate(log.frames):
        _check_frame(frame, j, shapes)
        lines.append(_frame_line(frame))
    return "\n".join(lines) + "\n"


def save_log(log: ScenarioLog, path) -> None:
    text = log_to_jsonl(log)  # a log that does not fit leaves no file behind
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_log(path) -> ScenarioLog:
    """Read a log of either format.  Its lines are read by
    ``_json_objects``; each frame line is decoded on its own (``_v2_fields``,
    ``_v1_fields``), then the frames are built and checked together by
    ``_stacked_frames``; any fault is a ``LogCorruptionError`` naming the
    first line at fault."""
    timed = _logger.isEnabledFor(logging.DEBUG)
    clock = perf_counter_ns if timed else int  # below debug level int() stands in: 0, no timing
    t0 = clock()
    objects = _json_objects(path)
    line_no, header = next(objects, (1, None))
    if header is None:
        raise LogCorruptionError("log file is empty", line_number=1)
    if header.get("kind") != "header":
        raise LogCorruptionError("first record must be the header", line_number=line_no)
    version = header.get("format_version")
    if type(version) is not int or version not in (1, LOG_FORMAT_VERSION):
        raise LogCorruptionError(f"unsupported format_version {version!r}", line_number=line_no)
    unknown = header.keys() - {"kind", "format_version", "spec", "settings"}
    if unknown:
        raise LogCorruptionError(f"unknown header keys: {sorted(unknown)}", line_number=line_no)
    try:
        spec = ScenarioSpec.from_dict(header["spec"])
        settings = RunSettings.from_dict(header["settings"])
    except (KeyError, ConfigError) as exc:
        raise LogCorruptionError(f"bad header: {exc}", line_number=line_no) from exc

    shapes = _frame_shapes(settings)
    fields = _v1_fields if version == 1 else _v2_fields
    records, line_numbers = [], []
    try:
        for line_no, obj in objects:
            if obj.get("kind") != "frame":
                raise LogCorruptionError(f"unexpected record kind {obj.get('kind')!r}", line_number=line_no)
            try:
                records.append(fields(obj, shapes))
            except (KeyError, TypeError, ValueError) as exc:
                raise LogCorruptionError(f"bad frame record: {exc}", line_number=line_no) from exc
            line_numbers.append(line_no)
    except LogCorruptionError:
        # a frame on an earlier line that is at fault is named first
        _checked_frames(records, line_numbers, shapes)
        raise
    t1 = clock()
    frames = _checked_frames(records, line_numbers, shapes)
    if timed:
        t2 = clock()
        _logger.debug("load_log: %d frames, decode %d us, check %d us",
                      len(frames), (t1 - t0) // 1000, (t2 - t1) // 1000)
    return ScenarioLog(spec, settings, tuple(frames))
