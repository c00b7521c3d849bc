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
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import AlignmentError, ConfigError, EmptyInputError, LogCorruptionError, ShapeError
from .interactor import QueryBatch, WeightBundle, mpi_forward, softmax
from .matching import DistanceKind, TrajectorySet, ttm_select
from .metrics import L2Protocol, MetricReport, ObstacleBox, ego_headings, overlap_flags
from .metrics import collision_flags, l2_error, min_ade_fde, tpc  # noqa: F401
from .trajectory import (
    Pose2,
    Trajectory,
    relative_pose,
    transform_to_frame,
    trajectory_from_dict,
)

# The per-trajectory metrics above score one frame each and report_from_log
# does not call them; they stay importable here because bench/tracing.py
# wraps them on this module.

SIM_DT = 0.5
LOG_FORMAT_VERSION = 2

# scenario bounds: faster or longer scenes overflow the metrics or build
# paths of millions of waypoints before the first frame is planned
MAX_SPEED_MPS = 100.0
MAX_DURATION_S = 600.0
# turns tighter than this are no road geometry, and a radius near zero
# makes the swept angle s / r overflow to inf
MIN_RADIUS_M = 1.0

SCENARIO_KINDS = ("straight", "arc_turn", "s_curve")
PLANNER_KINDS = ("oneshot", "momentum")

# queries must be comparable across frames, so their projection is fixed
# once per (width, horizon) and never depends on the scenario seed
_QUERY_PROJECTION_SEED = 1_400_305
_query_projections: dict[tuple[int, int], np.ndarray] = {}


def _integral(name: str, value) -> int:
    """``value`` as an int; bools, fractions and non-numbers are rejected
    rather than truncated."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class ScriptedObstacle:
    """A box with constant-velocity motion."""

    box: ObstacleBox
    velocity: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        vx, vy = float(self.velocity[0]), float(self.velocity[1])
        if not math.hypot(vx, vy) <= MAX_SPEED_MPS:
            raise ConfigError(
                f"obstacle speed must be finite and at most {MAX_SPEED_MPS} m/s, got {(vx, vy)}"
            )
        object.__setattr__(self, "velocity", (vx, vy))

    def centers_at(self, steps) -> np.ndarray:
        """Box centre (..., 2) at each absolute step of an integer array."""
        t = np.asarray(steps) * SIM_DT
        cx, cy = self.box.center
        return np.stack((cx + self.velocity[0] * t, cy + self.velocity[1] * t), axis=-1)

    def at_step(self, step: int) -> ObstacleBox:
        cx, cy = self.centers_at(step)
        return ObstacleBox((float(cx), float(cy)), self.box.heading, self.box.length, self.box.width)


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
        object.__setattr__(self, "seed", _integral("seed", self.seed))
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        object.__setattr__(self, "obstacles", tuple(self.obstacles))

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "duration_s": float(self.duration_s),
            "speed_mps": float(self.speed_mps),
            "radius_m": float(self.radius_m),
            "angle_rad": float(self.angle_rad),
            "obstacles": [
                {
                    "center": [o.box.center[0], o.box.center[1]],
                    "heading": o.box.heading,
                    "length": o.box.length,
                    "width": o.box.width,
                    "velocity": [o.velocity[0], o.velocity[1]],
                }
                for o in self.obstacles
            ],
            "seed": self.seed,
        }

    @staticmethod
    def from_dict(obj: dict) -> "ScenarioSpec":
        if not isinstance(obj, dict):
            raise ConfigError("scenario spec must be a mapping")
        known = {"kind", "duration_s", "speed_mps", "radius_m", "angle_rad", "obstacles", "seed"}
        unknown = set(obj) - known
        if unknown:
            raise ConfigError(f"unknown scenario keys: {sorted(unknown)}")
        try:
            obstacles = tuple(
                ScriptedObstacle(
                    ObstacleBox(
                        (float(rec["center"][0]), float(rec["center"][1])),
                        float(rec["heading"]),
                        float(rec["length"]),
                        float(rec["width"]),
                    ),
                    tuple(rec.get("velocity", (0.0, 0.0))),
                )
                for rec in obj.get("obstacles", [])
            )
            return ScenarioSpec(
                kind=obj["kind"],
                duration_s=float(obj["duration_s"]),
                speed_mps=float(obj["speed_mps"]),
                radius_m=float(obj.get("radius_m", 20.0)),
                angle_rad=float(obj.get("angle_rad", math.pi / 2.0)),
                obstacles=obstacles,
                seed=obj.get("seed", 0),
            )
        except ConfigError:
            raise
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            # ValueError covers non-numeric fields and the obstacle box's
            # own ShapeError
            raise ConfigError(f"bad scenario spec: {exc}") from exc


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
        if self.planner not in PLANNER_KINDS:
            raise ConfigError(f"unknown planner {self.planner!r}; pick one of {PLANNER_KINDS}")
        for name in ("history_depth", "k", "horizon_steps", "d_q", "weight_seed", "occlusion_len"):
            object.__setattr__(self, name, _integral(name, getattr(self, name)))
        if self.occlusion_start is not None:
            object.__setattr__(self, "occlusion_start", _integral("occlusion_start", self.occlusion_start))
        if self.history_depth not in (0, 1, 2):
            raise ConfigError(f"history depth must be 0, 1 or 2, got {self.history_depth}")
        object.__setattr__(self, "distance", DistanceKind(self.distance))
        object.__setattr__(self, "protocol", L2Protocol(self.protocol))
        if self.k < 1:
            raise ConfigError(f"candidate count must be >= 1, got {self.k}")
        if self.horizon_steps < 2:
            raise ConfigError(f"horizon needs at least 2 steps, got {self.horizon_steps}")
        if self.d_q < 1:
            raise ConfigError(f"query width must be >= 1, got {self.d_q}")
        for name in ("mode_noise_m", "jitter_m", "ns"):
            value = getattr(self, name)
            if value < 0.0 or not math.isfinite(value):
                raise ConfigError(f"{name} must be non-negative, got {value}")
        if self.weight_seed < 0:
            raise ConfigError(f"weight seed must be >= 0, got {self.weight_seed}")
        if self.occlusion_start is not None and self.occlusion_start < 0:
            raise ConfigError(f"occlusion start must be >= 0, got {self.occlusion_start}")
        if self.occlusion_len < 0:
            raise ConfigError(f"occlusion length must be >= 0, got {self.occlusion_len}")
        if not (0.0 < self.ego_length_m < math.inf and 0.0 < self.ego_width_m < math.inf):
            raise ConfigError("ego dimensions must be positive and finite")
        horizons = tuple(float(h) for h in self.horizons_s)
        if not horizons:
            raise ConfigError("at least one evaluation horizon is required")
        for h in horizons:
            # h / SIM_DT overflows to inf for huge h, which round() refuses
            steps = round(h / SIM_DT) if math.isfinite(h / SIM_DT) else 0
            if steps < 1 or abs(steps * SIM_DT - h) > 1e-9 or steps > self.horizon_steps:
                raise ConfigError(
                    f"horizon {h} s must be a positive multiple of {SIM_DT} s within "
                    f"{self.horizon_steps * SIM_DT} s"
                )
        object.__setattr__(self, "horizons_s", horizons)

    def to_dict(self) -> dict:
        return {
            "planner": self.planner,
            "history_depth": self.history_depth,
            "distance": self.distance.value,
            "k": self.k,
            "horizon_steps": self.horizon_steps,
            "d_q": self.d_q,
            "mode_noise_m": self.mode_noise_m,
            "jitter_m": self.jitter_m,
            "ns": self.ns,
            "weight_seed": self.weight_seed,
            "occlusion_start": self.occlusion_start,
            "occlusion_len": self.occlusion_len,
            "ego_length_m": self.ego_length_m,
            "ego_width_m": self.ego_width_m,
            "protocol": self.protocol.value,
            "horizons_s": list(self.horizons_s),
        }

    @staticmethod
    def from_dict(obj: dict) -> "RunSettings":
        if not isinstance(obj, dict):
            raise ConfigError("run settings must be a mapping")
        defaults = RunSettings()
        known = set(defaults.to_dict())
        unknown = set(obj) - known
        if unknown:
            raise ConfigError(f"unknown settings keys: {sorted(unknown)}")
        merged = defaults.to_dict() | dict(obj)
        if not isinstance(merged["horizons_s"], (list, tuple)):
            raise ConfigError(f"horizons_s must be a list of seconds, got {merged['horizons_s']!r}")
        try:
            return RunSettings(
                planner=merged["planner"],
                history_depth=merged["history_depth"],
                distance=DistanceKind(merged["distance"]),
                k=merged["k"],
                horizon_steps=merged["horizon_steps"],
                d_q=merged["d_q"],
                mode_noise_m=float(merged["mode_noise_m"]),
                jitter_m=float(merged["jitter_m"]),
                ns=float(merged["ns"]),
                weight_seed=merged["weight_seed"],
                occlusion_start=merged["occlusion_start"],
                occlusion_len=merged["occlusion_len"],
                ego_length_m=float(merged["ego_length_m"]),
                ego_width_m=float(merged["ego_width_m"]),
                protocol=L2Protocol(merged["protocol"]),
                horizons_s=tuple(merged["horizons_s"]),
            )
        except (TypeError, ValueError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"bad run settings: {exc}") from exc


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
        if type(idx) is not int or not 0 <= idx < k:
            raise AlignmentError(f"chosen_index must be an integer in [0, {k}), got {idx!r}")
        if self.refined_scores is not None:
            refined = np.asarray(self.refined_scores, dtype=np.float64)
            if refined.shape != (k,) or not np.isfinite(refined).all():
                raise ShapeError(f"refined_scores must be {k} finite numbers")
            object.__setattr__(self, "refined_scores", refined)

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


def _gen_path(spec: ScenarioSpec, extra_steps: int) -> Trajectory:
    # ``round(duration/dt) + extra_steps`` waypoints; the ego's start pose at
    # the origin is not one
    n_steps = int(round(spec.duration_s / SIM_DT)) + int(extra_steps)
    step_len = spec.speed_mps * SIM_DT
    pts = np.array([_path_point(spec, step_len * (j + 1)) for j in range(n_steps)])
    return Trajectory(pts, dt=SIM_DT)


def gen_scenario(spec: ScenarioSpec, extra_steps: int = 0):
    """Ground-truth future path plus per-step obstacle tracks.

    Returns ``(path, tracks)`` where path holds ``round(duration/dt) +
    extra_steps`` waypoints (the ego's start pose at the origin is not a
    waypoint) and ``tracks[i][step]`` is obstacle i at that absolute step.
    """
    path = _gen_path(spec, extra_steps)
    tracks = [
        [obstacle.at_step(step) for step in range(len(path) + 1)]
        for obstacle in spec.obstacles
    ]
    return path, tracks


# ---------------------------------------------------------------------------
# proposals


def _query_projection(d_q: int, flat_len: int) -> np.ndarray:
    key = (d_q, flat_len)
    if key not in _query_projections:
        rng = np.random.default_rng(_QUERY_PROJECTION_SEED)
        _query_projections[key] = rng.standard_normal((d_q, flat_len)) / math.sqrt(flat_len)
    return _query_projections[key]


def candidate_queries(points: np.ndarray, d_q: int) -> np.ndarray:
    """Deterministic per-candidate embeddings of a (K, N, 2) stack: centered
    waypoints through a fixed seeded projection, one stacked product."""
    pts = np.asarray(points, dtype=np.float64)
    if len(pts) == 0:
        raise EmptyInputError("no candidates to embed")
    flat = (pts - pts.mean(axis=1, keepdims=True)).reshape(len(pts), -1, 1)
    return (_query_projection(d_q, flat.shape[1]) @ flat)[..., 0]


def _lateral_normals(points: np.ndarray) -> np.ndarray:
    """Unit left normal at each waypoint: that of the segment leaving it, or
    of the last segment for the final waypoint.  A zero-length segment
    carries the normal of the last segment before it that has one, (0, 1)
    if none has; a single waypoint takes the normal of a unit step along x."""
    n = len(points)
    seg = np.diff(points, axis=0) if n > 1 else np.array([[1.0, 0.0]])
    # math.hypot, not np.hypot: the two can differ in the last bit
    norms = np.array([math.hypot(dx, dy) for dx, dy in seg.tolist()])
    keep = norms > 0.0
    unit = seg[:, ::-1] * (-1.0, 1.0)
    np.divide(unit, norms[:, None], out=unit, where=keep[:, None])
    if not keep.all():
        carried = np.maximum.accumulate(np.where(keep, np.arange(len(seg)), -1))
        unit = np.where((carried < 0)[:, None], (0.0, 1.0), unit[carried])
    return unit[np.minimum(np.arange(n), len(seg) - 1)]


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

    The K candidates are built as one (K, N, 2) stack.  Draw order: the
    shared first-step jitter (2), then every candidate's jitter in one
    (K, N-1, 2) draw, candidate by candidate, then the observation (N, 2).
    """
    if k < 1:
        raise EmptyInputError("need at least one candidate")
    rng = np.random.default_rng(seed)
    pts = gt_future.points
    n = len(pts)
    normals = _lateral_normals(pts)
    ramp = np.arange(n) / (n - 1) if n > 1 else np.zeros(n)
    coeffs = np.linspace(-1.0, 1.0, k) if k > 1 else np.zeros(1)

    shared_first = rng.normal(0.0, jitter, 2)
    cands = pts + (mode_noise * coeffs)[:, None, None] * ramp[:, None] * normals
    cands[:, 0] += shared_first
    if n > 1:
        cands[:, 1:] += rng.normal(0.0, jitter, (k, n - 1, 2))

    observed = pts + rng.normal(0.0, mode_noise, (n, 2))
    ades = np.linalg.norm(cands - observed, axis=-1).mean(axis=-1)
    scores = softmax(-ades)
    queries = candidate_queries(cands, d_q)
    return TrajectorySet.from_points(cands, scores, queries, dt=gt_future.dt)


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
    """
    history = list(history)
    if not history:
        return step_oneshot(proposals), None
    anchor = history[-1]
    k_star = ttm_select(proposals, anchor.chosen_trajectory, frame_delta, kind)
    batches = [QueryBatch(f.proposals.queries, f.proposals.scores) for f in history]
    _, refined_scores = mpi_forward(
        proposals.queries[k_star], batches, proposals.queries, weights
    )
    return int(np.argmax(refined_scores)), refined_scores


# ---------------------------------------------------------------------------
# closed loop


def run_closed_loop(
    spec: ScenarioSpec,
    settings: RunSettings,
    weights: WeightBundle | None = None,
):
    """Receding-horizon rollout; returns ``(log, report)``.

    Each 0.5 s frame: take the remaining ground-truth future in the ego
    frame, propose K candidates, perturb their query embeddings, let the
    configured planner choose, record the frame, then advance the ego by
    the first step of the chosen trajectory.
    """
    if weights is not None and (
        weights.d_q != settings.d_q or weights.k != settings.k or weights.n_t != settings.horizon_steps
    ):
        raise ConfigError(
            f"weights sized ({weights.d_q}, {weights.k}, {weights.n_t}) do not fit "
            f"settings ({settings.d_q}, {settings.k}, {settings.horizon_steps})"
        )
    # only the momentum planner with history reads weights
    uses_weights = settings.planner == "momentum" and settings.history_depth > 0
    if weights is None and uses_weights:
        weights = WeightBundle.seeded(settings.d_q, settings.k, settings.horizon_steps, settings.weight_seed)
    h = settings.horizon_steps
    path = _gen_path(spec, extra_steps=h)
    n_frames = int(round(spec.duration_s / SIM_DT))
    world = np.vstack([[0.0, 0.0], path.points])
    first_dir = world[1] - world[0]
    pose = Pose2.from_heading(math.atan2(first_dir[1], first_dir[0]), (0.0, 0.0))
    rng = np.random.default_rng(spec.seed)
    frames: list[FrameRecord] = []

    for j in range(n_frames):
        future_world = Trajectory(world[j + 1 : j + 1 + h], dt=SIM_DT)
        gt_future = transform_to_frame(future_world, pose)
        proposals = propose(
            gt_future, settings.k, settings.mode_noise_m, settings.jitter_m, rng, settings.d_q
        )
        queries = perturb_features(proposals.queries, settings.ns, rng)
        occluded = (
            settings.occlusion_start is not None
            and settings.occlusion_start <= j < settings.occlusion_start + settings.occlusion_len
        )
        scores = np.full(settings.k, 1.0 / settings.k) if occluded else proposals.scores
        proposals = proposals.with_features(scores, queries)

        if not uses_weights:
            idx, refined_scores = step_oneshot(proposals), None
        else:
            history = frames[-settings.history_depth :]
            delta = relative_pose(history[-1].ego_pose, pose) if history else Pose2.identity()
            idx, refined_scores = step_momentum(
                proposals, history, delta, weights, settings.distance
            )
        frames.append(FrameRecord(j * SIM_DT, pose, proposals, idx, refined_scores))

        step_world = pose.rotation @ proposals.points[idx, 0] + pose.translation
        disp = step_world - pose.translation
        heading = math.atan2(disp[1], disp[0]) if (disp[0], disp[1]) != (0.0, 0.0) else pose.heading()
        pose = Pose2.from_heading(heading, step_world)

    log = ScenarioLog(spec, settings, tuple(frames))
    return log, report_from_log(log)


def _check_frame(frame: FrameRecord, j: int, settings: RunSettings) -> None:
    """Frame j of a log fits it: planned at j * SIM_DT, and its arrays have
    the shapes the settings give."""
    k, h = settings.k, settings.horizon_steps
    props = frame.proposals
    if frame.time_s != j * SIM_DT:
        raise AlignmentError(f"frame {j}: time {frame.time_s!r} s, its position says {j * SIM_DT} s")
    if props.dt != SIM_DT:
        raise AlignmentError(f"frame {j}: plan dt {props.dt!r}, the log's is {SIM_DT}")
    if props.points.shape != (k, h, 2) or props.queries.shape != (k, settings.d_q):
        raise AlignmentError(
            f"frame {j}: points {props.points.shape} and queries {props.queries.shape}, "
            f"settings say {(k, h, 2)} and {(k, settings.d_q)}"
        )


def _stack_log(log: ScenarioLog):
    """Ego rotations (F, 2, 2) and positions (F, 2), chosen plans (F, h, 2)
    and proposals (F, K, h, 2) of a log whose frames all fit its settings."""
    h, k = log.settings.horizon_steps, log.settings.k
    for j, frame in enumerate(log.frames):
        _check_frame(frame, j, log.settings)
    f = len(log.frames)
    rot = np.array([fr.ego_pose.rotation for fr in log.frames]).reshape(f, 2, 2)
    xy = np.array([fr.ego_pose.translation for fr in log.frames]).reshape(f, 2)
    proposals = np.array([fr.proposals.points for fr in log.frames]).reshape(f, k, h, 2)
    chosen = proposals[np.arange(f), [fr.chosen_index for fr in log.frames]]
    return rot, xy, chosen, proposals


def report_from_log(log: ScenarioLog) -> MetricReport:
    """Recompute every metric from a log alone (the run uses this too, so
    replaying a persisted log reproduces the original report exactly).

    The whole log is scored at once on stacked (frame, waypoint) arrays;
    every matrix product is the one a single frame would compute, so the
    report matches scoring frame by frame with the per-trajectory metric
    functions bit for bit.  Per-frame values are then summed with
    ``math.fsum`` in frame order.
    """
    settings = log.settings
    h = settings.horizon_steps
    rot, xy, chosen, proposals = _stack_log(log)
    n_frames = len(chosen)
    path = _gen_path(log.spec, extra_steps=h)
    world = np.vstack([[0.0, 0.0], path.points])
    if n_frames + h > len(world):
        raise AlignmentError(
            f"log has {n_frames} frames, the scenario's path covers {len(world) - h}"
        )
    # absolute step of waypoint i planned at frame j; always within the path
    steps = np.arange(n_frames)[:, None] + 1 + np.arange(h)
    gt = (world[steps] - xy[:, None, :]) @ rot

    # displacement, both protocols
    d = np.linalg.norm(chosen - gt, axis=-1)
    dist = np.linalg.norm(proposals - gt[:, None], axis=-1)
    averaged = settings.protocol is L2Protocol.AVERAGED_UP_TO

    # consistency: frame j's plan moved into frame j-1, waypoint i against
    # the previous plan's waypoint i+1
    rot_t = np.swapaxes(rot[1:], -1, -2)
    delta_rot = rot_t @ rot[:-1]
    delta_xy = (rot_t @ (xy[:-1] - xy[1:])[..., None])[..., 0]
    moved = (chosen[1:] - delta_xy[:, None, :]) @ delta_rot
    gap = moved[:, : h - 1] - chosen[:-1, 1:]
    sq = gap[..., 0] ** 2 + gap[..., 1] ** 2

    # collisions: ego boxes swept along the plans against every obstacle at
    # the same absolute step, one kernel call over (obstacle, frame, waypoint)
    pred_world = chosen @ np.swapaxes(rot, -1, -2) + xy[:, None, :]
    ego = (pred_world, ego_headings(pred_world), settings.ego_length_m, settings.ego_width_m)
    obstacles = log.spec.obstacles
    n_obs = len(obstacles)
    boxes = (
        np.array([o.centers_at(steps) for o in obstacles]).reshape(n_obs, n_frames, h, 2),
        np.array([o.box.heading for o in obstacles]).reshape(n_obs, 1, 1),
        np.array([o.box.length for o in obstacles]).reshape(n_obs, 1, 1),
        np.array([o.box.width for o in obstacles]).reshape(n_obs, 1, 1),
    )
    hits = overlap_flags(ego, boxes).any(axis=0)

    def mean_of(values):
        return math.fsum(values.tolist()) / len(values) if len(values) else 0.0

    l2, collision, consistency = {}, {}, {}
    for hh in settings.horizons_s:
        s = int(round(hh / SIM_DT))
        l2[hh] = mean_of(d[:, :s].mean(axis=-1) if averaged else d[:, s - 1])
        collision[hh] = mean_of(np.where(hits[:, :s].any(axis=-1), 100.0, 0.0))
        consistency[hh] = mean_of(np.sqrt(sq[:, : min(s, h - 1)].mean(axis=-1)))
    return MetricReport(
        l2=l2,
        collision_rate=collision,
        tpc=consistency,
        min_ade=mean_of(dist.mean(axis=-1).min(axis=-1)),
        min_fde=mean_of(dist[..., -1].min(axis=-1)),
    )


# ---------------------------------------------------------------------------
# log persistence


# Format v2, the one written: a header line, then one JSON line per frame.
# Every float array is one string, base64 of its little-endian float64
# bytes, so it reads back bit for bit (-0.0 and subnormals included); its
# shape comes from the header's k, horizon_steps and d_q.  The chosen plan
# is not stored: it is row chosen_index of the proposals.  Format v1, still
# read, wrote the arrays as decimal JSON lists and the chosen plan in full.


def _encode(array) -> str:
    return base64.b64encode(np.ascontiguousarray(array, dtype="<f8").tobytes()).decode("ascii")


def _decode(text: str, shape: tuple[int, ...], name: str) -> np.ndarray:
    raw = base64.b64decode(text, validate=True)
    size = 8 * math.prod(shape)
    if len(raw) != size:
        raise ShapeError(f"{name} holds {len(raw)} bytes, shape {shape} needs {size}")
    return np.frombuffer(raw, dtype="<f8").reshape(shape)


def _frame_to_dict(frame: FrameRecord) -> dict:
    props = frame.proposals
    rec = {
        "kind": "frame",
        "time_s": float(frame.time_s),
        "chosen_index": frame.chosen_index,
        "dt": float(props.dt),
        "rotation": _encode(frame.ego_pose.rotation),
        "xy": _encode(frame.ego_pose.translation),
        "points": _encode(props.points),
        "scores": _encode(props.scores),
        "queries": _encode(props.queries),
    }
    if frame.refined_scores is not None:
        rec["refined_scores"] = _encode(frame.refined_scores)
    return rec


def _finite_number(obj: dict, key: str) -> float:
    value = obj[key]
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ValueError(f"{key} must be a finite number, got {value!r}")
    return float(value)


def _frame_from_v2(obj: dict, settings: RunSettings) -> FrameRecord:
    k = settings.k
    proposals = TrajectorySet.from_points(
        _decode(obj["points"], (k, settings.horizon_steps, 2), "points"),
        _decode(obj["scores"], (k,), "scores"),
        _decode(obj["queries"], (k, settings.d_q), "queries"),
        dt=_finite_number(obj, "dt"),
    )
    pose = Pose2(_decode(obj["rotation"], (2, 2), "rotation"), _decode(obj["xy"], (2,), "xy"))
    refined = obj.get("refined_scores")
    if refined is not None:
        refined = _decode(refined, (k,), "refined_scores")
    return FrameRecord(_finite_number(obj, "time_s"), pose, proposals, obj["chosen_index"], refined)


def _frame_from_v1(obj: dict, settings: RunSettings) -> FrameRecord:
    props = obj["proposals"]
    proposals = TrajectorySet(
        tuple(trajectory_from_dict(t) for t in props["trajectories"]),
        np.asarray(props["scores"], dtype=np.float64),
        np.asarray(props["queries"], dtype=np.float64),
    )
    pose = Pose2(
        np.asarray(obj["ego_pose"]["rotation"], dtype=np.float64),
        np.asarray(obj["ego_pose"]["xy"], dtype=np.float64),
    )
    idx = obj["chosen_index"]
    frame = FrameRecord(
        _finite_number(obj, "time_s"), pose, proposals, idx, obj.get("refined_scores")
    )
    # the one place a chosen plan arrives stored: it must be the proposal
    stored = trajectory_from_dict(obj["chosen_trajectory"])
    if stored.dt != proposals.dt or stored.points.tobytes() != proposals.points[idx].tobytes():
        raise ValueError(f"chosen_trajectory is not proposal {idx}")
    return frame


def log_to_jsonl(log: ScenarioLog) -> str:
    header = {
        "kind": "header",
        "format_version": LOG_FORMAT_VERSION,
        "spec": log.spec.to_dict(),
        "settings": log.settings.to_dict(),
    }
    lines = [json.dumps(header)]
    for j, frame in enumerate(log.frames):
        _check_frame(frame, j, log.settings)
        lines.append(json.dumps(_frame_to_dict(frame)))
    return "\n".join(lines) + "\n"


def save_log(log: ScenarioLog, path) -> None:
    text = log_to_jsonl(log)  # a log that does not fit leaves no file behind
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_log(path) -> ScenarioLog:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise LogCorruptionError("log file is empty", line_number=1)

    def parse(line_no: int, text: str) -> dict:
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise LogCorruptionError(f"invalid JSON ({exc.msg})", line_number=line_no) from exc
        if not isinstance(obj, dict):
            raise LogCorruptionError("log record must be an object", line_number=line_no)
        return obj

    header = parse(1, lines[0])
    if header.get("kind") != "header":
        raise LogCorruptionError("first record must be the header", line_number=1)
    version = header.get("format_version")
    if type(version) is not int or version not in (1, LOG_FORMAT_VERSION):
        raise LogCorruptionError(f"unsupported format_version {version!r}", line_number=1)
    try:
        spec = ScenarioSpec.from_dict(header["spec"])
        settings = RunSettings.from_dict(header["settings"])
    except (KeyError, ConfigError) as exc:
        raise LogCorruptionError(f"bad header: {exc}", line_number=1) from exc

    read_frame = _frame_from_v1 if version == 1 else _frame_from_v2
    frames = []
    for line_no, text in enumerate(lines[1:], start=2):
        if not text.strip():
            continue
        obj = parse(line_no, text)
        if obj.get("kind") != "frame":
            raise LogCorruptionError(f"unexpected record kind {obj.get('kind')!r}", line_number=line_no)
        try:
            frame = read_frame(obj, settings)
            _check_frame(frame, len(frames), settings)
        except (KeyError, TypeError, ValueError) as exc:
            raise LogCorruptionError(f"bad frame record: {exc}", line_number=line_no) from exc
        frames.append(frame)
    return ScenarioLog(spec, settings, tuple(frames))
