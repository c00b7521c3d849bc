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

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigError, EmptyInputError, LogCorruptionError
from .interactor import QueryBatch, WeightBundle, mpi_forward, softmax
from .matching import DistanceKind, TrajectorySet, ttm_select
from .metrics import (
    L2Protocol,
    MetricReport,
    ObstacleBox,
    collision_flags,
    l2_error,
    min_ade_fde,
    tpc,
)
from .trajectory import (
    OverlapMask,
    Pose2,
    Trajectory,
    overlap_mask,
    relative_pose,
    transform_from_frame,
    transform_to_frame,
    trajectory_from_dict,
    trajectory_to_dict,
)

SIM_DT = 0.5
LOG_FORMAT_VERSION = 1

SCENARIO_KINDS = ("straight", "arc_turn", "s_curve")
PLANNER_KINDS = ("oneshot", "momentum")

# queries must be comparable across frames, so their projection is fixed
# once per (width, horizon) and never depends on the scenario seed
_QUERY_PROJECTION_SEED = 1_400_305
_query_projections: dict[tuple[int, int], np.ndarray] = {}


@dataclass(frozen=True)
class ScriptedObstacle:
    """A box with constant-velocity motion."""

    box: ObstacleBox
    velocity: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        vx, vy = float(self.velocity[0]), float(self.velocity[1])
        if not (math.isfinite(vx) and math.isfinite(vy)):
            raise ConfigError("obstacle velocity must be finite")
        object.__setattr__(self, "velocity", (vx, vy))

    def at_step(self, step: int) -> ObstacleBox:
        t = step * SIM_DT
        cx, cy = self.box.center
        return ObstacleBox(
            (cx + self.velocity[0] * t, cy + self.velocity[1] * t),
            self.box.heading,
            self.box.length,
            self.box.width,
        )


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
        if not (self.duration_s > 0.0 and math.isfinite(self.duration_s)):
            raise ConfigError(f"duration must be positive, got {self.duration_s}")
        if round(self.duration_s / SIM_DT) < 1:
            raise ConfigError(
                f"duration {self.duration_s} s is shorter than one {SIM_DT} s planning frame"
            )
        if not (self.speed_mps > 0.0 and math.isfinite(self.speed_mps)):
            raise ConfigError(f"speed must be positive, got {self.speed_mps}")
        if not (math.isfinite(self.radius_m) and math.isfinite(self.angle_rad)):
            raise ConfigError(
                f"radius and turn angle must be finite, got {self.radius_m} and {self.angle_rad}"
            )
        if self.kind in ("arc_turn", "s_curve") and not self.radius_m > 0.0:
            raise ConfigError(f"radius must be positive, got {self.radius_m}")
        if self.kind == "arc_turn" and not self.angle_rad > 0.0:
            raise ConfigError(f"turn angle must be positive, got {self.angle_rad}")
        if int(self.seed) != self.seed:
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        object.__setattr__(self, "obstacles", tuple(self.obstacles))
        object.__setattr__(self, "seed", int(self.seed))

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
        if self.occlusion_len < 0:
            raise ConfigError(f"occlusion length must be >= 0, got {self.occlusion_len}")
        if self.ego_length_m <= 0.0 or self.ego_width_m <= 0.0:
            raise ConfigError("ego dimensions must be positive")
        horizons = tuple(float(h) for h in self.horizons_s)
        if not horizons:
            raise ConfigError("at least one evaluation horizon is required")
        for h in horizons:
            steps = round(h / SIM_DT)
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
                history_depth=int(merged["history_depth"]),
                distance=DistanceKind(merged["distance"]),
                k=int(merged["k"]),
                horizon_steps=int(merged["horizon_steps"]),
                d_q=int(merged["d_q"]),
                mode_noise_m=float(merged["mode_noise_m"]),
                jitter_m=float(merged["jitter_m"]),
                ns=float(merged["ns"]),
                weight_seed=int(merged["weight_seed"]),
                occlusion_start=None
                if merged["occlusion_start"] is None
                else int(merged["occlusion_start"]),
                occlusion_len=int(merged["occlusion_len"]),
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
    """One planning step: what was proposed, chosen and where the ego was."""

    time_s: float
    ego_pose: Pose2
    proposals: TrajectorySet
    chosen_index: int
    chosen_trajectory: Trajectory
    refined_scores: np.ndarray | None = None


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


def candidate_queries(trajectories: Sequence[Trajectory], d_q: int) -> np.ndarray:
    """Deterministic per-candidate embeddings: centered waypoints through a
    fixed seeded projection."""
    if not trajectories:
        raise EmptyInputError("no candidates to embed")
    rows = []
    for traj in trajectories:
        centered = traj.points - traj.points.mean(axis=0)
        flat = centered.reshape(-1)
        rows.append(_query_projection(d_q, flat.size) @ flat)
    return np.asarray(rows)


def _lateral_normals(points: np.ndarray) -> np.ndarray:
    normals = np.zeros_like(points)
    n = len(points)
    last = np.array([0.0, 1.0])
    for i in range(n):
        j = min(i, n - 2)
        d = points[j + 1] - points[j] if n > 1 else np.array([1.0, 0.0])
        norm = math.hypot(d[0], d[1])
        if norm > 0.0:
            last = np.array([-d[1], d[0]]) / norm
        normals[i] = last
    return normals


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
    candidates = []
    for coef in coeffs:
        offset = mode_noise * coef * ramp[:, None] * normals
        cand = pts + offset
        cand[0] = cand[0] + shared_first
        if n > 1:
            cand[1:] = cand[1:] + rng.normal(0.0, jitter, (n - 1, 2))
        candidates.append(Trajectory(cand, dt=gt_future.dt))

    observed = pts + rng.normal(0.0, mode_noise, (n, 2))
    ades = np.array(
        [np.linalg.norm(c.points - observed, axis=1).mean() for c in candidates]
    )
    scores = softmax(-ades)
    queries = candidate_queries(candidates, d_q)
    return TrajectorySet(tuple(candidates), scores, queries)


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


def _flattened_scores(proposals: TrajectorySet) -> TrajectorySet:
    k = len(proposals)
    return TrajectorySet(proposals.trajectories, np.full(k, 1.0 / k), proposals.queries)


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
    if weights is None:
        weights = WeightBundle.seeded(settings.d_q, settings.k, settings.horizon_steps, settings.weight_seed)
    if weights.d_q != settings.d_q or weights.k != settings.k or weights.n_t != settings.horizon_steps:
        raise ConfigError(
            f"weights sized ({weights.d_q}, {weights.k}, {weights.n_t}) do not fit "
            f"settings ({settings.d_q}, {settings.k}, {settings.horizon_steps})"
        )
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
        proposals = TrajectorySet(
            proposals.trajectories,
            proposals.scores,
            perturb_features(proposals.queries, settings.ns, rng),
        )
        if (
            settings.occlusion_start is not None
            and settings.occlusion_start <= j < settings.occlusion_start + settings.occlusion_len
        ):
            proposals = _flattened_scores(proposals)

        if settings.planner == "oneshot" or settings.history_depth == 0:
            idx, refined_scores = step_oneshot(proposals), None
        else:
            history = frames[-settings.history_depth :]
            delta = relative_pose(history[-1].ego_pose, pose) if history else Pose2.identity()
            idx, refined_scores = step_momentum(
                proposals, history, delta, weights, settings.distance
            )
        chosen = proposals.trajectories[idx]
        frames.append(
            FrameRecord(
                time_s=j * SIM_DT,
                ego_pose=pose,
                proposals=proposals,
                chosen_index=idx,
                chosen_trajectory=chosen,
                refined_scores=refined_scores,
            )
        )

        step_world = pose.rotation @ chosen.points[0] + pose.translation
        disp = step_world - pose.translation
        heading = math.atan2(disp[1], disp[0]) if (disp[0], disp[1]) != (0.0, 0.0) else pose.heading()
        pose = Pose2.from_heading(heading, step_world)

    log = ScenarioLog(spec, settings, tuple(frames))
    return log, report_from_log(log)


def report_from_log(log: ScenarioLog) -> MetricReport:
    """Recompute every metric from a log alone (the run uses this too, so
    replaying a persisted log reproduces the original report exactly)."""
    settings = log.settings
    h = settings.horizon_steps
    path, tracks = gen_scenario(log.spec, extra_steps=h)
    world = np.vstack([[0.0, 0.0], path.points])
    horizons = settings.horizons_s

    l2_acc = {hh: [] for hh in horizons}
    col_acc = {hh: [] for hh in horizons}
    tpc_acc = {hh: [] for hh in horizons}
    ade_acc, fde_acc = [], []

    for j, frame in enumerate(log.frames):
        future_world = Trajectory(world[j + 1 : j + 1 + h], dt=SIM_DT)
        gt_future = transform_to_frame(future_world, frame.ego_pose)
        frame_l2 = l2_error(frame.chosen_trajectory, gt_future, horizons, settings.protocol)
        for hh in horizons:
            l2_acc[hh].append(frame_l2[hh])

        pred_world = transform_from_frame(frame.chosen_trajectory, frame.ego_pose)
        aligned = [
            [track[min(j + 1 + i, len(track) - 1)] for i in range(len(pred_world))]
            for track in tracks
        ]
        flags = collision_flags(
            pred_world, (settings.ego_length_m, settings.ego_width_m), aligned
        )
        for hh in horizons:
            steps = int(round(hh / SIM_DT))
            col_acc[hh].append(100.0 if flags[:steps].any() else 0.0)

        ade, fde, _ = min_ade_fde(frame.proposals, gt_future)
        ade_acc.append(ade)
        fde_acc.append(fde)

        if j > 0:
            prev = log.frames[j - 1]
            delta = relative_pose(prev.ego_pose, frame.ego_pose)
            base_mask = overlap_mask(frame.chosen_trajectory, prev.chosen_trajectory, 1)
            for hh in horizons:
                steps = int(round(hh / SIM_DT))
                flags_h = base_mask.flags & (np.arange(len(base_mask)) < steps)
                value = tpc(
                    frame.chosen_trajectory,
                    prev.chosen_trajectory,
                    delta,
                    OverlapMask(flags_h),
                )
                if value is not None:
                    tpc_acc[hh].append(value)

    def mean_of(values):
        return math.fsum(values) / len(values) if values else 0.0

    return MetricReport(
        l2={hh: mean_of(l2_acc[hh]) for hh in horizons},
        collision_rate={hh: mean_of(col_acc[hh]) for hh in horizons},
        tpc={hh: mean_of(tpc_acc[hh]) for hh in horizons},
        min_ade=mean_of(ade_acc),
        min_fde=mean_of(fde_acc),
    )


# ---------------------------------------------------------------------------
# log persistence


def _pose_to_dict(pose: Pose2) -> dict:
    # the matrix itself round-trips exactly; a heading would pick up one
    # ulp of trig noise on reload
    return {
        "rotation": pose.rotation.tolist(),
        "xy": [float(pose.translation[0]), float(pose.translation[1])],
    }


def _pose_from_dict(obj: dict) -> Pose2:
    return Pose2(
        np.asarray(obj["rotation"], dtype=np.float64),
        np.asarray(obj["xy"], dtype=np.float64),
    )


def _frame_to_dict(frame: FrameRecord) -> dict:
    rec = {
        "kind": "frame",
        "time_s": float(frame.time_s),
        "ego_pose": _pose_to_dict(frame.ego_pose),
        "chosen_index": int(frame.chosen_index),
        "chosen_trajectory": trajectory_to_dict(frame.chosen_trajectory),
        "proposals": {
            "trajectories": [trajectory_to_dict(t) for t in frame.proposals.trajectories],
            "scores": frame.proposals.scores.tolist(),
            "queries": frame.proposals.queries.tolist(),
        },
    }
    if frame.refined_scores is not None:
        rec["refined_scores"] = np.asarray(frame.refined_scores).tolist()
    return rec


def _frame_from_dict(obj: dict) -> FrameRecord:
    props = obj["proposals"]
    proposals = TrajectorySet(
        tuple(trajectory_from_dict(t) for t in props["trajectories"]),
        np.asarray(props["scores"], dtype=np.float64),
        np.asarray(props["queries"], dtype=np.float64),
    )
    refined = obj.get("refined_scores")
    return FrameRecord(
        time_s=float(obj["time_s"]),
        ego_pose=_pose_from_dict(obj["ego_pose"]),
        proposals=proposals,
        chosen_index=int(obj["chosen_index"]),
        chosen_trajectory=trajectory_from_dict(obj["chosen_trajectory"]),
        refined_scores=None if refined is None else np.asarray(refined, dtype=np.float64),
    )


def log_to_jsonl(log: ScenarioLog) -> str:
    header = {
        "kind": "header",
        "format_version": LOG_FORMAT_VERSION,
        "spec": log.spec.to_dict(),
        "settings": log.settings.to_dict(),
    }
    lines = [json.dumps(header)]
    lines.extend(json.dumps(_frame_to_dict(frame)) for frame in log.frames)
    return "\n".join(lines) + "\n"


def save_log(log: ScenarioLog, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(log_to_jsonl(log))


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
    if header.get("format_version") != LOG_FORMAT_VERSION:
        raise LogCorruptionError(
            f"unsupported format_version {header.get('format_version')!r}", line_number=1
        )
    try:
        spec = ScenarioSpec.from_dict(header["spec"])
        settings = RunSettings.from_dict(header["settings"])
    except (KeyError, ConfigError) as exc:
        raise LogCorruptionError(f"bad header: {exc}", line_number=1) from exc

    frames = []
    for line_no, text in enumerate(lines[1:], start=2):
        if not text.strip():
            continue
        obj = parse(line_no, text)
        if obj.get("kind") != "frame":
            raise LogCorruptionError(f"unexpected record kind {obj.get('kind')!r}", line_number=line_no)
        try:
            frames.append(_frame_from_dict(obj))
        except (KeyError, TypeError, ValueError) as exc:
            raise LogCorruptionError(f"bad frame record: {exc}", line_number=line_no) from exc
    return ScenarioLog(spec, settings, tuple(frames))
