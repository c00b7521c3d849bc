"""The three workloads: inputs made from a seed, one unit of program work,
and the checks on its output.

Every workload keeps a fixed make-up across seeds (the same mix of scene
kinds, lengths and roles in the same order), so a seed changes the scenes'
continuous parameters and noise but not how much work a round holds.  The
package is driven through ``simulator.run_closed_loop``, ``save_log``,
``load_log``, ``report_from_log`` and ``interactor.trajectory_sq_loss_and_grads``,
each looked up on its module at call time so that the tracer's wrappers apply.
"""

from __future__ import annotations

import hashlib
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from momentum_planning import (
    DistanceKind,
    ObstacleBox,
    QueryBatch,
    RunSettings,
    ScenarioSpec,
    ScriptedObstacle,
    Trajectory,
    WeightBundle,
    relative_pose,
    ttm_select,
)
from momentum_planning import interactor, metrics, simulator

import oracles

HORIZON_S = 3.0
MOMENTUM = RunSettings(planner="momentum", history_depth=2)
ONESHOT = RunSettings(planner="oneshot", history_depth=0)
H_STEPS = MOMENTUM.horizon_steps
EGO_DIMS = (MOMENTUM.ego_length_m, MOMENTUM.ego_width_m)
TOL_METRIC = 1e-9
TOL_FD = 1e-4


@dataclass
class Done:
    """What one unit did: 0.5 s frames planned, rollouts run, log bytes
    written, the outputs its checks read, and the metric reports kept for
    the quality metrics."""

    frames: int
    rollouts: int
    log_bytes: int
    out: tuple
    reports: tuple = ()


def _seed_rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([salt, seed])


def _stratified(rng: np.random.Generator, count: int, lo: float, hi: float) -> list[float]:
    """One draw from each of ``count`` equal slices of [lo, hi), shuffled,
    so every seed's scenes cover the range evenly."""
    return list(lo + (hi - lo) * (rng.permutation(count) + rng.random(count)) / count)


def turn_scenes(rng: np.random.Generator, count: int) -> list[ScenarioSpec]:
    """Arc turns and S-curves alternating, lengths cycling 3/4/5 s; speed,
    radius and turn angle stratified over their ranges, and a scene seed
    for the proposal noise, all drawn from ``rng``."""
    speeds = _stratified(rng, count, 4.0, 9.0)
    radii = _stratified(rng, count, 15.0, 40.0)
    angles = _stratified(rng, count, math.pi / 3.0, 2.0 * math.pi / 3.0)
    return [
        ScenarioSpec(
            ("arc_turn", "s_curve")[i % 2],
            duration_s=(3.0, 4.0, 5.0)[(i // 2) % 3],
            speed_mps=speeds[i],
            radius_m=radii[i],
            angle_rad=angles[i],
            seed=int(rng.integers(0, 2**31)),
        )
        for i in range(count)
    ]


def _recompute(spec: ScenarioSpec, log) -> tuple[float, float]:
    n = len(log.frames)
    path = oracles.analytic_path(spec.kind, spec.duration_s, spec.speed_mps, spec.radius_m,
                                 spec.angle_rad, n + H_STEPS)
    poses = [(f.ego_pose.rotation, f.ego_pose.translation) for f in log.frames]
    chosen = [f.chosen_trajectory.points for f in log.frames]
    return oracles.tpc_l2_at(path, poses, chosen, int(round(HORIZON_S / simulator.SIM_DT)))


def _report_matches(spec, log, report, label: str) -> list[str]:
    tpc, l2 = _recompute(spec, log)
    problems = []
    for name, mine, theirs in (("TPC", tpc, report.tpc[HORIZON_S]), ("L2", l2, report.l2[HORIZON_S])):
        if not abs(mine - theirs) <= TOL_METRIC:
            problems.append(f"{label} {name}@3s {theirs!r} but recomputed {mine!r}")
    return problems


def _mean(values) -> float:
    values = list(values)
    return math.fsum(values) / len(values)


class TurnCompare:
    """Per scene: one momentum rollout at history depth 2, then one one-shot
    rollout, as the ``compare`` command does per seed."""

    name = "turn-compare"
    pool_size = 108

    def make(self, seed: int) -> list:
        return turn_scenes(_seed_rng(seed, 1), self.pool_size)

    def unit(self, spec) -> Done:
        log_m, rep_m = simulator.run_closed_loop(spec, MOMENTUM)
        log_o, rep_o = simulator.run_closed_loop(spec, ONESHOT)
        return Done(len(log_m.frames) + len(log_o.frames), 2, 0, (log_m, rep_m, log_o, rep_o),
                    (rep_m, rep_o))

    def check(self, spec, out) -> list[str]:
        log_m, rep_m, log_o, rep_o = out
        problems = []
        if len(log_m.frames) != len(log_o.frames):
            problems.append("planners ran different frame counts")
        for j, (fm, fo) in enumerate(zip(log_m.frames, log_o.frames)):
            same = (
                np.array_equal(fm.ego_pose.rotation, fo.ego_pose.rotation)
                and np.array_equal(fm.ego_pose.translation, fo.ego_pose.translation)
                and np.array_equal(fm.proposals.scores, fo.proposals.scores)
                and np.array_equal(fm.proposals.queries, fo.proposals.queries)
                and all(np.array_equal(a.points, b.points) for a, b in
                        zip(fm.proposals.trajectories, fo.proposals.trajectories))
            )
            if not same:
                problems.append(f"frame {j}: planners saw different proposals or poses")
            best = int(np.argmax(fo.proposals.scores))
            if fo.chosen_index != best or not np.array_equal(
                fo.chosen_trajectory.points, fo.proposals.trajectories[best].points
            ):
                problems.append(f"frame {j}: one-shot chose {fo.chosen_index}, argmax is {best}")
        problems += _report_matches(spec, log_m, rep_m, "momentum")
        problems += _report_matches(spec, log_o, rep_o, "one-shot")
        return problems

    def digest(self, out) -> bytes:
        log_m, rep_m, log_o, rep_o = out
        chosen = [f.chosen_index for f in log_m.frames + log_o.frames]
        return (rep_m.to_csv_text() + rep_o.to_csv_text() + repr(chosen)).encode()

    def quality(self, reports) -> dict:
        return {
            "tpc_3s_m": _mean(m.tpc[HORIZON_S] for m, _ in reports),
            "l2_3s_m": _mean(m.l2[HORIZON_S] for m, _ in reports),
            "oneshot_tpc_3s_m": _mean(o.tpc[HORIZON_S] for _, o in reports),
            "oneshot_l2_3s_m": _mean(o.l2[HORIZON_S] for _, o in reports),
        }

    def close(self) -> None:
        pass


@dataclass(frozen=True)
class ObstacleScene:
    index: int
    role: str  # "parked": a box stands on the path; "clear": every box is far; "mixed"
    spec: ScenarioSpec


def _frame_normals(path: np.ndarray) -> np.ndarray:
    tangents = np.diff(np.vstack([[0.0, 0.0], path]), axis=0)
    tangents /= np.linalg.norm(tangents, axis=1, keepdims=True)
    return np.column_stack([-tangents[:, 1], tangents[:, 0]])


def _box_far_from(path: np.ndarray, center, velocity, steps: int, distance: float) -> bool:
    track = np.asarray(center) + np.outer(np.arange(steps + 1) * simulator.SIM_DT, velocity)
    pts = np.vstack([[0.0, 0.0], path])
    gaps = np.linalg.norm(track[:, None, :] - pts[None, :, :], axis=2)
    return bool(gaps.min() > distance)


def obstacle_scenes(rng: np.random.Generator, count: int) -> list[ObstacleScene]:
    """Four boxes per scene; roles cycle parked/clear/mixed/mixed and kinds
    straight/arc/S-curve, so all twelve pairs recur in every 12 scenes."""
    duration = 4.0
    n = int(round(duration / simulator.SIM_DT)) + H_STEPS
    speeds = _stratified(rng, count, 4.0, 8.0)
    radii = _stratified(rng, count, 20.0, 40.0)
    angles = _stratified(rng, count, math.pi / 4.0, math.pi / 2.0)
    scenes = []
    for i, (speed, radius, angle) in enumerate(zip(speeds, radii, angles)):
        role = ("parked", "clear", "mixed", "mixed")[i % 4]
        kind = ("straight", "arc_turn", "s_curve")[i % 3]
        path = oracles.analytic_path(kind, duration, speed, radius, angle, n)
        normals = _frame_normals(path)
        boxes = []
        if role == "parked":
            p = int(rng.integers(3, 8))
            heading = math.atan2(-normals[p, 0], normals[p, 1])
            boxes.append(ScriptedObstacle(ObstacleBox(tuple(path[p]), heading, 4.5, 1.8)))
        while len(boxes) < 4:
            p = int(rng.integers(0, n))
            heading = float(rng.uniform(-math.pi, math.pi))
            if role == "mixed":
                center = path[p] + float(rng.uniform(-5.0, 5.0)) * normals[p]
                velocity = (0.0, 0.0) if len(boxes) < 2 else tuple(rng.uniform(-1.5, 1.5, 2))
                size = (float(rng.uniform(3.5, 5.0)), float(rng.uniform(1.6, 2.2)))
            else:
                side = 1.0 if rng.random() < 0.5 else -1.0
                center = path[p] + side * float(rng.uniform(18.0, 30.0)) * normals[p]
                velocity = tuple(rng.uniform(-0.8, 0.8, 2))
                size = (4.0, 1.8)
                if not _box_far_from(path, center, velocity, n, 10.0):
                    continue
            boxes.append(ScriptedObstacle(ObstacleBox(tuple(center), heading, *size), velocity))
        spec = ScenarioSpec(kind, duration, speed, radius, angle, tuple(boxes),
                            seed=int(rng.integers(0, 2**31)))
        scenes.append(ObstacleScene(i, role, spec))
    return scenes


class ObstacleReplay:
    """Per scene: one one-shot rollout, then ``save_log``, ``load_log`` and
    ``report_from_log`` on the saved file, as ``run`` followed by ``eval``."""

    name = "obstacle-replay"
    pool_size = 108

    def __init__(self, log_dir: Path):
        self.log_dir = log_dir
        self.oracle_counts = {"decided": 0, "undecided": 0, "colliding": 0}

    def make(self, seed: int) -> list:
        self.log_dir.mkdir(parents=True, exist_ok=True)
        return obstacle_scenes(_seed_rng(seed, 2), self.pool_size)

    def unit(self, scene: ObstacleScene) -> Done:
        log, report = simulator.run_closed_loop(scene.spec, ONESHOT)
        path = self.log_dir / f"scene{scene.index}.jsonl"
        simulator.save_log(log, path)
        size = path.stat().st_size
        replayed = simulator.report_from_log(simulator.load_log(path))
        return Done(len(log.frames), 1, size, (log, report, replayed), (report,))

    def check(self, scene: ObstacleScene, out) -> list[str]:
        log, report, replayed = out
        problems = []
        if replayed.to_csv_text() != report.to_csv_text():
            problems.append("replayed metrics CSV differs from the run's")
        rates = report.collision_rate
        if scene.role == "parked" and not max(rates.values()) > 0.0:
            problems.append("a box parked on the path reports no collision")
        if scene.role == "clear" and any(rates.values()):
            problems.append(f"boxes far from the path report collisions {dict(rates)}")
        problems += self._oracle(scene, log, report)
        return problems

    def _oracle(self, scene: ObstacleScene, log, report) -> list[str]:
        """Per-waypoint flags against point sampling, then the report's
        collision rates against the frames the oracle decided."""
        problems = []
        obstacles = scene.spec.obstacles
        n_frames = len(log.frames)
        steps = {h: int(round(h / simulator.SIM_DT)) for h in report.collision_rate}
        low = {h: 0 for h in steps}
        high = {h: 0 for h in steps}
        for j, frame in enumerate(log.frames):
            rot, xy = frame.ego_pose.rotation, frame.ego_pose.translation
            world = frame.chosen_trajectory.points @ rot.T + xy
            headings = oracles.ego_headings(world)
            truth = []
            for i, (pt, heading) in enumerate(zip(world, headings)):
                t = (j + 1 + i) * simulator.SIM_DT
                votes = [
                    oracles.box_overlap_oracle(
                        (pt, heading, *EGO_DIMS),
                        (np.add(o.box.center, np.multiply(o.velocity, t)), o.box.heading,
                         o.box.length, o.box.width),
                    )
                    for o in obstacles
                ]
                truth.append(True if True in votes else (False if all(v is False for v in votes) else None))
            aligned = [[o.at_step(j + 1 + i) for i in range(len(world))] for o in obstacles]
            flags = metrics.collision_flags(Trajectory(world, dt=simulator.SIM_DT), EGO_DIMS, aligned)
            for i, (want, got) in enumerate(zip(truth, flags)):
                if want is None:
                    self.oracle_counts["undecided"] += 1
                    continue
                self.oracle_counts["decided"] += 1
                self.oracle_counts["colliding"] += want
                if bool(got) != want:
                    problems.append(f"frame {j} waypoint {i}: flag {bool(got)}, oracle {want}")
            for h, s in steps.items():
                low[h] += any(v is True for v in truth[:s])
                high[h] += any(v is not False for v in truth[:s])
        for h in steps:
            if not 100.0 * low[h] / n_frames - TOL_METRIC <= report.collision_rate[h] \
                    <= 100.0 * high[h] / n_frames + TOL_METRIC:
                problems.append(f"collision rate @{h}s {report.collision_rate[h]!r} outside the "
                                f"oracle's [{100.0 * low[h] / n_frames}, {100.0 * high[h] / n_frames}]")
        return problems

    def digest(self, out) -> bytes:
        log, report, replayed = out
        return (report.to_csv_text() + replayed.to_csv_text()).encode()

    def quality(self, reports) -> dict:
        return {
            "tpc_3s_m": _mean(r[0].tpc[HORIZON_S] for r in reports),
            "l2_3s_m": _mean(r[0].l2[HORIZON_S] for r in reports),
        }

    def close(self) -> None:
        shutil.rmtree(self.log_dir, ignore_errors=True)


@dataclass(frozen=True)
class GradFrame:
    index: int
    query: np.ndarray
    history: tuple
    candidates: np.ndarray


class MpiGrad:
    """Per frame: one ``trajectory_sq_loss_and_grads`` call on the TTM-selected
    query, the frame's 1-2 history batches and its candidate queries.  The
    frames come from depth-2 momentum rollouts made at set-up."""

    name = "mpi-grad"
    rollouts = 48

    def __init__(self):
        self.weights = WeightBundle.seeded(MOMENTUM.d_q, MOMENTUM.k, MOMENTUM.horizon_steps,
                                           MOMENTUM.weight_seed)
        self.fd_names = [n for n in self.weights.names() if n not in ("head.W_score", "head.b_score")]
        self.setup_reports = []
        self.seed = 0

    def make(self, seed: int) -> list:
        self.seed = seed
        self.setup_reports = []
        frames = []
        for spec in turn_scenes(_seed_rng(seed, 3), self.rollouts):
            log, report = simulator.run_closed_loop(spec, MOMENTUM)
            self.setup_reports.append(report)
            for j in range(1, len(log.frames)):
                history = log.frames[max(0, j - MOMENTUM.history_depth) : j]
                frame = log.frames[j]
                delta = relative_pose(history[-1].ego_pose, frame.ego_pose)
                k_star = ttm_select(frame.proposals, history[-1].chosen_trajectory, delta,
                                    DistanceKind.HAUSDORFF)
                frames.append(GradFrame(
                    len(frames),
                    frame.proposals.queries[k_star],
                    tuple(QueryBatch(h.proposals.queries, h.proposals.scores) for h in history),
                    frame.proposals.queries,
                ))
        return frames

    def unit(self, frame: GradFrame) -> Done:
        out = interactor.trajectory_sq_loss_and_grads(frame.query, frame.history, frame.candidates,
                                                      self.weights)
        return Done(1, 0, 0, out)

    def _sq_loss(self, frame: GradFrame):
        def loss(weights) -> float:
            trajs, _ = interactor.mpi_forward(frame.query, frame.history, frame.candidates, weights)
            flat = trajs.reshape(-1)
            return float(flat @ flat)
        return loss

    def check(self, frame: GradFrame, out) -> list[str]:
        loss, grads = out
        problems = []
        sq_loss = self._sq_loss(frame)
        forward = sq_loss(self.weights)
        if not abs(loss - forward) <= 1e-12 * max(1.0, abs(forward)):
            problems.append(f"loss {loss!r} but mpi_forward's sum of squares is {forward!r}")
        for name in ("head.W_score", "head.b_score"):
            # the score logits never reach this loss
            if np.any(grads[name] != 0.0):
                problems.append(f"{name}: nonzero gradient for a loss it does not touch")
        # one entry per frame, the tensor rotating with the frame index, so a
        # round covers every tensor the loss reaches many times over
        name = self.fd_names[frame.index % len(self.fd_names)]
        grad = grads[name].reshape(-1)
        idx = int(_seed_rng(self.seed, 1000 + frame.index).integers(0, grad.size))
        numeric = oracles.fd_entry(sq_loss, self.weights, name, idx)
        err = abs(grad[idx] - numeric) / max(abs(grad[idx]), abs(numeric), TOL_FD)
        if not err <= TOL_FD:
            problems.append(f"{name}[{idx}]: analytic {grad[idx]!r}, central difference {numeric!r}")
        return problems

    def digest(self, out) -> bytes:
        loss, grads = out
        h = hashlib.sha1(repr(loss).encode())
        for name in sorted(grads):
            h.update(np.ascontiguousarray(grads[name]).tobytes())
        return h.digest()

    def quality(self, reports) -> dict:
        return {
            "tpc_3s_m": _mean(r.tpc[HORIZON_S] for r in self.setup_reports),
            "l2_3s_m": _mean(r.l2[HORIZON_S] for r in self.setup_reports),
        }

    def close(self) -> None:
        pass
