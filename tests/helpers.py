"""Shared test harnesses: finite differences for gradient verification, and
the per-candidate proposal and matching loops, the per-frame momentum step
and the per-frame rollout and scoring loops that the batched ``propose``,
``ttm_select``, ``step_momentum``, ``run_closed_loop`` and
``report_from_log`` must reproduce."""

import math

import numpy as np

from momentum_planning.interactor import QueryBatch, WeightBundle, mpi_forward, softmax
from momentum_planning.matching import TrajectorySet, trajectory_distance, ttm_select
from momentum_planning.metrics import MetricReport, ObstacleBox, l2_error, min_ade_fde, tpc
from momentum_planning.simulator import (
    SIM_DT,
    FrameRecord,
    ScenarioLog,
    _gen_path,
    _query_projection,
    gen_scenario,
    perturb_features,
    report_from_log,
    step_oneshot,
)
from momentum_planning.trajectory import (
    OverlapMask,
    Pose2,
    Trajectory,
    overlap_mask,
    relative_pose,
    transform_from_frame,
    transform_to_frame,
)


def fd_grad(loss_fn, weights, name, step=1e-5):
    """Central finite differences of loss_fn over one named weight tensor."""
    base = weights.get(name)
    grad = np.zeros_like(base)
    flat = base.reshape(-1)
    for idx in range(flat.size):
        bumped = flat.copy()
        bumped[idx] = flat[idx] + step
        hi = loss_fn(weights.with_tensor(name, bumped.reshape(base.shape)))
        bumped[idx] = flat[idx] - step
        lo = loss_fn(weights.with_tensor(name, bumped.reshape(base.shape)))
        grad.reshape(-1)[idx] = (hi - lo) / (2.0 * step)
    return grad


def max_rel_err(analytic, numeric, floor=1e-4):
    """Worst relative disagreement; tiny gradients compare absolutely
    against the floor so finite-difference noise cannot dominate."""
    a = np.asarray(analytic).reshape(-1)
    n = np.asarray(numeric).reshape(-1)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    return float((np.abs(a - n) / denom).max())


# ---------------------------------------------------------------------------
# per-frame scoring: the loop that ``report_from_log`` replaced, kept as the
# reference its batched form must reproduce byte for byte


def reference_boxes_overlap(a, b):
    """Separating-axis test on one pair of boxes, one axis at a time."""
    ca, cb = a.corners(), b.corners()
    for box in (a, b):
        c, s = math.cos(box.heading), math.sin(box.heading)
        for axis in ((c, s), (-s, c)):
            pa = ca @ axis
            pb = cb @ axis
            if pa.max() < pb.min() or pb.max() < pa.min():
                return False
    return True


def _reference_ego_headings(points):
    n = len(points)
    headings = np.zeros(n)
    if n == 1:
        x, y = points[0]
        headings[0] = math.atan2(y, x) if (x, y) != (0.0, 0.0) else 0.0
        return headings
    diffs = np.diff(points, axis=0)
    for i, (dx, dy) in enumerate(diffs):
        headings[i] = math.atan2(dy, dx) if (dx, dy) != (0.0, 0.0) else (headings[i - 1] if i else 0.0)
    headings[-1] = headings[-2]
    return headings


def reference_collision_flags(pred, ego_dims, obstacles):
    """Per-waypoint flags from one box-pair test per obstacle and waypoint."""
    length, width = float(ego_dims[0]), float(ego_dims[1])
    headings = _reference_ego_headings(pred.points)
    flags = np.zeros(len(pred), dtype=bool)
    for i, (pt, heading) in enumerate(zip(pred.points, headings)):
        ego_box = ObstacleBox((float(pt[0]), float(pt[1])), float(heading), length, width)
        for obstacle in obstacles:
            box = obstacle if isinstance(obstacle, ObstacleBox) else obstacle[min(i, len(obstacle) - 1)]
            if reference_boxes_overlap(ego_box, box):
                flags[i] = True
                break
    return flags


def reference_report_from_log(log):
    """Every metric of a log, scored frame by frame and waypoint by waypoint."""
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
        flags = reference_collision_flags(
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
# per-candidate proposals and matching: the loops that the (K, N, 2) stack
# replaced, kept as the references the batched forms must reproduce bit for
# bit, RNG stream included


def reference_lateral_normals(points):
    """Unit left normals, one waypoint at a time."""
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


def reference_candidate_queries(trajectories, d_q):
    """One projection per candidate."""
    rows = []
    for traj in trajectories:
        centered = traj.points - traj.points.mean(axis=0)
        flat = centered.reshape(-1)
        rows.append(_query_projection(d_q, flat.size) @ flat)
    return np.asarray(rows)


def reference_propose(gt_future, k, mode_noise, jitter, seed, d_q=32):
    """The fan built candidate by candidate, with one jitter draw each."""
    rng = np.random.default_rng(seed)
    pts = gt_future.points
    n = len(pts)
    normals = reference_lateral_normals(pts)
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
    queries = reference_candidate_queries(candidates, d_q)
    return TrajectorySet(tuple(candidates), scores, queries)


def reference_ttm_select(candidates, history, frame_delta, kind):
    """One ``trajectory_distance`` call per candidate; the first strict
    minimum wins."""
    best_idx = -1
    best_dist = np.inf
    for i, candidate in enumerate(candidates.trajectories):
        d = trajectory_distance(transform_to_frame(candidate, frame_delta), history, kind)
        if d < best_dist:
            best_dist = d
            best_idx = i
    return best_idx


# ---------------------------------------------------------------------------
# per-frame rollout: the loop that the stream and selection passes of
# ``run_closed_loop`` replaced, and the momentum step it took per frame,
# kept as the references they must reproduce byte for byte


def reference_step_momentum(proposals, history, frame_delta, weights, kind):
    """One frame of momentum selection: ``ttm_select`` against the most
    recent chosen plan, then the full ``mpi_forward`` on that candidate's
    query, trajectories included."""
    history = list(history)
    if not history:
        return step_oneshot(proposals), None
    k_star = ttm_select(proposals, history[-1].chosen_trajectory, frame_delta, kind)
    batches = [QueryBatch(f.proposals.queries, f.proposals.scores) for f in history]
    _, refined_scores = mpi_forward(proposals.queries[k_star], batches, proposals.queries, weights)
    return int(np.argmax(refined_scores)), refined_scores


def reference_run_closed_loop(spec, settings, weights=None):
    """The rollout one frame at a time: transform the future, propose,
    perturb the queries, occlude, choose, then step the ego by the chosen
    plan's first waypoint, each frame drawing its own noise in turn."""
    uses_weights = settings.planner == "momentum" and settings.history_depth > 0
    if weights is None and uses_weights:
        weights = WeightBundle.seeded(settings.d_q, settings.k, settings.horizon_steps, settings.weight_seed)
    h, k = settings.horizon_steps, settings.k
    world = np.vstack([[0.0, 0.0], _gen_path(spec, extra_steps=h).points])
    first_dir = world[1] - world[0]
    pose = Pose2.from_heading(math.atan2(first_dir[1], first_dir[0]), (0.0, 0.0))
    rng = np.random.default_rng(spec.seed)
    frames = []
    for j in range(int(round(spec.duration_s / SIM_DT))):
        gt_future = transform_to_frame(Trajectory(world[j + 1 : j + 1 + h], dt=SIM_DT), pose)
        proposals = reference_propose(
            gt_future, k, settings.mode_noise_m, settings.jitter_m, rng, settings.d_q
        )
        queries = perturb_features(proposals.queries, settings.ns, rng)
        occluded = (
            settings.occlusion_start is not None
            and settings.occlusion_start <= j < settings.occlusion_start + settings.occlusion_len
        )
        scores = np.full(k, 1.0 / k) if occluded else proposals.scores
        proposals = TrajectorySet(proposals.trajectories, scores, queries)
        if not uses_weights:
            idx, refined_scores = step_oneshot(proposals), None
        else:
            history = frames[-settings.history_depth :]
            delta = relative_pose(history[-1].ego_pose, pose) if history else Pose2.identity()
            idx, refined_scores = reference_step_momentum(proposals, history, delta, weights, settings.distance)
        frames.append(FrameRecord(j * SIM_DT, pose, proposals, idx, refined_scores))

        step_world = pose.rotation @ proposals.points[idx, 0] + pose.translation
        disp = step_world - pose.translation
        heading = math.atan2(disp[1], disp[0]) if (disp[0], disp[1]) != (0.0, 0.0) else pose.heading()
        pose = Pose2.from_heading(heading, step_world)
    log = ScenarioLog(spec, settings, tuple(frames))
    return log, report_from_log(log)
