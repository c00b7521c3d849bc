"""Shared test harnesses: finite differences for gradient verification, the
reverse pass the analytic gradients must reproduce byte for byte, the
one-trajectory metrics and distances and the one-pose frame operations and
obstacle motion that their batched kernels' one-frame calls must
reproduce, and the per-candidate proposal and matching loops,
the per-frame momentum step and the per-frame rollout and scoring loops
that the batched ``propose``, ``ttm_select``, ``step_momentum``,
``run_closed_loop`` and ``report_from_log`` must reproduce."""

import math

import numpy as np

from momentum_planning.errors import AlignmentError, EmptyInputError, HorizonError, ShapeError
from momentum_planning.interactor import QueryBatch, WeightBundle, mpi_forward, sigmoid, softmax
from momentum_planning.matching import DistanceKind, TrajectorySet, ttm_select
from momentum_planning.metrics import L2Protocol, MetricReport, ObstacleBox
from momentum_planning.simulator import (
    SIM_DT,
    FrameRecord,
    ScenarioLog,
    _gen_path,
    _query_projection,
    perturb_features,
    report_from_log,
    step_oneshot,
)
from momentum_planning.trajectory import (
    OverlapMask,
    Pose2,
    Trajectory,
    overlap_mask,
    resample,
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


def reference_sq_loss_and_grads(selected_query, history, instance_features, weights,
                                activation="identity"):
    """``trajectory_sq_loss_and_grads`` as it was before it skipped the zero
    state's terms and the score head, kept as its byte-identity oracle: every
    history run starts from zero arrays, every gradient is accumulated into a
    ``zeros_like`` tensor, and the forward stages of that version are written
    out here, so the oracle shares no code with what it checks but
    ``sigmoid`` and ``softmax``."""
    w = {name: weights.get(name) for name in weights.names()}
    d = weights.d_q

    def gate_rows(step):
        pre = step.rows @ w["mlp.W"].T + w["mlp.b"]
        act = {"identity": pre, "relu": np.maximum(pre, 0.0), "tanh": np.tanh(pre)}[activation]
        gate = sigmoid(step.scores)[..., None]
        return pre, act, gate, gate * act

    def lstm(x, h, c):
        a = x @ w["lstm.W_ih"].T + h @ w["lstm.W_hh"].T + w["lstm.b"]
        i = sigmoid(a[..., :d])
        f = sigmoid(a[..., d : 2 * d])
        g = np.tanh(a[..., 2 * d : 3 * d])
        o = sigmoid(a[..., 3 * d :])
        c_new = f * c + i * g
        tanh_c = np.tanh(c_new)
        return i, f, g, o, c_new, tanh_c, o * tanh_c

    steps = [history] if isinstance(history, QueryBatch) else list(history)
    h = c = np.zeros((steps[0].k, d))
    mix_tape = []
    for step in steps:
        gate = gate_rows(step)
        cell = lstm(gate[-1], h, c)
        mix_tape.append((step, gate, h, c, cell))
        _, _, _, _, c, _, h = cell
    mixed = h

    q_sel = np.asarray(selected_query, dtype=np.float64).reshape(-1)
    qp = (w["attn.W_q"] @ q_sel[..., None])[..., 0]
    kp = mixed @ w["attn.W_k"].T
    w_att = softmax((kp @ qp[..., None])[..., 0] / math.sqrt(d))
    vp = mixed @ w["attn.W_v"].T
    ctx = (w_att[..., None, :] @ vp)[..., 0, :]
    refined = (w["attn.W_o"] @ ctx[..., None])[..., 0]
    feats = np.asarray(instance_features, dtype=np.float64)
    z = np.concatenate([refined, feats.mean(axis=-2)], axis=-1)
    flat = w["head.W_traj"] @ z + w["head.b_traj"]
    y = flat.reshape(weights.k, weights.n_t, 2).reshape(-1)
    loss = float(y @ y)

    w_ih, w_hh = w["lstm.W_ih"], w["lstm.W_hh"]
    w_k, w_v, w_o = w["attn.W_k"], w["attn.W_v"], w["attn.W_o"]
    grads = {name: np.zeros_like(weights.get(name)) for name in weights.names()}

    dy = 2.0 * y
    grads["head.W_traj"] = np.outer(dy, z)
    grads["head.b_traj"] = dy
    datt = (w["head.W_traj"].T @ dy)[:d]

    grads["attn.W_o"] = np.outer(datt, ctx)
    dctx = w_o.T @ datt
    dw_att = vp @ dctx
    dvp = np.outer(w_att, dctx)
    dlogits = w_att * (dw_att - w_att @ dw_att)
    dqp = (kp.T @ dlogits) / math.sqrt(d)
    dkp = np.outer(dlogits, qp) / math.sqrt(d)
    grads["attn.W_q"] = np.outer(dqp, q_sel)
    grads["attn.W_k"] = dkp.T @ mixed
    grads["attn.W_v"] = dvp.T @ mixed

    dh = dkp @ w_k + dvp @ w_v
    dc = np.zeros_like(dh)
    for step, (pre, act, gate, x), h_prev, c_prev, cell in reversed(mix_tape):
        i, f, g, o, _, tanh_c, _ = cell
        dc = dc + dh * o * (1.0 - tanh_c * tanh_c)
        da = np.concatenate(
            [
                dc * g * i * (1.0 - i),
                dc * c_prev * f * (1.0 - f),
                dc * i * (1.0 - g * g),
                dh * tanh_c * o * (1.0 - o),
            ],
            axis=1,
        )
        grads["lstm.W_ih"] += da.T @ x
        grads["lstm.W_hh"] += da.T @ h_prev
        grads["lstm.b"] += da.sum(axis=0)
        dh = da @ w_hh
        dc = dc * f

        d_act = (da @ w_ih) * gate
        if activation == "relu":
            d_act = d_act * (pre > 0.0)
        elif activation == "tanh":
            d_act = d_act * (1.0 - act * act)
        grads["mlp.W"] += d_act.T @ step.rows
        grads["mlp.b"] += d_act.sum(axis=0)

    return loss, grads


# ---------------------------------------------------------------------------
# the one-pose frame operations as they were written before they became
# one-pose calls of the stacked kernels, kept verbatim as the oracles the
# kernels' rows must reproduce bit for bit


def reference_transform_to_frame(traj, pose):
    moved = (traj.points - pose.translation) @ pose.rotation
    return Trajectory(moved, dt=traj.dt)


def reference_transform_from_frame(traj, pose):
    moved = traj.points @ pose.rotation.T + pose.translation
    return Trajectory(moved, dt=traj.dt)


def reference_relative_pose(world_pose_prev, world_pose_cur):
    r_prev, r_cur = world_pose_prev.rotation, world_pose_cur.rotation
    t_prev, t_cur = world_pose_prev.translation, world_pose_cur.translation
    rot = r_cur.T @ r_prev
    trans = r_cur.T @ (t_prev - t_cur)
    return Pose2(rot, trans)


def reference_at_step(obstacle, step):
    t = step * SIM_DT
    cx, cy = obstacle.box.center
    return ObstacleBox((cx + obstacle.velocity[0] * t, cy + obstacle.velocity[1] * t),
                       obstacle.box.heading, obstacle.box.length, obstacle.box.width)


def outcome(fn, *args):
    """What one call gives: ``("value", result)``, or ``("raises", type)``
    with the exact type of the exception it raised."""
    try:
        return "value", fn(*args)
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return "raises", type(exc)


# ---------------------------------------------------------------------------
# one-trajectory metrics and distances as they were written before they
# became one-frame calls of the batched kernels, kept verbatim as the
# oracles those calls and the batched report must reproduce bit for bit


def _reference_horizon_index(horizon_s, dt, available):
    steps = int(round(horizon_s / dt))
    if steps < 1 or abs(steps * dt - horizon_s) > 1e-9:
        raise HorizonError(f"horizon {horizon_s} s is not a positive multiple of dt={dt}")
    if steps > available:
        raise HorizonError(
            f"horizon {horizon_s} s needs {steps} waypoints, only {available} available"
        )
    return steps - 1


def reference_l2_error(pred, gt, horizons_s, protocol=L2Protocol.AT_TIMESTEP):
    """Displacement error per horizon under the chosen protocol."""
    protocol = L2Protocol(protocol)
    if pred.dt != gt.dt:
        raise AlignmentError(f"dt mismatch: {pred.dt} vs {gt.dt}")
    n = min(len(pred), len(gt))
    d = np.linalg.norm(pred.points[:n] - gt.points[:n], axis=1)
    out = {}
    for h in horizons_s:
        idx = _reference_horizon_index(h, pred.dt, n)
        if protocol is L2Protocol.AT_TIMESTEP:
            out[float(h)] = float(d[idx])
        else:
            out[float(h)] = float(d[: idx + 1].mean())
    return out


def reference_tpc(cur_pred, prev_pred, frame_delta, mask, frame_gap_steps=1):
    """Consistency of consecutive predictions, as RMSE over the overlap."""
    if len(mask) != len(cur_pred):
        raise ShapeError(f"mask length {len(mask)} != prediction length {len(cur_pred)}")
    idx = np.flatnonzero(mask.flags)
    if idx.size == 0:
        return None
    if idx.max() + frame_gap_steps >= len(prev_pred):
        raise AlignmentError("mask selects waypoints beyond the previous horizon")
    moved = reference_transform_to_frame(cur_pred, frame_delta)
    diff = moved.points[idx] - prev_pred.points[idx + frame_gap_steps]
    sq = diff[:, 0] ** 2 + diff[:, 1] ** 2
    return float(math.sqrt(sq.mean()))


def reference_min_ade_fde(candidates, gt):
    """Best average and final displacement over candidates, one candidate
    at a time."""
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


def _reference_points_of(traj):
    pts = traj.points if isinstance(traj, Trajectory) else np.asarray(traj, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ShapeError(f"expected (N, 2) points, got shape {pts.shape}")
    if len(pts) == 0:
        raise EmptyInputError("distance over an empty point set is undefined")
    return pts


def reference_directed_hausdorff(a, b):
    """sup over a of inf over b of the pointwise Euclidean distance."""
    pa, pb = _reference_points_of(a), _reference_points_of(b)
    dx = pa[:, 0][:, None] - pb[:, 0][None, :]
    dy = pa[:, 1][:, None] - pb[:, 1][None, :]
    d = np.sqrt(dx * dx + dy * dy)
    return float(d.min(axis=1).max())


def reference_hausdorff(a, b):
    """Symmetric Hausdorff distance: max of the two directed values."""
    return max(reference_directed_hausdorff(a, b), reference_directed_hausdorff(b, a))


def reference_mean_euclidean(a, b):
    """Mean pointwise distance between two equal-length trajectories."""
    pa, pb = _reference_points_of(a), _reference_points_of(b)
    if len(pa) != len(pb):
        raise AlignmentError(
            f"pointwise mean needs equal lengths, got {len(pa)} and {len(pb)}"
        )
    diff = pa - pb
    return float(np.sqrt(diff[:, 0] ** 2 + diff[:, 1] ** 2).mean())


def reference_trajectory_distance(a, b, kind):
    """Distance dispatch; the pointwise baseline aligns lengths by resampling
    both inputs to the longer one first."""
    kind = DistanceKind(kind)
    if kind is DistanceKind.HAUSDORFF:
        return reference_hausdorff(a, b)
    n = max(len(a), len(b))
    return reference_mean_euclidean(resample(a, n), resample(b, n))


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
    path = _gen_path(log.spec, extra_steps=h)
    tracks = [[reference_at_step(o, step) for step in range(len(path) + 1)] for o in log.spec.obstacles]
    world = np.vstack([[0.0, 0.0], path.points])
    horizons = settings.horizons_s

    l2_acc = {hh: [] for hh in horizons}
    col_acc = {hh: [] for hh in horizons}
    tpc_acc = {hh: [] for hh in horizons}
    ade_acc, fde_acc = [], []

    for j, frame in enumerate(log.frames):
        future_world = Trajectory(world[j + 1 : j + 1 + h], dt=SIM_DT)
        gt_future = reference_transform_to_frame(future_world, frame.ego_pose)
        frame_l2 = reference_l2_error(frame.chosen_trajectory, gt_future, horizons, settings.protocol)
        for hh in horizons:
            l2_acc[hh].append(frame_l2[hh])

        pred_world = reference_transform_from_frame(frame.chosen_trajectory, frame.ego_pose)
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

        ade, fde, _ = reference_min_ade_fde(frame.proposals, gt_future)
        ade_acc.append(ade)
        fde_acc.append(fde)

        if j > 0:
            prev = log.frames[j - 1]
            delta = reference_relative_pose(prev.ego_pose, frame.ego_pose)
            base_mask = overlap_mask(frame.chosen_trajectory, prev.chosen_trajectory, 1)
            for hh in horizons:
                steps = int(round(hh / SIM_DT))
                flags_h = base_mask.flags & (np.arange(len(base_mask)) < steps)
                value = reference_tpc(
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
    """One ``reference_trajectory_distance`` call per candidate; the first
    strict minimum wins."""
    best_idx = -1
    best_dist = np.inf
    for i, candidate in enumerate(candidates.trajectories):
        d = reference_trajectory_distance(reference_transform_to_frame(candidate, frame_delta), history, kind)
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
        gt_future = reference_transform_to_frame(Trajectory(world[j + 1 : j + 1 + h], dt=SIM_DT), pose)
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
            delta = reference_relative_pose(history[-1].ego_pose, pose) if history else Pose2.identity()
            idx, refined_scores = reference_step_momentum(proposals, history, delta, weights, settings.distance)
        frames.append(FrameRecord(j * SIM_DT, pose, proposals, idx, refined_scores))

        step_world = pose.rotation @ proposals.points[idx, 0] + pose.translation
        disp = step_world - pose.translation
        heading = math.atan2(disp[1], disp[0]) if (disp[0], disp[1]) != (0.0, 0.0) else pose.heading()
        pose = Pose2.from_heading(heading, step_world)
    log = ScenarioLog(spec, settings, tuple(frames))
    return log, report_from_log(log)
