import base64
import dataclasses
import hashlib
import importlib
import importlib.util
import json
import logging
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    reference_at_step,
    reference_candidate_queries,
    reference_lateral_normals,
    reference_propose,
    reference_relative_pose,
    reference_report_from_log,
    reference_run_closed_loop,
    reference_step_momentum,
    reference_transform_from_frame,
    reference_transform_to_frame,
)

from momentum_planning.errors import (
    AlignmentError,
    ConfigError,
    GeometryError,
    HorizonError,
    LogCorruptionError,
    ShapeError,
)
from momentum_planning.interactor import WeightBundle, softmax
from momentum_planning.matching import DistanceKind, TrajectorySet
from momentum_planning import simulator
from momentum_planning.simulator import (
    MAX_D_Q,
    MAX_DURATION_S,
    MAX_HORIZON_STEPS,
    MAX_K,
    MAX_SPEED_MPS,
    MIN_RADIUS_M,
    PLANNER_KINDS,
    SCENARIO_KINDS,
    SIM_DT,
    FrameRecord,
    RunSettings,
    ScenarioLog,
    ScenarioSpec,
    ScriptedObstacle,
    _boxes_at,
    _lateral_normals,
    candidate_queries,
    gen_scenario,
    load_log,
    log_to_jsonl,
    perturb_features,
    propose,
    report_from_log,
    run_closed_loop,
    save_log,
    step_momentum,
    step_oneshot,
)
from momentum_planning.metrics import L2Protocol, ObstacleBox, _horizon_index, collision_flags
from momentum_planning.trajectory import (
    Pose2,
    Trajectory,
    _frame_delta,
    _from_frame,
    _to_frame,
    relative_pose,
    trajectory_to_dict,
    transform_from_frame,
    transform_to_frame,
)

DATA = Path(__file__).parent / "data"


def arc_spec(seed=0, duration=4.0, speed=5.0):
    return ScenarioSpec(
        "arc_turn", duration_s=duration, speed_mps=speed, radius_m=20.0,
        angle_rad=math.pi / 2.0, seed=seed,
    )


# ---------------------------------------------------------------------------
# scenario generation


def test_straight_waypoints():
    path, tracks = gen_scenario(ScenarioSpec("straight", 3.0, 10.0))
    assert len(path) == 6
    np.testing.assert_allclose(path.points[:, 0], [5, 10, 15, 20, 25, 30])
    np.testing.assert_array_equal(path.points[:, 1], 0.0)
    assert tracks == []


def test_arc_points_lie_on_circle_within_angle():
    spec = arc_spec()
    path, _ = gen_scenario(spec)
    r = spec.radius_m
    for x, y in path.points:
        s = r * abs(math.atan2(x, r - y))
        if s <= r * spec.angle_rad + 1e-9:
            assert abs(math.hypot(x, y - r) - r) < 1e-9


def test_arc_continues_along_exit_tangent():
    spec = ScenarioSpec("arc_turn", 4.0, 5.0, radius_m=5.0, angle_rad=math.pi / 2.0)
    path, _ = gen_scenario(spec, extra_steps=4)
    # quarter turn at r=5 ends after 7.85 m; later points move along +y
    past = path.points[5:]
    assert np.allclose(past[:, 0], 5.0, atol=1e-9)
    assert np.all(np.diff(past[:, 1]) > 0)


def test_s_curve_switches_turn_direction():
    spec = ScenarioSpec("s_curve", 16.0, 5.0, radius_m=20.0)
    path, _ = gen_scenario(spec)
    world = np.vstack([[0.0, 0.0], path.points])
    segs = np.diff(world, axis=0)
    a, b = segs[:-1], segs[1:]
    crosses = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    mid = len(crosses) // 2
    assert np.all(crosses[: mid - 1] > 0)
    assert np.all(crosses[mid + 1 :] < 0)


def test_s_curve_constant_step_length():
    path, _ = gen_scenario(ScenarioSpec("s_curve", 8.0, 5.0, radius_m=20.0))
    world = np.vstack([[0.0, 0.0], path.points])
    lens = np.linalg.norm(np.diff(world, axis=0), axis=1)
    np.testing.assert_allclose(lens, lens[0], rtol=1e-9)


def test_extra_steps_extend_without_moving_prefix():
    spec = arc_spec()
    short, _ = gen_scenario(spec)
    long, _ = gen_scenario(spec, extra_steps=6)
    assert len(long) == len(short) + 6
    np.testing.assert_array_equal(long.points[: len(short)], short.points)


def test_obstacle_tracks_follow_scripted_velocity():
    obs = ScriptedObstacle(ObstacleBox((10.0, 2.0), 0.0, 4.0, 2.0), velocity=(2.0, -1.0))
    spec = ScenarioSpec("straight", 2.0, 5.0, obstacles=(obs,))
    _, tracks = gen_scenario(spec)
    assert len(tracks) == 1
    box3 = tracks[0][3]
    t = 3 * SIM_DT
    assert box3.center == (10.0 + 2.0 * t, 2.0 - 1.0 * t)
    assert box3.length == 4.0 and box3.width == 2.0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(kind="zigzag", duration_s=1.0, speed_mps=1.0),
        dict(kind="straight", duration_s=0.0, speed_mps=1.0),
        dict(kind="straight", duration_s=1.0, speed_mps=-2.0),
        dict(kind="arc_turn", duration_s=1.0, speed_mps=1.0, radius_m=0.0),
        dict(kind="arc_turn", duration_s=1.0, speed_mps=1.0, angle_rad=0.0),
        dict(kind="straight", duration_s=0.2, speed_mps=1.0),
        dict(kind="arc_turn", duration_s=1.0, speed_mps=1.0, radius_m=math.inf),
        dict(kind="arc_turn", duration_s=1.0, speed_mps=1.0, angle_rad=math.inf),
        dict(kind="straight", duration_s=1.0, speed_mps=1e200),
        dict(kind="straight", duration_s=1.0, speed_mps=MAX_SPEED_MPS + 0.5),
        dict(kind="straight", duration_s=1e6, speed_mps=1.0),
        dict(kind="straight", duration_s=MAX_DURATION_S + 0.5, speed_mps=1.0),
        dict(kind="straight", duration_s=1.0, speed_mps=1.0, seed=-1),
        dict(kind="straight", duration_s=1.0, speed_mps=1.0, seed=True),
        dict(kind="s_curve", duration_s=1.0, speed_mps=1.0, radius_m=1e-320),
        dict(kind="arc_turn", duration_s=1.0, speed_mps=1.0, radius_m=MIN_RADIUS_M / 2),
    ],
)
def test_bad_scenario_spec_rejected(kwargs):
    with pytest.raises(ConfigError):
        ScenarioSpec(**kwargs)


@pytest.mark.parametrize("velocity", [(MAX_SPEED_MPS, 1.0), (1e308, 0.0), (math.nan, 0.0)])
def test_obstacle_speed_is_bounded(velocity):
    with pytest.raises(ConfigError):
        ScriptedObstacle(ObstacleBox((1.0, 2.0), 0.3, 4.0, 2.0), velocity)


def test_scenario_bounds_are_inclusive():
    spec = ScenarioSpec("s_curve", MAX_DURATION_S, MAX_SPEED_MPS)
    path, _ = gen_scenario(spec)
    assert len(path) == int(MAX_DURATION_S / SIM_DT)
    assert np.isfinite(path.points).all()
    tight, _ = gen_scenario(ScenarioSpec("s_curve", 10.0, MAX_SPEED_MPS, radius_m=MIN_RADIUS_M))
    assert np.isfinite(tight.points).all()


def test_size_bounds_are_inclusive():
    # validated only: a rollout this size would hold every frame's stream
    st = RunSettings(k=MAX_K, horizon_steps=MAX_HORIZON_STEPS, d_q=MAX_D_Q)
    assert (st.k, st.horizon_steps, st.d_q) == (MAX_K, MAX_HORIZON_STEPS, MAX_D_Q)
    assert RunSettings.from_dict(st.to_dict()) == st


def test_scenario_spec_dict_round_trip():
    obs = ScriptedObstacle(ObstacleBox((1.0, 2.0), 0.3, 4.0, 2.0), velocity=(0.5, 0.0))
    spec = ScenarioSpec("arc_turn", 4.0, 5.0, radius_m=12.0, angle_rad=1.0,
                        obstacles=(obs,), seed=9)
    assert ScenarioSpec.from_dict(spec.to_dict()) == spec
    with pytest.raises(ConfigError):
        ScenarioSpec.from_dict({"kind": "straight", "duration_s": 1.0, "speed_mps": 1.0, "bogus": 1})


@pytest.mark.parametrize(
    "patch",
    [{"vel": [3.0, 0.0]}, {"center": [0.0, 0.0, 5.0]}, {"velocity": [3.0, 0.0, 1.0]}, {"center": "12"},
     {"velocity": [1.0]}, {"center": 5.0}, {"box": {}}, {"heading": None}],
)
def test_obstacle_records_reject_unknown_keys_and_stray_values(patch):
    rec = {"center": [1.0, 2.0], "heading": 0.3, "length": 4.0, "width": 2.0} | patch
    with pytest.raises(ConfigError):
        ScriptedObstacle.from_dict(rec)
    with pytest.raises(ConfigError):
        ScenarioSpec.from_dict({"kind": "straight", "duration_s": 1.0, "speed_mps": 1.0, "obstacles": [rec]})


def _records():
    box = ObstacleBox((1, -2.5), 3, 4.0, 2)
    obstacles = (ScriptedObstacle(box), ScriptedObstacle(box, velocity=(-0.5, 1)))
    return [
        *obstacles,
        ScenarioSpec("straight", 1, 2),
        ScenarioSpec("arc_turn", 4.0, 5, radius_m=12, angle_rad=-0.0 + 1, obstacles=obstacles, seed=2**64 - 1),
        RunSettings(),
        RunSettings(planner="oneshot", history_depth=0, distance="euclidean", k=3.0, mode_noise_m=1, ns=0,
                    weight_seed=np.int64(5), occlusion_start=2, occlusion_len=1, protocol="uniad",
                    horizons_s=[0.5, 3]),
    ]


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_records_round_trip_through_json_and_equal_direct_calls(record):
    cls = type(record)
    assert cls.from_dict(json.loads(json.dumps(record.to_dict()))) == record
    text = json.dumps(record.to_dict())
    assert json.dumps(cls.from_dict(json.loads(text)).to_dict()) == text


def test_a_config_and_a_direct_call_give_equal_records():
    from_config = RunSettings.from_dict({"mode_noise_m": 1, "ego_width_m": 2.5})
    assert from_config == RunSettings(mode_noise_m=1, ego_width_m=2.5)
    # a number field reads numbers only, in a config and a direct call alike
    for value in ("2.5", True):
        with pytest.raises(ConfigError, match="ego_width_m must be a number"):
            RunSettings.from_dict({"ego_width_m": value})
        with pytest.raises(ConfigError, match="ego_width_m must be a number"):
            RunSettings(ego_width_m=value)
    assert RunSettings(mode_noise_m=1).to_dict()["mode_noise_m"] == 1.0
    assert type(RunSettings(ns=0).ns) is float
    spec = ScenarioSpec.from_dict({"kind": "arc_turn", "duration_s": 2, "speed_mps": 5})
    assert spec == ScenarioSpec("arc_turn", 2.0, 5.0)
    assert (spec.radius_m, spec.angle_rad, spec.obstacles, spec.seed) == (20.0, math.pi / 2.0, (), 0)
    rec = {"center": [1, 2], "heading": 0, "length": 4, "width": 2}
    obstacle = ScriptedObstacle(ObstacleBox((1.0, 2.0), 0.0, 4.0, 2.0))
    assert ScriptedObstacle.from_dict(rec) == obstacle
    assert ScenarioSpec("straight", 1.0, 1.0, obstacles=[rec]).obstacles == (obstacle,)


# ---------------------------------------------------------------------------
# settings


def test_settings_round_trip_and_defaults():
    st = RunSettings()
    assert st.planner == "momentum" and st.history_depth == 1
    assert st.distance is DistanceKind.HAUSDORFF
    assert RunSettings.from_dict(st.to_dict()) == st
    assert RunSettings.from_dict({}) == st
    assert RunSettings.from_dict({"planner": "oneshot"}).planner == "oneshot"


@pytest.mark.parametrize(
    "patch",
    [
        {"planner": "greedy"},
        {"history_depth": 3},
        {"k": 0},
        {"horizon_steps": 1},
        {"mode_noise_m": -0.1},
        {"ns": -1.0},
        {"horizons_s": (0.7,)},
        {"horizons_s": (4.0,)},
        {"horizons_s": ()},
        {"ego_length_m": 0.0},
        {"nonsense": 1},
        {"horizons_s": "12"},
        {"k": 2.5},
        {"history_depth": True},
        {"horizon_steps": 6.5},
        {"d_q": "32"},
        {"weight_seed": -1},
        {"weight_seed": 0.5},
        {"occlusion_start": -1},
        {"occlusion_start": 1.5},
        {"occlusion_len": True},
        {"ego_width_m": math.inf},
        {"horizons_s": (1e308,)},
        {"horizons_s": (math.nan,)},
    ],
)
def test_bad_settings_rejected(patch):
    with pytest.raises(ConfigError):
        RunSettings.from_dict(RunSettings().to_dict() | patch)


def test_settings_check_horizons_by_the_metrics_rule():
    # RunSettings accepts exactly the horizons the metrics accept on its
    # plan length, and reports the others as a ConfigError
    for steps in (2, 6):
        for h in (0.5, 1.0, 1.0 + 5e-10, 1.0 + 2e-9, 1.25, 2.5, 3.0, 3.5, 0.0, -1.0, math.inf, math.nan, 1e308):
            try:
                _horizon_index(h, SIM_DT, steps)
            except HorizonError:
                with pytest.raises(ConfigError) as info:
                    RunSettings(horizon_steps=steps, horizons_s=(h,))
                assert isinstance(info.value.__cause__, HorizonError)
            else:
                assert RunSettings(horizon_steps=steps, horizons_s=(h,)).horizons_s == (h,)


def test_integral_float_settings_become_ints():
    st = RunSettings.from_dict({"k": 4.0, "occlusion_start": 2.0, "weight_seed": np.int64(3)})
    assert (st.k, st.occlusion_start, st.weight_seed) == (4, 2, 3)
    assert all(type(v) is int for v in (st.k, st.occlusion_start, st.weight_seed))


# ---------------------------------------------------------------------------
# proposals


def gt_line(n=6, dt=SIM_DT):
    xs = np.arange(1, n + 1, dtype=float) * 2.5
    return Trajectory(np.column_stack([xs, np.zeros(n)]), dt=dt)


def test_propose_candidates_share_first_waypoint():
    out = propose(gt_line(), k=6, mode_noise=1.0, jitter=0.3, seed=4)
    first = out.trajectories[0].points[0]
    for traj in out.trajectories[1:]:
        np.testing.assert_array_equal(traj.points[0], first)


def test_propose_zero_noise_reproduces_future_exactly():
    gt = gt_line()
    out = propose(gt, k=5, mode_noise=0.0, jitter=0.0, seed=11)
    for traj in out.trajectories:
        np.testing.assert_array_equal(traj.points, gt.points)
    np.testing.assert_allclose(out.scores, 0.2)


def test_propose_mode_offsets_ramp_laterally():
    gt = gt_line()
    out = propose(gt, k=3, mode_noise=2.0, jitter=0.0, seed=0)
    # straight path along +x: lateral direction is +y, ramp is linear
    offsets = [t.points[:, 1] for t in out.trajectories]
    ramp = np.arange(6) / 5.0
    np.testing.assert_allclose(offsets[0], -2.0 * ramp, atol=1e-12)
    np.testing.assert_allclose(offsets[1], 0.0, atol=1e-12)
    np.testing.assert_allclose(offsets[2], 2.0 * ramp, atol=1e-12)


def test_propose_scores_form_distribution():
    out = propose(gt_line(), k=6, mode_noise=1.0, jitter=0.3, seed=2)
    assert out.scores.shape == (6,)
    assert np.all(out.scores > 0)
    assert abs(out.scores.sum() - 1.0) < 1e-12
    assert out.queries.shape == (6, 32)


def test_propose_deterministic_for_seed():
    a = propose(gt_line(), 4, 1.0, 0.3, seed=33, d_q=8)
    b = propose(gt_line(), 4, 1.0, 0.3, seed=33, d_q=8)
    np.testing.assert_array_equal(a.scores, b.scores)
    np.testing.assert_array_equal(a.queries, b.queries)
    for x, y in zip(a.trajectories, b.trajectories):
        np.testing.assert_array_equal(x.points, y.points)


def test_propose_jitter_matches_requested_std():
    gt = gt_line()
    sigma = 0.3
    tail, first = [], []
    for seed in range(400):
        out = propose(gt, k=1, mode_noise=0.0, jitter=sigma, seed=seed)
        resid = out.trajectories[0].points - gt.points
        first.append(resid[0])
        tail.append(resid[1:])
    tail_std = np.concatenate(tail).ravel().std()
    first_std = np.asarray(first).ravel().std()
    assert abs(tail_std - sigma) < 0.05 * sigma
    assert abs(first_std - sigma) < 0.1 * sigma


@pytest.mark.parametrize("mode_noise, jitter", [(-0.1, 0.3), (1.0, -0.3), (math.nan, 0.3)])
def test_propose_rejects_negative_noise_scales(mode_noise, jitter):
    with pytest.raises(ValueError):
        propose(gt_line(), 6, mode_noise, jitter, seed=0)


def test_perturb_features_zero_scale_is_identity():
    x = np.random.default_rng(0).normal(size=(5, 7))
    out = perturb_features(x, 0.0, seed=3)
    np.testing.assert_array_equal(out, x)


def test_perturb_features_rejects_negative_scale():
    with pytest.raises(ValueError):
        perturb_features(np.zeros(3), -0.5, seed=0)


def test_perturb_features_noise_scale():
    x = np.zeros((200, 50))
    out = perturb_features(x, 0.1, seed=1)
    assert abs(out.std() - 0.1) < 0.005


@st.composite
def futures(draw, min_len=2, max_len=10):
    """A ground-truth future whose waypoints may repeat, so that some of its
    segments have zero length (the first one included)."""
    n = draw(st.integers(min_len, max_len))
    coord = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)
    rows = [draw(st.tuples(coord, coord))]
    for _ in range(n - 1):
        rows.append(rows[-1] if draw(st.booleans()) else draw(st.tuples(coord, coord)))
    return Trajectory(np.asarray(rows, dtype=np.float64), dt=SIM_DT)


@settings(max_examples=200, deadline=None)
@given(futures(min_len=1))
def test_lateral_normals_match_per_waypoint_reference(gt):
    assert _lateral_normals(gt.points).tobytes() == reference_lateral_normals(gt.points).tobytes()


@settings(max_examples=100, deadline=None)
@given(st.lists(futures(min_len=5, max_len=5), min_size=1, max_size=6))
def test_stacked_lateral_normals_match_per_waypoint_reference(futures_):
    stack = np.stack([gt.points for gt in futures_])
    expected = np.stack([reference_lateral_normals(gt.points) for gt in futures_])
    assert _lateral_normals(stack).tobytes() == expected.tobytes()


@settings(max_examples=300, deadline=None)
@given(
    futures(),
    st.integers(1, 8),
    st.sampled_from([0.0, 0.5, 1.0, 3.0]),
    st.sampled_from([0.0, 0.1, 0.3]),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1, 4, 32]),
)
def test_batched_propose_matches_per_candidate_reference(gt, k, mode_noise, jitter, seed, d_q):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    out = propose(gt, k, mode_noise, jitter, rng, d_q)
    ref = reference_propose(gt, k, mode_noise, jitter, ref_rng, d_q)
    assert out.points.shape == (k, len(gt), 2)
    ref_points = np.stack([t.points for t in ref.trajectories])
    assert out.points.tobytes() == ref_points.tobytes()
    assert out.scores.tobytes() == ref.scores.tobytes()
    assert out.queries.tobytes() == ref.queries.tobytes()
    assert out.dt == ref.trajectories[0].dt
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@settings(max_examples=100, deadline=None)
@given(st.lists(futures(min_len=4, max_len=4), min_size=1, max_size=8), st.sampled_from([3, 16]))
def test_stacked_queries_match_per_row_reference(trajs, d_q):
    stacked = candidate_queries(np.stack([t.points for t in trajs]), d_q)
    assert stacked.tobytes() == reference_candidate_queries(trajs, d_q).tobytes()


def test_candidate_queries_translation_invariant():
    gt = gt_line()
    q1 = candidate_queries(gt.points[None], d_q=16)
    shifted = Trajectory(gt.points + np.array([13.0, -4.0]), dt=gt.dt)
    q2 = candidate_queries(shifted.points[None], d_q=16)
    np.testing.assert_allclose(q1, q2, atol=1e-9)


# ---------------------------------------------------------------------------
# planners


def make_set(points_list, scores, d_q=8):
    trajs = tuple(Trajectory(p, dt=SIM_DT) for p in points_list)
    queries = candidate_queries(np.stack([t.points for t in trajs]), d_q)
    return TrajectorySet(trajs, np.asarray(scores, float), queries)


def test_oneshot_takes_argmax_lowest_on_tie():
    pts = np.column_stack([np.arange(1.0, 7.0), np.zeros(6)])
    ts = make_set([pts, pts + 0.1, pts + 0.2], [0.2, 0.5, 0.5])
    assert step_oneshot(ts) == 1


def test_momentum_without_history_is_oneshot():
    pts = np.column_stack([np.arange(1.0, 7.0), np.zeros(6)])
    ts = make_set([pts, pts + 1.0], [0.4, 0.6])
    w = WeightBundle.seeded(8, 2, 6, seed=0)
    idx, refined_scores = step_momentum(ts, [], Pose2.identity(), w)
    assert idx == step_oneshot(ts)
    assert refined_scores is None


def frame_for(ts, chosen):
    return FrameRecord(time_s=0.0, ego_pose=Pose2.identity(), proposals=ts, chosen_index=chosen)


def test_momentum_zero_weights_score_tie_picks_first():
    pts = np.column_stack([np.arange(1.0, 7.0), np.zeros(6)])
    ts = make_set([pts, pts + 0.5], [0.1, 0.9])
    w = WeightBundle.seeded(8, 2, 6, seed=0)
    zero = w
    for name in w.names():
        zero = zero.with_tensor(name, np.zeros_like(w.get(name)))
    idx, refined_scores = step_momentum(ts, [frame_for(ts, 0)], Pose2.identity(), zero)
    assert idx == 0
    assert refined_scores.shape == (2,)
    np.testing.assert_array_equal(refined_scores, 0.0)


def test_momentum_holds_mode_through_score_flip():
    # Frame 1 committed to a straight candidate.  In frame 2 the raw scores
    # prefer a swerving candidate; the refinement keeps the consistent one.
    rng = np.random.default_rng(5)
    straight = np.column_stack([np.arange(1.0, 7.0) * 2.5, np.zeros(6)])
    swerve = straight + np.column_stack([np.zeros(6), np.arange(6.0) * 1.5])
    w = WeightBundle.seeded(8, 2, 6, seed=1)

    prev = make_set([straight, swerve], [0.9, 0.1])
    history = [frame_for(prev, 0)]

    # refined scores depend on the candidate set, not its ordering, so the
    # argmax index can be read off a probe set and the consistent candidate
    # placed there
    probe = make_set([straight + rng.normal(0, 0.05, straight.shape), swerve],
                     [0.2, 0.8])
    probe_idx, probe_scores = step_momentum(probe, history, Pose2.identity(), w)
    assert probe_idx == int(np.argmax(probe_scores))
    order = [0, 1] if probe_idx == 0 else [1, 0]

    cands = [None, None]
    cands[order[0]] = probe.trajectories[0].points
    cands[order[1]] = probe.trajectories[1].points
    scores = [0.0, 0.0]
    scores[order[0]], scores[order[1]] = 0.2, 0.8
    cur = make_set(cands, scores)

    assert step_oneshot(cur) == order[1]
    idx, _ = step_momentum(cur, history, Pose2.identity(), w)
    assert idx == order[0]
    np.testing.assert_array_equal(
        cur.trajectories[idx].points, probe.trajectories[0].points
    )


@st.composite
def momentum_steps(draw):
    """One momentum step: K 1-8 candidates of 2-10 waypoints, 1-3 history
    frames whose plans may have another length, either distance, and a
    drawn frame delta."""
    k, n, d = draw(st.integers(1, 8)), draw(st.integers(2, 10)), draw(st.integers(1, 16))
    m = draw(st.integers(2, 10)) if draw(st.booleans()) else n
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def proposals(length):
        pts = np.cumsum(rng.normal(1.0, 0.5, (k, length, 2)), axis=1)
        # exact duplicates make distance ties
        pts[rng.integers(0, k)] = pts[rng.integers(0, k)]
        return TrajectorySet.from_points(pts, softmax(rng.normal(size=k)), rng.normal(size=(k, d)), dt=SIM_DT)

    history = [
        FrameRecord(0.0, Pose2.identity(), proposals(m), int(rng.integers(0, k)))
        for _ in range(draw(st.integers(1, 3)))
    ]
    delta = Pose2.from_heading(float(rng.uniform(-math.pi, math.pi)), rng.normal(0.0, 2.0, 2))
    weights = WeightBundle.seeded(d, k, n, seed=draw(st.integers(0, 3)))
    return proposals(n), history, delta, weights, draw(st.sampled_from(list(DistanceKind)))


@settings(max_examples=80, deadline=None)
@given(momentum_steps())
def test_momentum_step_matches_per_frame_reference(step):
    idx, refined = step_momentum(*step)
    ref_idx, ref_refined = reference_step_momentum(*step)
    assert idx == ref_idx
    assert refined.tobytes() == ref_refined.tobytes()


def test_candidate_moved_out_of_range_raises_geometry_error():
    line = np.column_stack([np.arange(1.0, 7.0), np.zeros(6)])
    cands = TrajectorySet.from_points(np.stack([line + (1e308, 0.0), line]), [0.5, 0.5], np.zeros((2, 8)))
    history = [frame_for(make_set([line, line + 1.0], [0.5, 0.5]), 0)]
    delta = Pose2(np.eye(2), np.array([-1e308, 0.0]))
    w = WeightBundle.seeded(8, 2, 6, seed=0)
    for step in (step_momentum, reference_step_momentum):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(GeometryError):
            step(cands, history, delta, w, DistanceKind.HAUSDORFF)


# ---------------------------------------------------------------------------
# closed loop


def test_zero_noise_run_tracks_path_exactly():
    spec = arc_spec()
    st = RunSettings(planner="oneshot", history_depth=0,
                     mode_noise_m=0.0, jitter_m=0.0, ns=0.0)
    log, report = run_closed_loop(spec, st)
    assert len(log.frames) == 8
    path, _ = gen_scenario(spec, extra_steps=st.horizon_steps)
    world = np.vstack([[0.0, 0.0], path.points])
    for j, frame in enumerate(log.frames):
        np.testing.assert_allclose(frame.ego_pose.translation, world[j], atol=1e-9)
    for h in st.horizons_s:
        assert report.l2[h] < 1e-9
        assert report.tpc[h] < 1e-9
        assert report.collision_rate[h] == 0.0
    assert report.min_ade < 1e-9 and report.min_fde < 1e-9


def test_ego_path_does_not_depend_on_planner():
    spec = arc_spec(seed=3)
    log_m, _ = run_closed_loop(spec, RunSettings(planner="momentum", history_depth=1))
    log_o, _ = run_closed_loop(spec, RunSettings(planner="oneshot", history_depth=0))
    for a, b in zip(log_m.frames, log_o.frames):
        np.testing.assert_array_equal(a.ego_pose.translation, b.ego_pose.translation)
        np.testing.assert_array_equal(a.proposals.queries, b.proposals.queries)
        np.testing.assert_array_equal(a.proposals.scores, b.proposals.scores)


def test_depth_zero_momentum_log_matches_oneshot_bytes():
    spec = arc_spec(seed=5)
    log_m, _ = run_closed_loop(spec, RunSettings(planner="momentum", history_depth=0))
    log_o, _ = run_closed_loop(spec, RunSettings(planner="oneshot", history_depth=0))
    frames_m = log_to_jsonl(log_m).splitlines()[1:]
    frames_o = log_to_jsonl(log_o).splitlines()[1:]
    assert frames_m == frames_o


def test_run_is_deterministic_to_the_byte():
    spec = arc_spec(seed=8)
    st = RunSettings(planner="momentum", history_depth=2)
    log1, _ = run_closed_loop(spec, st)
    log2, _ = run_closed_loop(spec, st)
    assert log_to_jsonl(log1) == log_to_jsonl(log2)


def test_momentum_frames_carry_refined_scores():
    log, _ = run_closed_loop(arc_spec(), RunSettings(planner="momentum", history_depth=1))
    assert log.frames[0].refined_scores is None
    for frame in log.frames[1:]:
        assert frame.refined_scores is not None
        assert frame.refined_scores.shape == (6,)


def test_blocking_obstacle_registers_collision():
    obs = ScriptedObstacle(ObstacleBox((10.0, 0.0), 0.0, 2.0, 2.0))
    spec = ScenarioSpec("straight", 2.0, 5.0, obstacles=(obs,), seed=0)
    st = RunSettings(planner="oneshot", history_depth=0,
                     mode_noise_m=0.0, jitter_m=0.0, ns=0.0)
    _, report = run_closed_loop(spec, st)
    assert report.collision_rate[3.0] > 0.0
    far = ScenarioSpec("straight", 2.0, 5.0,
                       obstacles=(ScriptedObstacle(ObstacleBox((10.0, 50.0), 0.0, 2.0, 2.0)),),
                       seed=0)
    _, clean = run_closed_loop(far, st)
    for h in st.horizons_s:
        assert clean.collision_rate[h] == 0.0


def _golden_collision_scenes():
    """48 one-shot obstacle scenes: each path kind with a box parked near
    the path, a box crossing it, boxes far from it, and all three."""
    scenes = []
    for i in range(48):
        kind = ("straight", "arc_turn", "s_curve")[i % 3]
        role = ("parked", "moving", "clear", "mixed")[(i // 3) % 4]
        rng = np.random.default_rng([12, i])
        spec = ScenarioSpec(kind, 4.0, float(rng.uniform(4.0, 8.0)), float(rng.uniform(20.0, 40.0)),
                            float(rng.uniform(math.pi / 4.0, math.pi / 2.0)), seed=i)
        path = gen_scenario(spec, extra_steps=6)[0].points
        tangent = path[1:] - path[:-1]
        normal = np.stack([-tangent[:, 1], tangent[:, 0]], axis=-1) / np.linalg.norm(tangent, axis=-1)[:, None]
        boxes = []
        if role in ("parked", "mixed"):
            p = int(rng.integers(2, 9))
            center = path[p] + float(rng.uniform(-2.5, 2.5)) * normal[p]
            heading = math.atan2(tangent[p, 1], tangent[p, 0]) + float(rng.uniform(-0.3, 0.3))
            boxes.append(ScriptedObstacle(ObstacleBox(tuple(center), heading, 4.5, 1.8)))
        if role in ("moving", "mixed"):
            p = int(rng.integers(3, 10))
            offset = float(rng.choice([-1.0, 1.0]) * rng.uniform(5.0, 9.0))
            velocity = -offset * float(rng.uniform(0.7, 1.3)) / (p * SIM_DT) * normal[p]
            boxes.append(ScriptedObstacle(ObstacleBox(tuple(path[p] + offset * normal[p]),
                                                      float(rng.uniform(-math.pi, math.pi)), 4.0, 1.8),
                                          tuple(velocity)))
        if role in ("clear", "mixed"):
            p = int(rng.integers(0, len(normal)))
            center = path[p] + float(rng.choice([-1.0, 1.0]) * rng.uniform(25.0, 35.0)) * normal[p]
            boxes.append(ScriptedObstacle(ObstacleBox(tuple(center), float(rng.uniform(-math.pi, math.pi)), 4.0, 1.8),
                                          tuple(rng.uniform(-0.5, 0.5, 2))))
        scenes.append(dataclasses.replace(spec, obstacles=tuple(boxes)))
    return scenes


def test_golden_collision_digest():
    # pinned on the corner-projection kernel the closed form replaced; the
    # collision rows and per-waypoint flags depend on no float bits other
    # than the flags', so the digest holds on any platform
    settings_ = RunSettings(planner="oneshot", history_depth=0)
    rows, flags, colliding = [], [], 0
    for spec in _golden_collision_scenes():
        log, report = run_closed_loop(spec, settings_)
        rows += [line for line in report.to_csv_text().splitlines() if line.startswith("collision_rate,")]
        colliding += max(report.collision_rate.values()) > 0.0
        for j, frame in enumerate(log.frames):
            world = frame.chosen_trajectory.points @ frame.ego_pose.rotation.T + frame.ego_pose.translation
            tracks = [[o.at_step(j + 1 + i) for i in range(len(world))] for o in spec.obstacles]
            flags.append(collision_flags(Trajectory(world, dt=SIM_DT), (4.0, 2.0), tracks))
    digest = hashlib.sha1("\n".join(rows).encode() + np.packbits(np.concatenate(flags)).tobytes())
    assert (len(rows), colliding) == (144, 35)
    assert digest.hexdigest() == "b044d1637162242191ecf4b21296a40dcaabeff2"


def test_occlusion_window_flattens_scores():
    st = RunSettings(planner="oneshot", history_depth=0,
                     occlusion_start=2, occlusion_len=3)
    log, _ = run_closed_loop(arc_spec(seed=1), st)
    for j, frame in enumerate(log.frames):
        if 2 <= j < 5:
            np.testing.assert_allclose(frame.proposals.scores, 1.0 / 6.0)
            assert frame.chosen_index == 0
        else:
            assert frame.proposals.scores.max() - frame.proposals.scores.min() > 1e-9


def test_momentum_beats_oneshot_on_turn_consistency():
    wins = 0
    for seed in range(12):
        spec = arc_spec(seed=seed)
        _, rm = run_closed_loop(spec, RunSettings(planner="momentum", history_depth=1))
        _, ro = run_closed_loop(spec, RunSettings(planner="oneshot", history_depth=0))
        wins += rm.tpc[3.0] < ro.tpc[3.0]
    assert wins >= 9


def _reference_cases(kind):
    """Settings for the rollout oracle: the smallest sizes with every noise
    at 0, occlusion windows at the start, middle and past the end, and
    drawn sizes, noises and distances; each under one-shot and momentum at
    depths 0-2."""
    rng = np.random.default_rng([SCENARIO_KINDS.index(kind), 9])
    bases = [
        dict(k=1, horizon_steps=2, jitter_m=0.0, mode_noise_m=0.0, ns=0.0, horizons_s=(0.5, 1.0)),
        dict(k=2, horizon_steps=2, jitter_m=0.0, horizons_s=(1.0,), occlusion_start=0, occlusion_len=2),
        dict(mode_noise_m=0.0, ns=0.0, occlusion_start=3, occlusion_len=2),
        dict(occlusion_start=7, occlusion_len=9),
    ]
    for _ in range(3):
        h = int(rng.integers(2, MAX_HORIZON_STEPS + 1))
        bases.append(dict(
            k=int(rng.integers(1, MAX_K + 1)), horizon_steps=h, d_q=int(rng.integers(1, 40)),
            jitter_m=float(rng.uniform(0.0, 0.6)), mode_noise_m=float(rng.uniform(0.0, 2.0)),
            ns=float(rng.uniform(0.0, 0.3)), horizons_s=(0.5 * h,), weight_seed=int(rng.integers(0, 5)),
            distance=str(rng.choice(["hausdorff", "euclidean"])),
        ))
    runs = [("oneshot", 0)] + [("momentum", depth) for depth in (0, 1, 2)]
    return [RunSettings(planner=p, history_depth=d, **base) for base in bases for p, d in runs]


@pytest.mark.parametrize("kind", SCENARIO_KINDS)
def test_rollout_matches_per_frame_reference(kind):
    obstacle = ScriptedObstacle(ObstacleBox((12.0, 1.0), 0.4, 4.0, 2.0), (-1.0, 0.5))
    spec = ScenarioSpec(kind, 4.0, 6.0, radius_m=15.0, obstacles=(obstacle,), seed=11)
    one_frame = dataclasses.replace(spec, duration_s=SIM_DT)
    for scene in (spec, one_frame):
        logs = {}
        for st_ in _reference_cases(kind):
            log, report = run_closed_loop(scene, st_)
            ref_log, ref_report = reference_run_closed_loop(scene, st_)
            assert log_to_jsonl(log) == log_to_jsonl(ref_log), st_
            assert [f.chosen_index for f in log.frames] == [f.chosen_index for f in ref_log.frames]
            assert report.to_csv_text() == ref_report.to_csv_text()
            logs[st_] = log_to_jsonl(log).split("\n", 1)[1]
        # depth 2 mixes a frame that depth 1 does not once a frame has two
        # before it, so their frames differ on the long scene only
        for st_ in logs:
            if st_.planner == "momentum" and st_.history_depth == 1:
                deeper = logs[dataclasses.replace(st_, history_depth=2)]
                assert (logs[st_] != deeper) == (scene is spec)


def test_rollout_matches_per_frame_reference_where_ttm_decides(monkeypatch):
    # peaky attention over 2-wide queries and a score head that reads only
    # the refined query make the refined argmax depend on TTM's pick, so a
    # previous frame's choice has more than one possible value
    w = WeightBundle.seeded(2, 6, 6, seed=1)
    w = w.with_tensor("attn.W_q", 30.0 * w.get("attn.W_q")).with_tensor("attn.W_k", 30.0 * w.get("attn.W_k"))
    head = w.get("head.W_score").copy()
    head[:, 2:] = 0.0
    w = w.with_tensor("head.W_score", head).with_tensor("head.b_score", np.zeros(6))
    widths = []
    pair_distances = simulator._pair_distances

    def record(moved, plans, kind):
        widths.append(plans.shape[1])
        return pair_distances(moved, plans, kind)

    monkeypatch.setattr(simulator, "_pair_distances", record)
    for kind in SCENARIO_KINDS:
        spec = ScenarioSpec(kind, 4.0, 6.0, radius_m=15.0, seed=0)
        for depth in (1, 2):
            for distance in DistanceKind:
                st_ = RunSettings(planner="momentum", history_depth=depth, distance=distance, d_q=2,
                                  mode_noise_m=4.0, ns=1.0)
                log, report = run_closed_loop(spec, st_, weights=w)
                ref_log, ref_report = reference_run_closed_loop(spec, st_, weights=w)
                assert log_to_jsonl(log) == log_to_jsonl(ref_log), st_
                assert report.to_csv_text() == ref_report.to_csv_text()
    assert max(widths) > 1


def test_rollouts_with_equal_settings_share_one_weight_bundle(monkeypatch):
    # the selection pass receives the bundle once per momentum rollout
    seen = []
    choose = simulator._choose_momentum

    def record(stream, settings_, weights):
        seen.append(weights)
        return choose(stream, settings_, weights)

    monkeypatch.setattr(simulator, "_choose_momentum", record)
    st_ = RunSettings(planner="momentum", history_depth=2, weight_seed=3)
    run_closed_loop(arc_spec(seed=1), st_)
    run_closed_loop(arc_spec(seed=2), st_)
    assert len(seen) == 2
    assert all(w is seen[0] for w in seen)
    run_closed_loop(arc_spec(seed=1), dataclasses.replace(st_, weight_seed=4))
    assert seen[-1] is not seen[0]


def test_momentum_selection_holds_one_block_at_the_size_bounds():
    # at the size bounds a block is one frame, and the selection pass holds
    # no more than one budget's worth beyond the stream that one-shot holds
    # too; without blocks it would hold every frame's cell pre-activations
    # and distances at once, 4.8 MB over these twenty frames
    spec = arc_spec(duration=10.0)
    bounds = dict(k=MAX_K, horizon_steps=MAX_HORIZON_STEPS, d_q=MAX_D_Q, horizons_s=(1.0,))

    def peak(st_):
        run_closed_loop(spec, st_)  # weights and query projection are cached from here on
        simulator._last_stream = None  # the stream is not: the rollout builds it again
        tracemalloc.start()
        try:
            run_closed_loop(spec, st_)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    oneshot = peak(RunSettings(planner="oneshot", history_depth=0, **bounds))
    for distance in DistanceKind:
        momentum = peak(RunSettings(planner="momentum", history_depth=2, distance=distance, **bounds))
        assert momentum - oneshot <= 8 * simulator._SELECT_BLOCK_ELEMENTS


@pytest.mark.parametrize("kind", SCENARIO_KINDS)
def test_obstacle_free_log_scores_without_the_collision_kernel(monkeypatch, kind):
    spec = ScenarioSpec(kind, 4.0, 6.0, seed=3)
    log, _ = run_closed_loop(spec, RunSettings(planner="oneshot", history_depth=0))
    blocked = ScenarioSpec(kind, 4.0, 6.0, obstacles=(ScriptedObstacle(ObstacleBox((8.0, 0.0), 0.0, 2.0, 2.0)),),
                           seed=3)
    blocked_log = ScenarioLog(blocked, log.settings, log.frames)

    def refuse(*args, **kwargs):
        raise AssertionError("collision kernel run for a scene without obstacles")

    monkeypatch.setattr(simulator, "_swept_hits", refuse)
    assert report_from_log(log).to_csv_text() == reference_report_from_log(log).to_csv_text()
    with pytest.raises(AssertionError):
        report_from_log(blocked_log)


@pytest.mark.parametrize("planner,depth", [("oneshot", 0), ("momentum", 0)])
def test_rollouts_that_never_refine_build_no_weights(monkeypatch, planner, depth):
    spec = arc_spec(seed=6)
    st_ = RunSettings(planner=planner, history_depth=depth)
    expected = log_to_jsonl(run_closed_loop(spec, st_)[0])

    def refuse(*args, **kwargs):
        raise AssertionError("weights built for a rollout that never reads them")

    monkeypatch.setattr(WeightBundle, "seeded", staticmethod(refuse))
    log, _ = run_closed_loop(spec, st_)
    assert log_to_jsonl(log) == expected
    with pytest.raises(AssertionError):
        run_closed_loop(spec, RunSettings(planner="momentum", history_depth=1))


@pytest.mark.parametrize("planner,depth", [("oneshot", 0), ("momentum", 0), ("momentum", 2)])
def test_mismatched_weights_rejected_for_every_planner(planner, depth):
    w = WeightBundle.seeded(8, 6, 6, seed=0)
    with pytest.raises(ConfigError):
        run_closed_loop(arc_spec(), RunSettings(planner=planner, history_depth=depth), weights=w)


def test_mismatched_weights_rejected():
    w = WeightBundle.seeded(8, 6, 6, seed=0)
    with pytest.raises(ConfigError):
        run_closed_loop(arc_spec(), RunSettings(), weights=w)


# ---------------------------------------------------------------------------
# one stream, many planners


def _cold(spec, st_):
    """A rollout that builds its stream, none being kept."""
    simulator._last_stream = None
    return run_closed_loop(spec, st_)


def _same_run(a, b) -> bool:
    (log_a, rep_a), (log_b, rep_b) = a, b
    return log_to_jsonl(log_a) == log_to_jsonl(log_b) and rep_a.to_csv_text() == rep_b.to_csv_text()


STREAM_SPEC = ScenarioSpec(
    "s_curve", 3.0, 6.0, radius_m=18.0, angle_rad=1.0,
    obstacles=(ScriptedObstacle(ObstacleBox((9.0, 1.5), 0.2, 4.0, 2.0), (-0.5, 0.0)),), seed=4,
)
STREAM_SETTINGS = RunSettings(planner="momentum", history_depth=2, occlusion_start=1, occlusion_len=2)

# one changed value for every input the stream pass reads ...
STREAM_INPUTS = [
    ("spec", "kind", "arc_turn"),
    ("spec", "duration_s", 3.5),
    ("spec", "speed_mps", 6.5),
    ("spec", "radius_m", 19.0),
    ("spec", "angle_rad", 1.2),
    ("spec", "seed", 5),
    ("settings", "k", 5),
    ("settings", "horizon_steps", 7),
    ("settings", "d_q", 16),
    ("settings", "mode_noise_m", 0.9),
    ("settings", "jitter_m", 0.2),
    ("settings", "ns", 0.2),
    ("settings", "occlusion_start", 2),
    ("settings", "occlusion_len", 1),
]
# ... and for every input only the planner or the scoring reads
CHOICE_INPUTS = [
    ("spec", "obstacles", ()),
    ("settings", "planner", "oneshot"),
    ("settings", "history_depth", 1),
    ("settings", "distance", DistanceKind.MEAN_EUCLIDEAN),
    ("settings", "weight_seed", 3),
    ("settings", "protocol", L2Protocol.AVERAGED_UP_TO),
    ("settings", "horizons_s", (1.0, 2.5)),
    ("settings", "ego_length_m", 4.5),
    ("settings", "ego_width_m", 1.8),
]


def _changed(part, name, value):
    if part == "spec":
        return dataclasses.replace(STREAM_SPEC, **{name: value}), STREAM_SETTINGS
    return STREAM_SPEC, dataclasses.replace(STREAM_SETTINGS, **{name: value})


def test_every_field_is_a_stream_input_or_a_choice_input():
    covered = {(part, name) for part, name, _ in STREAM_INPUTS + CHOICE_INPUTS}
    fields = {("spec", f.name) for f in dataclasses.fields(ScenarioSpec)}
    fields |= {("settings", f.name) for f in dataclasses.fields(RunSettings)}
    assert covered == fields
    assert len(covered) == len(STREAM_INPUTS) + len(CHOICE_INPUTS)


@pytest.mark.parametrize("part,name,value", STREAM_INPUTS)
def test_every_input_the_stream_reads_gives_a_new_stream(part, name, value):
    run_closed_loop(STREAM_SPEC, STREAM_SETTINGS)
    before = simulator._last_stream
    spec, st_ = _changed(part, name, value)
    run = run_closed_loop(spec, st_)
    assert simulator._last_stream[1] is not before[1]
    assert simulator._last_stream[0] != before[0]
    assert _same_run(run, _cold(spec, st_))


@pytest.mark.parametrize("part,name,value", CHOICE_INPUTS)
def test_inputs_only_the_planner_or_scoring_read_reuse_the_stream(part, name, value):
    run_closed_loop(STREAM_SPEC, STREAM_SETTINGS)
    before = simulator._last_stream
    spec, st_ = _changed(part, name, value)
    run = run_closed_loop(spec, st_)
    assert simulator._last_stream is before
    assert _same_run(run, _cold(spec, st_))


@pytest.mark.parametrize("part,name", [
    ("settings", "jitter_m"), ("settings", "mode_noise_m"), ("settings", "ns"), ("spec", "angle_rad"),
])
def test_signed_zeros_never_share_a_stream(part, name):
    spec = ScenarioSpec("straight", 2.0, 5.0, seed=2)
    st_ = RunSettings(planner="oneshot", history_depth=0)
    other_zero = None
    for value in (0.0, -0.0, 0.0):
        if part == "spec":
            spec = dataclasses.replace(spec, **{name: value})
        else:
            st_ = dataclasses.replace(st_, **{name: value})
        run = run_closed_loop(spec, st_)
        assert simulator._last_stream is not other_zero
        assert _same_run(run, _cold(spec, st_))
        other_zero = simulator._last_stream


def test_a_reused_stream_is_read_only():
    spec = dataclasses.replace(STREAM_SPEC, seed=8)
    run_closed_loop(spec, dataclasses.replace(STREAM_SETTINGS, planner="oneshot", history_depth=0))
    stream = simulator._last_stream[1]
    log, _ = run_closed_loop(spec, STREAM_SETTINGS)
    assert simulator._last_stream[1] is stream
    arrays = [getattr(stream.scene, f.name) for f in dataclasses.fields(stream.scene)]
    arrays += [stream.scores, stream.queries]
    arrays += [a for pose in stream.poses for a in (pose.rotation, pose.translation)]
    arrays += [a for props in stream.proposals for a in (props.points, props.scores, props.queries)]
    arrays = [a for a in arrays if isinstance(a, np.ndarray)]
    scene_arrays = [f for f in dataclasses.fields(stream.scene) if f.type == "np.ndarray"]
    assert len(arrays) == len(scene_arrays) + 2 + 5 * len(log.frames)
    for array in arrays:
        assert not array.flags.writeable
    with pytest.raises(ValueError):
        log.frames[0].proposals.points[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        stream.scene.gt[1] = 0.0


@pytest.mark.parametrize("kind", SCENARIO_KINDS)
def test_paired_rollouts_on_a_shared_stream_equal_cold_ones(kind):
    # every order of two planners: momentum then one-shot, one-shot then
    # momentum, and the same settings twice; the second always reuses
    spec = dataclasses.replace(STREAM_SPEC, kind=kind, angle_rad=1.2, seed=9)
    cases = [RunSettings(planner="oneshot", history_depth=0, occlusion_start=2, occlusion_len=1)]
    cases += [
        dataclasses.replace(cases[0], planner="momentum", history_depth=depth, distance=distance)
        for depth in (0, 1, 2) for distance in DistanceKind
    ]
    cold = {st_: _cold(spec, st_) for st_ in cases}
    for first in cases:
        for second in cases:
            simulator._last_stream = None
            assert _same_run(run_closed_loop(spec, first), cold[first])
            assert _same_run(run_closed_loop(spec, second), cold[second])


PAIRED_BOXES = {
    "no_box": (),
    "parked": (ScriptedObstacle(ObstacleBox((9.0, 1.0), 0.2, 4.0, 2.0)),),
    "moving": (ScriptedObstacle(ObstacleBox((14.0, 6.0), -1.2, 4.0, 1.8), (0.0, -2.0)),),
}


@pytest.mark.parametrize("distance", list(DistanceKind))
@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("boxes", list(PAIRED_BOXES))
@pytest.mark.parametrize("kind", SCENARIO_KINDS)
def test_paired_reports_equal_two_cold_rollouts_per_seed(monkeypatch, kind, boxes, depth, distance):
    # the momentum rollout under the settings, then its one-shot baseline
    # (planner "oneshot", depth 0), back to back per seed: each equals a
    # rollout that builds its own stream, log and report alike, and the
    # settings' own planner does not matter
    spec = ScenarioSpec(kind, 3.0, 6.0, radius_m=18.0, angle_rad=1.2, obstacles=PAIRED_BOXES[boxes], seed=1)
    momentum = RunSettings(planner="momentum", history_depth=depth, distance=distance, ns=0.2)
    oneshot = dataclasses.replace(momentum, planner="oneshot", history_depth=0)
    seeds = [5, 0, 2]
    for settings_ in (momentum, dataclasses.replace(momentum, planner="oneshot")):
        runs = []

        def spy(spec_, st_, weights=None):
            runs.append((spec_, st_, run_closed_loop(spec_, st_, weights)))
            return runs[-1][2]

        monkeypatch.setattr(simulator, "run_closed_loop", spy)
        pairs = simulator.paired_reports(spec, settings_, seeds)
        monkeypatch.undo()
        expected = [(dataclasses.replace(spec, seed=seed), st_) for seed in seeds for st_ in (momentum, oneshot)]
        assert [(spec_, st_) for spec_, st_, _ in runs] == expected
        for spec_, st_, run in runs:
            assert _same_run(run, _cold(spec_, st_))
        assert [seed for seed, _, _ in pairs] == seeds
        reports = [rep for _, rep_m, rep_o in pairs for rep in (rep_m, rep_o)]
        assert [rep.to_csv_text() for rep in reports] == [run[1].to_csv_text() for _, _, run in runs]


def test_replay_builds_no_stream(monkeypatch, tmp_path):
    # a replay scores the log through the same scene and score functions,
    # never through the rollout's stream or the one kept
    log, report = run_closed_loop(STREAM_SPEC, STREAM_SETTINGS)
    save_log(log, tmp_path / "run.jsonl")

    def refuse(*args, **kwargs):
        raise AssertionError("the stream pass ran")

    monkeypatch.setattr(simulator, "_stream", refuse)
    monkeypatch.setattr(simulator, "_last_stream", (simulator._stream_key(STREAM_SPEC, STREAM_SETTINGS), None))
    replayed = report_from_log(load_log(tmp_path / "run.jsonl"))
    assert replayed.to_csv_text() == report.to_csv_text()
    with pytest.raises(AssertionError):
        _cold(STREAM_SPEC, STREAM_SETTINGS)


def test_a_rollout_transforms_its_ground_truth_once(monkeypatch):
    # the proposals fan around the scene's own ground-truth array, so a
    # rollout cannot go back to computing it twice, and the pose loop moves
    # only the one waypoint each step reads into its frame
    fanned, moved = [], []
    fan, to_frame = simulator._fan, simulator._to_frame

    def spy_fan(gt, *args):
        fanned.append(gt)
        return fan(gt, *args)

    def spy_to_frame(points, *args):
        moved.append(points.shape)
        return to_frame(points, *args)

    monkeypatch.setattr(simulator, "_fan", spy_fan)
    monkeypatch.setattr(simulator, "_to_frame", spy_to_frame)
    monkeypatch.setattr(simulator, "_last_stream", None)
    log, _ = run_closed_loop(STREAM_SPEC, STREAM_SETTINGS)
    scene = simulator._last_stream[1].scene
    assert len(fanned) == 1 and fanned[0] is scene.gt
    f, h = len(log.frames), STREAM_SETTINGS.horizon_steps
    assert moved == [(1, 2)] * (f - 1) + [(f, h, 2)]


def _coords(rng, shape):
    """+-0.0, values within 50 of the origin, or within 1e3 of +-1e6."""
    sign = rng.choice([1.0, -1.0], shape)
    near = rng.uniform(-50.0, 50.0, shape)
    far = sign * (1e6 + rng.uniform(-1e3, 1e3, shape))
    return np.choose(rng.integers(0, 3, shape), [sign * 0.0, near, far])


def _headings(rng, m):
    """Headings in every quadrant, a quarter of them on its edges, signed
    zeros included."""
    edges = rng.choice([0.0, -0.0, math.pi / 2.0, -math.pi / 2.0, math.pi, -math.pi], m)
    return np.where(rng.random(m) < 0.25, edges, rng.uniform(-math.pi, math.pi, m))


def frame_stack(f, n, seed):
    """F poses, the F poses before them, (F, N, 2) points, 1-3 scripted
    obstacles and F absolute steps, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    poses, prevs = (
        [Pose2.from_heading(h, xy) for h, xy in zip(_headings(rng, f).tolist(), _coords(rng, (f, 2)))]
        for _ in range(2)
    )
    points = _coords(rng, (f, n, 2))
    o = int(rng.integers(1, 4))
    boxes = zip(_coords(rng, (o, 2)), _headings(rng, o).tolist(), rng.uniform(0.5, 6.0, (o, 2)).tolist())
    velocities = _coords(rng, (o, 2)) * 5e-5  # at most 71 m/s, signed zeros kept
    obstacles = [ScriptedObstacle(ObstacleBox(c, h, length, width), v)
                 for (c, h, (length, width)), v in zip(boxes, velocities)]
    return poses, prevs, points, obstacles, rng.integers(0, 2400, f)


def _bits(*values) -> bytes:
    return np.array(values, dtype=np.float64).tobytes()


@settings(max_examples=1000, deadline=None)
@given(st.integers(1, 4), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_one_pose_calls_equal_rows_of_their_stacked_kernels(f, n, seed):
    # each one-pose call is its kernel called on one pose, and every row of
    # a stacked call equals it and the one-pose formula it replaced, bit for bit
    poses, prevs, points, obstacles, steps = frame_stack(f, n, seed)
    rot, xy = np.array([p.rotation for p in poses]), np.array([p.translation for p in poses])
    to, back = _to_frame(points, rot, xy), _from_frame(points, rot, xy)
    delta_rot, delta_xy = _frame_delta(
        np.array([p.rotation for p in prevs]), np.array([p.translation for p in prevs]), rot, xy
    )
    for j, (pose, prev) in enumerate(zip(poses, prevs)):
        traj = Trajectory(points[j])
        for call, reference, row in ((transform_to_frame, reference_transform_to_frame, to[j]),
                                     (transform_from_frame, reference_transform_from_frame, back[j])):
            assert call(traj, pose).points.tobytes() == row.tobytes() == reference(traj, pose).points.tobytes()
        rel, ref = relative_pose(prev, pose), reference_relative_pose(prev, pose)
        assert rel.rotation.tobytes() == delta_rot[j].tobytes() == ref.rotation.tobytes()
        assert rel.translation.tobytes() == delta_xy[j].tobytes() == ref.translation.tobytes()
    center, heading, length, width = _boxes_at(obstacles, steps)
    for o, obstacle in enumerate(obstacles):
        for j, step in enumerate(steps.tolist()):
            row = _bits(*center[o, j], heading[o, 0], length[o, 0], width[o, 0])
            for box in (obstacle.at_step(step), reference_at_step(obstacle, step)):
                assert _bits(*box.center, box.heading, box.length, box.width) == row


def test_debug_level_times_each_rollout_outside_logs_and_csvs(caplog, monkeypatch):
    pair = (STREAM_SETTINGS, dataclasses.replace(STREAM_SETTINGS, planner="oneshot", history_depth=0))

    def refuse():
        raise AssertionError("a rollout below debug level did timing work")

    caplog.set_level(logging.INFO, logger="momentum_planning")
    with monkeypatch.context() as patched:
        patched.setattr(simulator, "perf_counter_ns", refuse)
        simulator._last_stream = None
        quiet = [run_closed_loop(STREAM_SPEC, st_) for st_ in pair]
    assert not caplog.records
    caplog.set_level(logging.DEBUG, logger="momentum_planning")
    simulator._last_stream = None
    loud = [run_closed_loop(STREAM_SPEC, st_) for st_ in pair]
    lines = [r.getMessage() for r in caplog.records]
    assert len(lines) == 2
    for line, how in zip(lines, ("built", "reused")):
        assert re.fullmatch(rf"stream {how}: stream \d+ us, choose \d+ us, score \d+ us", line), line
    for run_q, run_l in zip(quiet, loud):
        assert _same_run(run_q, run_l)


# ---------------------------------------------------------------------------
# batched scoring against the per-frame loop


@st.composite
def scored_logs(draw):
    """A rollout log over a drawn scene: any kind, 0-4 static or moving
    boxes placed near the path (some fast enough to leave it), either
    protocol, 2 to MAX_HORIZON_STEPS planning steps (numpy's row mean sums
    pairwise from 8 values on, so long horizons pin how the fold sums), and
    logs from one frame up to one frame more than the scene's duration
    plans (the longest a path can score)."""
    kind = draw(st.sampled_from(SCENARIO_KINDS))
    duration = draw(st.sampled_from([0.5, 1.0, 2.0, 3.5]))
    speed = draw(st.floats(1.0, 12.0))
    radius = draw(st.floats(8.0, 40.0))
    angle = draw(st.floats(0.3, 2.0))
    h = draw(st.integers(2, MAX_HORIZON_STEPS))
    path, _ = gen_scenario(ScenarioSpec(kind, duration, speed, radius, angle), extra_steps=h)
    obstacles = []
    for _ in range(draw(st.integers(0, 4))):
        anchor = path.points[draw(st.integers(0, len(path) - 1))]
        offset = draw(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)))
        velocity = draw(st.just((0.0, 0.0)) | st.tuples(st.floats(-15.0, 15.0), st.floats(-15.0, 15.0)))
        box = ObstacleBox(
            (float(anchor[0] + offset[0]), float(anchor[1] + offset[1])),
            draw(st.floats(-math.pi, math.pi)),
            draw(st.floats(0.5, 5.0)),
            draw(st.floats(0.5, 3.0)),
        )
        obstacles.append(ScriptedObstacle(box, velocity))
    horizons = draw(st.lists(st.integers(1, h), min_size=1, max_size=3, unique=True))
    run_settings = RunSettings(
        planner=draw(st.sampled_from(PLANNER_KINDS)),
        history_depth=draw(st.integers(0, 2)),
        k=draw(st.integers(1, 6)),
        horizon_steps=h,
        protocol=draw(st.sampled_from(list(L2Protocol))),
        horizons_s=tuple(0.5 * s for s in horizons),
        ego_length_m=draw(st.floats(1.0, 5.0)),
        ego_width_m=draw(st.floats(0.5, 3.0)),
    )
    spec = ScenarioSpec(kind, duration, speed, radius, angle, tuple(obstacles),
                        seed=draw(st.integers(0, 2**16)))
    extra_frame = draw(st.booleans())
    longer = dataclasses.replace(spec, duration_s=duration + SIM_DT) if extra_frame else spec
    log, _ = run_closed_loop(longer, run_settings)
    return ScenarioLog(spec, run_settings, log.frames)


@settings(max_examples=150, deadline=None)
@given(scored_logs())
def test_batched_report_matches_per_frame_loop(log):
    assert report_from_log(log).to_csv_text() == reference_report_from_log(log).to_csv_text()


@settings(max_examples=100, deadline=None)
@given(scored_logs())
def test_ground_truth_futures_equal_the_log_scenes(log):
    gt, scene_gt = simulator.ground_truth_futures(log), simulator._log_scene(log).gt
    assert gt.shape == scene_gt.shape and gt.tobytes() == scene_gt.tobytes()


def test_ground_truth_futures_build_no_scene(monkeypatch):
    # the ground truth needs the checked pose stack and the futures only,
    # not the scene's min ADE/FDE, frame deltas or proposal stack
    log, _ = run_closed_loop(arc_spec(seed=5), RunSettings(planner="momentum", history_depth=2))
    expected = simulator._log_scene(log).gt

    def refuse(*args):
        raise AssertionError("ground_truth_futures built scene quantities")

    monkeypatch.setattr(simulator, "_scene", refuse)
    monkeypatch.setattr(simulator, "_best_displacements", refuse)
    assert simulator.ground_truth_futures(log).tobytes() == expected.tobytes()


def test_frame_with_wrong_plan_length_is_rejected():
    log, _ = run_closed_loop(arc_spec(), RunSettings(horizon_steps=6))
    # the chosen plan is a row of the proposals, so it cannot have its own
    # length; an index past the rows is what a frame can get wrong
    with pytest.raises(AlignmentError, match="chosen_index"):
        dataclasses.replace(log.frames[3], chosen_index=6)
    props = log.frames[2].proposals
    frames = list(log.frames)
    frames[2] = dataclasses.replace(frames[2], proposals=TrajectorySet(
        tuple(Trajectory(t.points[:5]) for t in props.trajectories), props.scores, props.queries))
    with pytest.raises(AlignmentError, match="frame 2"):
        report_from_log(ScenarioLog(log.spec, log.settings, tuple(frames)))


@pytest.mark.parametrize("index", [-1, 6, True, 2.0])
def test_frame_record_rejects_an_index_outside_its_proposals(index):
    log, _ = run_closed_loop(arc_spec(), RunSettings())
    with pytest.raises(AlignmentError, match="chosen_index"):
        dataclasses.replace(log.frames[1], chosen_index=index)


@pytest.mark.parametrize("refined", [[math.nan] + [0.0] * 5, [0.0, math.inf] + [0.0] * 4,
                                     [0.0] * 5, [0.0] * 7, [[0.0] * 6]])
def test_frame_record_rejects_refined_scores_that_are_not_k_finite_numbers(refined):
    log, _ = run_closed_loop(arc_spec(), RunSettings())
    with pytest.raises(ShapeError, match="refined_scores"):
        dataclasses.replace(log.frames[1], refined_scores=np.array(refined))


def test_frames_out_of_place_are_rejected(tmp_path):
    log, _ = run_closed_loop(arc_spec(), RunSettings())
    dropped = ScenarioLog(log.spec, log.settings, log.frames[:2] + log.frames[3:])
    half_step = dataclasses.replace(log.frames[1], proposals=TrajectorySet.from_points(
        log.frames[1].proposals.points, log.frames[1].proposals.scores,
        log.frames[1].proposals.queries, dt=0.25))
    retimed = ScenarioLog(log.spec, log.settings, (log.frames[0], half_step))
    for bad, where in ((dropped, "frame 2: time"), (retimed, "frame 1: plan dt")):
        with pytest.raises(AlignmentError, match=where):
            report_from_log(bad)
        with pytest.raises(AlignmentError, match=where):
            save_log(bad, tmp_path / "bad.jsonl")
    assert not (tmp_path / "bad.jsonl").exists()


def test_log_longer_than_its_path_is_rejected():
    spec = arc_spec()
    log, _ = run_closed_loop(dataclasses.replace(spec, duration_s=spec.duration_s + 2 * SIM_DT),
                             RunSettings())
    with pytest.raises(AlignmentError):
        report_from_log(ScenarioLog(spec, log.settings, log.frames))


def test_header_only_log_reports_zeros():
    report = report_from_log(ScenarioLog(arc_spec(), RunSettings(), ()))
    assert {v for _, _, v in report.rows()} == {0.0}


def test_every_traced_function_resolves_where_the_bench_looks_it_up():
    # bench/tracing.py wraps functions on the module their caller reads them
    # from; a name dropped there would stop the traced benchmark run
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module_name, attr, _ in tracing.TARGETS:
        module = importlib.import_module(f"momentum_planning.{module_name}")
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


# ---------------------------------------------------------------------------
# log persistence


def test_log_round_trip_preserves_report(tmp_path):
    spec = arc_spec(seed=2)
    st = RunSettings(planner="momentum", history_depth=1)
    log, report = run_closed_loop(spec, st)
    path = tmp_path / "run.jsonl"
    save_log(log, path)
    loaded = load_log(path)
    assert loaded.spec == spec
    assert loaded.settings == st
    assert len(loaded.frames) == len(log.frames)
    for a, b in zip(loaded.frames, log.frames):
        np.testing.assert_array_equal(a.proposals.queries, b.proposals.queries)
        np.testing.assert_array_equal(a.chosen_trajectory.points, b.chosen_trajectory.points)
        np.testing.assert_array_equal(a.ego_pose.rotation, b.ego_pose.rotation)
        assert a.chosen_index == b.chosen_index
    assert report_from_log(loaded) == report


def test_load_rejects_corrupt_json_with_line_number(tmp_path):
    spec = arc_spec()
    log, _ = run_closed_loop(spec, RunSettings(planner="oneshot", history_depth=0))
    path = tmp_path / "bad.jsonl"
    lines = log_to_jsonl(log).splitlines()
    lines[3] = lines[3][: len(lines[3]) // 2]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(LogCorruptionError) as err:
        load_log(path)
    assert err.value.line_number == 4


def test_load_rejects_missing_header(tmp_path):
    path = tmp_path / "headless.jsonl"
    path.write_text(json.dumps({"kind": "frame"}) + "\n")
    with pytest.raises(LogCorruptionError) as err:
        load_log(path)
    assert err.value.line_number == 1


def test_load_rejects_unknown_version(tmp_path):
    spec = arc_spec()
    log, _ = run_closed_loop(spec, RunSettings(planner="oneshot", history_depth=0))
    lines = log_to_jsonl(log).splitlines()
    header = json.loads(lines[0])
    header["format_version"] = 99
    lines[0] = json.dumps(header)
    path = tmp_path / "future.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(LogCorruptionError):
        load_log(path)


def test_load_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(LogCorruptionError):
        load_log(path)


def test_load_rejects_ragged_proposals(tmp_path):
    # format v2 stores one (K, N, 2) stack and cannot express a ragged set;
    # a v1 log lists each candidate on its own
    path = tmp_path / "run.jsonl"
    lines = (DATA / "v1_arc_momentum_depth2.jsonl").read_text().splitlines()
    rec = json.loads(lines[3])
    rec["proposals"]["trajectories"][1]["points"].pop()
    lines[3] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(LogCorruptionError, match="line 4"):
        load_log(path)


def test_load_rejects_bad_frame_record(tmp_path):
    spec = arc_spec()
    log, _ = run_closed_loop(spec, RunSettings(planner="oneshot", history_depth=0))
    lines = log_to_jsonl(log).splitlines()
    broken = json.loads(lines[2])
    del broken["chosen_index"]
    lines[2] = json.dumps(broken)
    path = tmp_path / "hole.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(LogCorruptionError) as err:
        load_log(path)
    assert err.value.line_number == 3


# ---------------------------------------------------------------------------
# log format v2: exact arrays, the chosen plan derived from its index


def assert_logs_bit_equal(a, b):
    assert (a.spec, a.settings, len(a.frames)) == (b.spec, b.settings, len(b.frames))
    for fa, fb in zip(a.frames, b.frames):
        assert (fa.time_s, fa.chosen_index, fa.proposals.dt, fa.chosen_trajectory.dt) == (
            fb.time_s, fb.chosen_index, fb.proposals.dt, fb.chosen_trajectory.dt)
        assert (fa.refined_scores is None) == (fb.refined_scores is None)
        pairs = [
            (fa.ego_pose.rotation, fb.ego_pose.rotation),
            (fa.ego_pose.translation, fb.ego_pose.translation),
            (fa.proposals.points, fb.proposals.points),
            (fa.proposals.scores, fb.proposals.scores),
            (fa.proposals.queries, fb.proposals.queries),
            (fa.chosen_trajectory.points, fb.chosen_trajectory.points),
        ]
        if fa.refined_scores is not None:
            pairs.append((fa.refined_scores, fb.refined_scores))
        for x, y in pairs:
            assert x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


def round_trip(log, tmp_path):
    path = tmp_path / "log.jsonl"
    save_log(log, path)
    return load_log(path)


@st.composite
def rollout_logs(draw):
    settings_ = RunSettings(
        planner=draw(st.sampled_from(PLANNER_KINDS)),
        history_depth=draw(st.integers(0, 2)),
        k=draw(st.integers(1, 7)),
        horizon_steps=draw(st.integers(2, 8)),
        d_q=draw(st.sampled_from([4, 8, 32])),
        horizons_s=(1.0,),
    )
    spec = ScenarioSpec(
        draw(st.sampled_from(SCENARIO_KINDS)),
        draw(st.sampled_from([0.5, 1.5, 3.0])),
        draw(st.floats(1.0, 12.0)),
        seed=draw(st.integers(0, 2**16)),
    )
    return run_closed_loop(spec, settings_)[0]


@settings(max_examples=60, deadline=None)
@given(log=rollout_logs())
def test_v2_round_trip_is_bit_exact(tmp_path_factory, log):
    loaded = round_trip(log, tmp_path_factory.mktemp("v2"))
    assert_logs_bit_equal(loaded, log)
    assert log_to_jsonl(loaded) == log_to_jsonl(log)


finite = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)


@st.composite
def raw_frame_logs(draw):
    """Logs built by hand from any finite floats, -0.0 and subnormals
    included, with and without refined scores."""
    k, h, d_q = draw(st.integers(1, 4)), draw(st.integers(2, 5)), draw(st.sampled_from([4, 8]))

    def block(*shape):
        n = math.prod(shape)
        values = draw(st.lists(finite, min_size=n, max_size=n))
        return np.array(values, dtype=np.float64).reshape(shape)

    frames = []
    for j in range(draw(st.integers(1, 3))):
        proposals = TrajectorySet.from_points(block(k, h, 2), block(k), block(k, d_q))
        idx = draw(st.integers(0, k - 1))
        frames.append(FrameRecord(
            time_s=j * SIM_DT,
            ego_pose=Pose2.from_heading(draw(st.floats(-math.pi, math.pi)), block(2)),
            proposals=proposals,
            chosen_index=idx,
            refined_scores=block(k) if draw(st.booleans()) else None,
        ))
    settings_ = RunSettings(k=k, horizon_steps=h, d_q=d_q, horizons_s=(1.0,))
    return ScenarioLog(arc_spec(), settings_, tuple(frames))


def test_v2_round_trip_keeps_signed_zeros_and_subnormals(tmp_path):
    odd = [-0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308]
    points = np.array(odd * 3).reshape(1, 6, 2)
    proposals = TrajectorySet.from_points(points, [-0.0], [odd])
    frame = FrameRecord(-0.0, Pose2(np.eye(2) * -1.0, [-0.0, 5e-324]), proposals, 0,
                        np.array([5e-324]))
    log = ScenarioLog(arc_spec(), RunSettings(k=1, d_q=4), (frame,))
    assert_logs_bit_equal(round_trip(log, tmp_path), log)


@settings(max_examples=60, deadline=None)
@given(log=raw_frame_logs())
def test_v2_round_trip_keeps_every_float_bit(tmp_path_factory, log):
    assert_logs_bit_equal(round_trip(log, tmp_path_factory.mktemp("raw")), log)


def test_v2_frame_carries_no_chosen_plan_and_one_dt():
    log, _ = run_closed_loop(arc_spec(seed=2), RunSettings(planner="momentum", history_depth=2))
    lines = log_to_jsonl(log).splitlines()
    assert json.loads(lines[0])["format_version"] == 2
    rec = json.loads(lines[2])
    assert set(rec) == {"kind", "time_s", "chosen_index", "dt", "rotation", "xy",
                        "points", "scores", "queries", "refined_scores"}


def test_save_refuses_a_frame_v2_cannot_hold(tmp_path):
    log, _ = run_closed_loop(arc_spec(), RunSettings())
    # a frame whose refined scores v2 could not hold cannot be built at all
    with pytest.raises(ShapeError, match="refined_scores"):
        dataclasses.replace(log.frames[2], refined_scores=np.zeros(5))
    with pytest.raises(AlignmentError):
        save_log(ScenarioLog(log.spec, RunSettings(d_q=8), log.frames), tmp_path / "y.jsonl")


def _b64(values):
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


V2_FRAME_EDITS = {
    "truncated_points": lambda r: r.update(points=r["points"][:-4]),
    "truncated_padding": lambda r: r.update(queries=r["queries"][:-1]),
    "extra_score": lambda r: r.update(scores=_b64([0.1] * 7)),
    "non_base64_char": lambda r: r.update(queries="*" + r["queries"][1:]),
    "non_ascii_char": lambda r: r.update(scores="é" + r["scores"][1:]),
    "array_as_number": lambda r: r.update(xy=1.0),
    "missing_points": lambda r: r.pop("points"),
    "nan_point": lambda r: r.update(points=_b64([math.nan] + [0.0] * 71)),
    "inf_score": lambda r: r.update(scores=_b64([math.inf] + [0.1] * 5)),
    "nan_query": lambda r: r.update(queries=_b64([math.nan] * 6 * 32)),
    "nan_rotation": lambda r: r.update(rotation=_b64([1.0, 0.0, 0.0, math.nan])),
    "inf_xy": lambda r: r.update(xy=_b64([0.0, -math.inf])),
    "nan_refined": lambda r: r.update(refined_scores=_b64([math.nan] * 6)),
    "index_k": lambda r: r.update(chosen_index=6),
    "index_negative": lambda r: r.update(chosen_index=-1),
    "index_float": lambda r: r.update(chosen_index=1.0),
    "negative_dt": lambda r: r.update(dt=-0.5),
    "string_dt": lambda r: r.update(dt="0.5"),
    "nan_time": lambda r: r.update(time_s=math.nan),
}


@pytest.mark.parametrize("edit", list(V2_FRAME_EDITS))
def test_v2_load_rejects_bad_frame(tmp_path, edit):
    log, _ = run_closed_loop(arc_spec(seed=2), RunSettings(planner="momentum", history_depth=2))
    lines = log_to_jsonl(log).splitlines()
    rec = json.loads(lines[2])
    V2_FRAME_EDITS[edit](rec)
    lines[2] = json.dumps(rec)
    path = tmp_path / "v2.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(LogCorruptionError) as err:
        load_log(path)
    assert err.value.line_number == 3


@pytest.mark.parametrize("fixture, line, key", [(None, 3, "note"), ("v1_arc_momentum_depth2", 1, "note")],
                         ids=["v2_frame", "v1_header"])
def test_load_refuses_keys_the_format_does_not_define(tmp_path, fixture, line, key):
    # a format-2 frame and either format's header hold only the format's keys
    if fixture is None:
        log, _ = run_closed_loop(arc_spec(seed=2), RunSettings(planner="momentum", history_depth=2))
        lines = log_to_jsonl(log).splitlines()
    else:
        lines = (DATA / f"{fixture}.jsonl").read_text().splitlines()
    rec = json.loads(lines[line - 1])
    rec[key] = "x"
    lines[line - 1] = json.dumps(rec)
    path = tmp_path / "extra.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(LogCorruptionError, match=repr(key)) as err:
        load_log(path)
    assert err.value.line_number == line


@pytest.mark.parametrize("version", [0, 3, True, 2.0, "2", None])
def test_load_rejects_other_format_versions(tmp_path, version):
    log, _ = run_closed_loop(arc_spec(), RunSettings(planner="oneshot", history_depth=0))
    lines = log_to_jsonl(log).splitlines()
    header = json.loads(lines[0])
    header["format_version"] = version
    lines[0] = json.dumps(header)
    path = tmp_path / "other.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(LogCorruptionError, match="format_version") as err:
        load_log(path)
    assert err.value.line_number == 1


def v1_jsonl(log):
    """The log as format v1 wrote it: decimal lists, the chosen plan in full."""
    header = json.loads(log_to_jsonl(log).splitlines()[0]) | {"format_version": 1}
    lines = [json.dumps(header)]
    for f in log.frames:
        rec = {
            "kind": "frame",
            "time_s": f.time_s,
            "ego_pose": {"rotation": f.ego_pose.rotation.tolist(),
                         "xy": f.ego_pose.translation.tolist()},
            "chosen_index": f.chosen_index,
            "chosen_trajectory": trajectory_to_dict(f.chosen_trajectory),
            "proposals": {"trajectories": [trajectory_to_dict(t) for t in f.proposals.trajectories],
                          "scores": f.proposals.scores.tolist(),
                          "queries": f.proposals.queries.tolist()},
        }
        if f.refined_scores is not None:
            rec["refined_scores"] = f.refined_scores.tolist()
        lines.append(json.dumps(rec))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("depth", [0, 1, 2])
@pytest.mark.parametrize("planner", PLANNER_KINDS)
def test_chosen_plan_is_the_read_only_proposal_row(tmp_path, planner, depth):
    assert "chosen_trajectory" not in {f.name for f in dataclasses.fields(FrameRecord)}
    log, _ = run_closed_loop(arc_spec(seed=3), RunSettings(planner=planner, history_depth=depth))
    v1_path = tmp_path / "v1.jsonl"
    v1_path.write_text(v1_jsonl(log))
    v1, v2 = load_log(v1_path), round_trip(log, tmp_path)
    assert_logs_bit_equal(v1, log)
    for loaded in (log, v1, v2):
        for frame in loaded.frames:
            chosen = frame.chosen_trajectory
            assert chosen.points.tobytes() == frame.proposals.points[frame.chosen_index].tobytes()
            assert chosen.dt == frame.proposals.dt == SIM_DT
            assert not chosen.points.flags.writeable
            with pytest.raises(dataclasses.FrozenInstanceError):
                frame.chosen_trajectory = chosen


@pytest.mark.parametrize("name", ["v1_arc_momentum_depth2", "v1_obstacles_oneshot"])
def test_v1_log_converts_to_v2_exactly(tmp_path, name):
    v1 = load_log(DATA / f"{name}.jsonl")
    assert_logs_bit_equal(round_trip(v1, tmp_path), v1)


def test_v2_fixture_replays_to_its_csv_and_reruns_to_its_bytes(monkeypatch):
    # written by format-2 code: momentum at depth 2 on an S-curve past a
    # parked and a moving box, 12 planning steps, horizons up to 6 s; it
    # pins the bits of every frame transform, frame delta and obstacle track
    name = "v2_scurve_momentum_depth2_obstacles"
    text = (DATA / f"{name}.jsonl").read_text()
    log = load_log(DATA / f"{name}.jsonl")
    assert log.settings.horizon_steps == 12 and max(log.settings.horizons_s) == 6.0
    assert report_from_log(log).to_csv_text() == (DATA / f"{name}.metrics.csv").read_text()
    monkeypatch.setattr(simulator, "_last_stream", None)  # a cold stream, from the header alone
    rerun, _ = run_closed_loop(log.spec, log.settings)
    assert log_to_jsonl(rerun) == text
