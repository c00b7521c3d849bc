import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_boxes_overlap, reference_collision_flags

from momentum_planning.errors import (
    AlignmentError,
    ConfigError,
    HorizonError,
    ShapeError,
)
from momentum_planning.matching import TrajectorySet
from momentum_planning.metrics import (
    L2Protocol,
    LossWeights,
    MetricReport,
    ObstacleBox,
    boxes_overlap,
    collision_flags,
    collision_rate,
    combined_losses,
    ego_headings,
    focal_loss,
    l2_error,
    mean_reports,
    min_ade_fde,
    overlap_flags,
    tpc,
)
from momentum_planning.trajectory import (
    Pose2,
    Trajectory,
    overlap_mask,
    relative_pose,
    transform_to_frame,
)


def straight(n, dt=0.5, speed=10.0):
    xs = np.arange(1, n + 1) * speed * dt
    return Trajectory(np.column_stack([xs, np.zeros(n)]), dt=dt)


# --- l2 protocols ------------------------------------------------------------------


def test_l2_protocols_on_linearly_growing_offset():
    gt = straight(6)
    offsets = np.column_stack([np.zeros(6), 0.2 * np.arange(6)])
    pred = Trajectory(gt.points + offsets, dt=0.5)
    at = l2_error(pred, gt, [1.0, 2.0, 3.0], L2Protocol.AT_TIMESTEP)
    up_to = l2_error(pred, gt, [1.0, 2.0, 3.0], L2Protocol.AVERAGED_UP_TO)
    assert at[3.0] == pytest.approx(1.0, abs=1e-12)
    assert at[2.0] == pytest.approx(0.6, abs=1e-12)
    assert up_to[3.0] == pytest.approx(np.mean([0.0, 0.2, 0.4, 0.6, 0.8, 1.0]), abs=1e-12)
    assert up_to[1.0] == pytest.approx(0.1, abs=1e-12)


def test_l2_identical_is_zero():
    gt = straight(6)
    out = l2_error(gt, gt, [1.0, 2.0, 3.0], L2Protocol.AVERAGED_UP_TO)
    assert all(v == 0.0 for v in out.values())


def test_l2_horizon_validation():
    gt = straight(4)
    with pytest.raises(HorizonError):
        l2_error(gt, gt, [3.0])  # needs 6 waypoints
    with pytest.raises(HorizonError):
        l2_error(gt, gt, [0.3])  # not a multiple of dt
    with pytest.raises(AlignmentError):
        l2_error(straight(4, dt=0.25), gt, [1.0])


# --- oriented boxes ----------------------------------------------------------------


def test_boxes_clearly_apart_and_clearly_overlapping():
    a = ObstacleBox((0.0, 0.0), 0.0, 2.0, 2.0)
    assert not boxes_overlap(a, ObstacleBox((5.0, 0.0), 0.0, 2.0, 2.0))
    assert boxes_overlap(a, ObstacleBox((1.0, 0.5), 0.3, 2.0, 2.0))


def test_touching_edges_count_as_overlap():
    a = ObstacleBox((0.0, 0.0), 0.0, 2.0, 2.0)
    b = ObstacleBox((2.0, 0.0), 0.0, 2.0, 2.0)
    assert boxes_overlap(a, b)


def test_rotated_diamond_versus_square():
    # a 45-degree square whose corner pokes into an axis-aligned square
    a = ObstacleBox((0.0, 0.0), 0.0, 2.0, 2.0)
    b = ObstacleBox((2.2, 0.0), math.pi / 4.0, 2.0, 2.0)
    assert boxes_overlap(a, b)  # corner reaches to x = 2.2 - sqrt(2)
    c = ObstacleBox((2.5, 0.0), math.pi / 4.0, 2.0, 2.0)
    assert not boxes_overlap(a, c)


def test_box_validation():
    with pytest.raises(ShapeError):
        ObstacleBox((0.0, 0.0), 0.0, -1.0, 1.0)
    with pytest.raises(ShapeError):
        ObstacleBox((0.0, math.nan), 0.0, 1.0, 1.0)


def _depth_inside(point, box):
    c, s = math.cos(box.heading), math.sin(box.heading)
    dx, dy = point[0] - box.center[0], point[1] - box.center[1]
    qx = c * dx + s * dy
    qy = -s * dx + c * dy
    return min(0.5 * box.length - abs(qx), 0.5 * box.width - abs(qy))


def sampled_penetration(a, b, per_edge=2500):
    """Oracle: walk both boundaries and report the deepest incursion."""
    worst = -math.inf
    for src, dst in ((a, b), (b, a)):
        corners = src.corners()
        for i in range(4):
            p0, p1 = corners[i], corners[(i + 1) % 4]
            ts = np.linspace(0.0, 1.0, per_edge, endpoint=False)
            pts = p0[None, :] + ts[:, None] * (p1 - p0)[None, :]
            for pt in pts:
                worst = max(worst, _depth_inside(pt, dst))
    return worst


def test_sat_agrees_with_sampling_oracle():
    rng = np.random.default_rng(42)
    for _ in range(200):
        a = ObstacleBox(tuple(rng.uniform(-4, 4, 2)), rng.uniform(-math.pi, math.pi),
                        rng.uniform(0.5, 4.0), rng.uniform(0.5, 4.0))
        b = ObstacleBox(tuple(rng.uniform(-4, 4, 2)), rng.uniform(-math.pi, math.pi),
                        rng.uniform(0.5, 4.0), rng.uniform(0.5, 4.0))
        depth = sampled_penetration(a, b, per_edge=300)
        if depth > 1e-3:
            assert boxes_overlap(a, b)
        assert boxes_overlap(a, b) == boxes_overlap(b, a)


# --- the batched overlap kernel ----------------------------------------------------


def _fields(boxes):
    """Stack boxes into the (center, heading, length, width) arrays the kernel takes."""
    return (
        np.array([b.center for b in boxes]),
        np.array([b.heading for b in boxes]),
        np.array([b.length for b in boxes]),
        np.array([b.width for b in boxes]),
    )


def test_kernel_counts_edge_and_corner_contact_as_overlap():
    a = ObstacleBox((0.0, 0.0), 0.0, 2.0, 2.0)
    others = [
        ObstacleBox((2.0, 0.0), 0.0, 2.0, 2.0),  # shares the edge x = 1
        ObstacleBox((2.0, 2.0), 0.0, 2.0, 2.0),  # shares the corner (1, 1)
        ObstacleBox((0.0, -3.0), 0.0, 4.0, 4.0),  # shares the edge y = -1
        ObstacleBox((2.0 + 1e-9, 0.0), 0.0, 2.0, 2.0),  # a hair apart
    ]
    flags = overlap_flags(a.fields(), _fields(others))
    assert flags.tolist() == [True, True, True, False]
    assert [boxes_overlap(a, b) for b in others] == [True, True, True, False]
    assert [boxes_overlap(b, a) for b in others] == [True, True, True, False]


box_strategy = st.builds(
    ObstacleBox,
    st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)),
    st.floats(-4.0, 4.0),
    st.floats(0.5, 4.0),
    st.floats(0.5, 4.0),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(box_strategy, box_strategy), min_size=1, max_size=12))
def test_kernel_is_symmetric_and_matches_the_pairwise_test(pairs):
    a, b = _fields([p[0] for p in pairs]), _fields([p[1] for p in pairs])
    forward = overlap_flags(a, b)
    np.testing.assert_array_equal(forward, overlap_flags(b, a))
    assert forward.tolist() == [reference_boxes_overlap(x, y) for x, y in pairs]


def test_kernel_broadcasts_one_box_against_a_grid():
    ego = ObstacleBox((0.0, 0.0), 0.3, 4.0, 2.0)
    xs, ys = np.meshgrid(np.linspace(-6, 6, 13), np.linspace(-4, 4, 9))
    centers = np.stack([xs, ys], axis=-1)
    flags = overlap_flags(ego.fields(), (centers, 1.1, 1.5, 1.0))
    assert flags.shape == (9, 13)
    for idx in np.ndindex(flags.shape):
        other = ObstacleBox(tuple(centers[idx]), 1.1, 1.5, 1.0)
        assert flags[idx] == reference_boxes_overlap(ego, other)


def test_zero_length_step_keeps_the_previous_heading():
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0], [1.0, 2.0]])
    np.testing.assert_array_equal(
        ego_headings(pts), [math.pi / 4, math.pi / 4, math.pi / 4, math.pi / 2, math.pi / 2]
    )
    # a path that starts standing still points along +x until it moves
    np.testing.assert_array_equal(
        ego_headings(np.array([[3.0, 3.0], [3.0, 3.0], [3.0, 4.0]])), [0.0, math.pi / 2, math.pi / 2]
    )
    # batched over leading axes, row by row the same
    stack = np.stack([pts, pts[::-1], np.zeros_like(pts)])
    for row, points in zip(ego_headings(stack), stack):
        np.testing.assert_array_equal(row, ego_headings(points))
    np.testing.assert_array_equal(ego_headings(np.array([[0.0, 0.0]])), [0.0])
    np.testing.assert_array_equal(ego_headings(np.array([[0.0, 2.0]])), [math.pi / 2])


def test_zero_length_step_decides_a_collision():
    # the ego drives diagonally, stands still for one step, then turns to
    # +y; waypoint 1's own step has zero length, so it keeps the diagonal
    # heading, and only that heading reaches the box (+x would miss it)
    pred = Trajectory(np.array([[0.0, 0.0], [3.0, 3.0], [3.0, 3.0], [3.0, 6.0]]))
    blocker = ObstacleBox((4.6, 4.6), math.pi / 4, 1.0, 1.0)
    flags = collision_flags(pred, (4.0, 1.0), [blocker])
    np.testing.assert_array_equal(flags, reference_collision_flags(pred, (4.0, 1.0), [blocker]))
    assert flags.tolist() == [False, True, False, False]


def test_no_obstacles_gives_all_false_flags():
    pred = straight(5)
    flags = collision_flags(pred, (4.0, 2.0), [])
    assert flags.dtype == bool and flags.tolist() == [False] * 5
    no_boxes = (np.zeros((0, 5, 2)), np.zeros((0, 1)), np.ones((0, 1)), np.ones((0, 1)))
    ego = (pred.points, ego_headings(pred.points), 4.0, 2.0)
    assert overlap_flags(ego, no_boxes).shape == (0, 5)


def test_short_track_clamps_at_its_end():
    pred = straight(5, speed=2.0)  # x = 1..5
    track = [ObstacleBox((1.0, 5.0), 0.0, 1.0, 1.0), ObstacleBox((4.0, 0.0), 0.0, 1.0, 1.0)]
    flags = collision_flags(pred, (1.0, 1.0), [track])
    assert flags.tolist() == [False, False, True, True, True]
    np.testing.assert_array_equal(flags, reference_collision_flags(pred, (1.0, 1.0), [track]))


def test_collision_flags_reject_bad_ego_extents():
    with pytest.raises(ShapeError):
        collision_flags(straight(3), (0.0, 1.0), [])
    with pytest.raises(ShapeError):
        collision_flags(straight(3), (4.0, math.inf), [])


# --- collision rate ----------------------------------------------------------------


def test_collision_rate_hand_case():
    pred = straight(6, speed=2.0)  # waypoints at x = 1..6
    blocker = ObstacleBox((3.25, 0.0), 0.0, 1.0, 1.0)  # reached at waypoint 3 (t=1.5s)
    rates = collision_rate(pred, (1.0, 1.0), [blocker], [1.0, 2.0, 3.0])
    assert rates == {1.0: 0.0, 2.0: 100.0, 3.0: 100.0}


def test_collision_flags_with_dynamic_obstacle():
    pred = straight(4, speed=2.0)  # x = 1, 2, 3, 4
    # obstacle crosses the path exactly at step 2
    track = [
        ObstacleBox((2.0, 5.0), 0.0, 1.0, 1.0),
        ObstacleBox((2.0, 2.5), 0.0, 1.0, 1.0),
        ObstacleBox((3.0, 0.0), 0.0, 1.0, 1.0),
        ObstacleBox((2.0, -5.0), 0.0, 1.0, 1.0),
    ]
    flags = collision_flags(pred, (1.0, 1.0), [track])
    assert flags.tolist() == [False, False, True, False]


def test_collision_free_run_is_zero_everywhere():
    pred = straight(6)
    rates = collision_rate(pred, (4.0, 2.0), [], [1.0, 2.0, 3.0])
    assert set(rates.values()) == {0.0}


# --- consistency -------------------------------------------------------------------


def _world_path(n):
    xs = np.arange(1, n + 1, dtype=float)
    ys = 0.05 * xs**2
    return np.column_stack([xs, ys])


def test_tpc_zero_for_replanned_same_world_path():
    world = _world_path(7)
    prev_pose = Pose2.identity()
    cur_pose = Pose2.from_heading(0.2, world[0])
    prev_pred = Trajectory(world[:6])
    cur_pred = transform_to_frame(Trajectory(world[1:7]), cur_pose)
    delta = relative_pose(prev_pose, cur_pose)
    mask = overlap_mask(cur_pred, prev_pred, 1)
    assert tpc(cur_pred, prev_pred, delta, mask) == pytest.approx(0.0, abs=1e-9)


def test_tpc_constant_offset_is_one():
    world = _world_path(7)
    prev_pred = Trajectory(world[:6])
    cur_pred = Trajectory(world[1:7] + np.array([0.0, 1.0]))
    mask = overlap_mask(cur_pred, prev_pred, 1)
    value = tpc(cur_pred, prev_pred, Pose2.identity(), mask)
    assert value == pytest.approx(1.0, abs=1e-12)


def test_tpc_single_outlier_among_five():
    world = _world_path(7)
    prev_pred = Trajectory(world[:6])
    shifted = world[1:7].copy()
    shifted[2] += np.array([3.0, 0.0])
    cur_pred = Trajectory(shifted)
    mask = overlap_mask(cur_pred, prev_pred, 1)
    assert mask.true_count == 5
    value = tpc(cur_pred, prev_pred, Pose2.identity(), mask)
    assert value == pytest.approx(math.sqrt(9.0 / 5.0), abs=1e-12)


def test_tpc_all_false_mask_is_skipped():
    traj = straight(3)
    from momentum_planning.trajectory import OverlapMask

    assert tpc(traj, traj, Pose2.identity(), OverlapMask([False, False, False])) is None


def test_tpc_rejects_inconsistent_mask():
    traj = straight(6)
    from momentum_planning.trajectory import OverlapMask

    with pytest.raises(AlignmentError):
        tpc(traj, straight(3), Pose2.identity(), OverlapMask([True] * 6))


# --- candidate quality -------------------------------------------------------------


def _cand_set(trajs):
    k = len(trajs)
    return TrajectorySet(tuple(trajs), np.full(k, 1.0 / k), np.zeros((k, 4)))


def test_min_ade_fde_hand_case():
    gt = straight(4)
    close = Trajectory(gt.points + np.array([0.0, 0.1]))
    far = Trajectory(gt.points + np.array([0.0, 2.0]))
    ade, fde, idx = min_ade_fde(_cand_set([far, close]), gt)
    assert idx == 1
    assert ade == pytest.approx(0.1, abs=1e-12)
    assert fde == pytest.approx(0.1, abs=1e-12)


def test_min_ade_fde_tie_takes_lowest_index():
    gt = straight(4)
    cand = Trajectory(gt.points + np.array([0.0, 0.5]))
    _, _, idx = min_ade_fde(_cand_set([cand, cand]), gt)
    assert idx == 0


def test_min_ade_fde_length_mismatch():
    gt = straight(4)
    with pytest.raises(AlignmentError):
        min_ade_fde(_cand_set([straight(5)]), gt)


# --- losses ------------------------------------------------------------------------


def test_focal_loss_reference_value():
    assert focal_loss(0.5, 1, 0.25, 2.0) == pytest.approx(0.25 * 0.25 * math.log(2.0), abs=1e-15)


def test_focal_loss_negative_class_mirrors():
    assert focal_loss(0.3, 0) == focal_loss(0.7, 1)


def test_focal_loss_domain():
    for bad in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            focal_loss(bad, 1)
    with pytest.raises(ValueError):
        focal_loss(0.5, 2)


def test_combined_losses_unit_terms():
    l1, l2 = combined_losses((1.0, 1.0), (1.0, 1.0), (1.0, 1.0), (1.0, 1.0, 1.0))
    assert l1 == pytest.approx(13.25, abs=1e-12)
    assert l2 == pytest.approx(16.15, abs=1e-12)


def test_combined_losses_zero_terms():
    assert combined_losses((0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0, 0.0)) == (0.0, 0.0)


def test_negative_loss_weight_rejected():
    with pytest.raises(ConfigError):
        LossWeights(det_cls=-1.0)


# --- reports -----------------------------------------------------------------------


def _report(scale=1.0):
    return MetricReport(
        l2={1.0: 0.1 * scale, 2.0: 0.2 * scale},
        collision_rate={1.0: 0.0, 2.0: 100.0 * (scale - 1.0)},
        tpc={1.0: 0.05 * scale, 2.0: 0.5 * scale},
        min_ade=0.3 * scale,
        min_fde=0.7 * scale,
    )


def test_report_csv_layout():
    text = _report().to_csv_text()
    lines = text.strip().split("\n")
    assert lines[0] == "metric,horizon_s,value"
    assert lines[1] == "l2,1.0,0.1"
    assert lines[-1] == "min_fde,,0.7"
    assert len(lines) == 1 + 6 + 2


def test_report_json_round_trip():
    rep = _report(1.3)
    again = MetricReport.from_json_text(rep.to_json_text())
    assert again == rep


def test_mean_reports_averages_each_cell():
    mean = mean_reports([_report(1.0), _report(2.0)])
    assert mean.l2[1.0] == pytest.approx(0.15, abs=1e-15)
    assert mean.min_fde == pytest.approx(0.7 * 1.5, abs=1e-15)


def test_mean_reports_requires_shared_horizons():
    a = _report()
    b = MetricReport(l2={1.0: 0.0}, collision_rate={1.0: 0.0}, tpc={1.0: 0.0}, min_ade=0.0, min_fde=0.0)
    with pytest.raises(AlignmentError):
        mean_reports([a, b])
