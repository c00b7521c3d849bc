import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    outcome,
    reference_boxes_overlap,
    reference_collision_flags,
    reference_fold_report,
    reference_l2_error,
    reference_min_ade_fde,
    reference_tpc,
)

from momentum_planning.errors import (
    AlignmentError,
    ConfigError,
    GeometryError,
    HorizonError,
    ShapeError,
)
from momentum_planning.matching import TrajectorySet
from momentum_planning.metrics import (
    MAX_OBSTACLE_COORD_M,
    L2Protocol,
    LossWeights,
    MetricReport,
    ObstacleBox,
    _fold_report,
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
from momentum_planning.simulator import MAX_HORIZON_STEPS
from momentum_planning.trajectory import (
    OverlapMask,
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


@pytest.mark.parametrize("horizon", [math.inf, -math.inf, math.nan, 1e308, -1e308])
def test_non_finite_and_overflowing_horizons_raise_horizon_error(horizon):
    # horizon / dt is inf or nan here, which round() refuses with
    # OverflowError or a bare ValueError
    t = straight(6)
    with pytest.raises(HorizonError):
        l2_error(t, t, [horizon])
    with pytest.raises(HorizonError):
        collision_rate(t, (1, 1), [], [horizon])


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


def test_box_center_is_bounded_on_each_axis():
    bound, past = MAX_OBSTACLE_COORD_M, math.nextafter(MAX_OBSTACLE_COORD_M, math.inf)
    assert ObstacleBox((bound, -bound), 0.0, 1.0, 1.0).center == (bound, -bound)
    for center in ((past, 0.0), (0.0, -past), (1.7e308, 1.7e308)):
        with pytest.raises(ShapeError, match="center"):
            ObstacleBox(center, 0.0, 1.0, 1.0)


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


def test_kernel_matches_the_pairwise_test_on_random_and_near_contact_pairs():
    rng = np.random.default_rng(12)
    n_random, n_near = 20_000, 4_000

    def extents(n):
        return rng.uniform(0.5, 5.0, n), rng.uniform(0.5, 3.0, n)

    # random pairs, about half of them overlapping
    la, wa = extents(n_random)
    lb, wb = extents(n_random)
    random_a = (rng.uniform(-3.0, 3.0, (n_random, 2)), rng.uniform(-math.pi, math.pi, n_random), la, wa)
    random_b = (rng.uniform(-3.0, 3.0, (n_random, 2)), rng.uniform(-math.pi, math.pi, n_random), lb, wb)

    # pairs at a shared heading, b moved from a along the length or the
    # width normal to the sum of the half extents -1e-9 (touching) or +1e-9
    # (apart), with a sideways offset that keeps the other axis overlapping
    heading = rng.uniform(-math.pi, math.pi, n_near)
    la_n, wa_n = extents(n_near)
    lb_n, wb_n = extents(n_near)
    along_length = rng.random(n_near) < 0.5
    gap = np.where(rng.random(n_near) < 0.5, -1e-9, 1e-9)
    reach = np.where(along_length, la_n + lb_n, wa_n + wb_n) / 2.0 + gap
    side = np.where(along_length, wa_n + wb_n, la_n + lb_n) / 2.0 * rng.uniform(-0.9, 0.9, n_near)
    u = np.stack([np.cos(heading), np.sin(heading)], axis=-1)
    v = np.stack([-np.sin(heading), np.cos(heading)], axis=-1)
    center_a = rng.uniform(-3.0, 3.0, (n_near, 2))
    offset = np.where(along_length[:, None], reach[:, None] * u + side[:, None] * v,
                      reach[:, None] * v + side[:, None] * u)
    near_a = (center_a, heading, la_n, wa_n)
    near_b = (center_a + offset, heading, lb_n, wb_n)

    a = tuple(np.concatenate(parts) for parts in zip(random_a, near_a))
    b = tuple(np.concatenate(parts) for parts in zip(random_b, near_b))
    flags = overlap_flags(a, b)
    expected = [
        reference_boxes_overlap(ObstacleBox(tuple(a[0][i]), a[1][i], a[2][i], a[3][i]),
                                ObstacleBox(tuple(b[0][i]), b[1][i], b[2][i], b[3][i]))
        for i in range(len(flags))
    ]
    assert flags.tolist() == expected
    np.testing.assert_array_equal(flags[n_random:], gap < 0.0)
    assert 0.3 < flags[:n_random].mean() < 0.7


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
    assert int(mask.flags.sum()) == 5
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


def test_tpc_rejects_a_negative_frame_gap():
    # as overlap_mask does; a negative gap used to wrap around to the
    # previous plan's last waypoints
    traj = straight(6)
    with pytest.raises(GeometryError):
        tpc(traj, traj, Pose2.identity(), overlap_mask(traj, traj, 0), -1)


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


def test_mean_reports_averages_each_cell():
    mean = mean_reports([_report(1.0), _report(2.0)])
    assert mean.l2[1.0] == pytest.approx(0.15, abs=1e-15)
    assert mean.min_fde == pytest.approx(0.7 * 1.5, abs=1e-15)


@st.composite
def folded_rows(draw):
    f = draw(st.integers(0, 12))
    n = draw(st.integers(2, MAX_HORIZON_STEPS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    hits = rng.random((f, n)) < draw(st.sampled_from([0.0, 0.05, 0.5]))
    horizons = draw(st.lists(st.integers(1, n), min_size=1, max_size=4, unique=True))
    return (tuple(0.5 * s for s in horizons), 0.5, draw(st.sampled_from(list(L2Protocol))),
            rng.exponential(size=(f, n)), hits, rng.exponential(size=(max(f - 1, 0), n - 1)),
            float(rng.exponential()), float(rng.exponential()))


@settings(max_examples=200, deadline=None)
@given(folded_rows())
def test_fold_report_equals_the_per_horizon_loop(rows):
    # hits all false takes the no-hit shortcut: 0.0 per horizon, nan over no frames
    assert _fold_report(*rows).to_csv_text() == reference_fold_report(*rows).to_csv_text()


def test_mean_reports_requires_shared_horizons():
    a = _report()
    b = MetricReport(l2={1.0: 0.0}, collision_rate={1.0: 0.0}, tpc={1.0: 0.0}, min_ade=0.0, min_fde=0.0)
    with pytest.raises(AlignmentError):
        mean_reports([a, b])


# ---------------------------------------------------------------------------
# the one-trajectory calls against their verbatim per-trajectory oracles:
# equal values, or the same error type for bad input, over seeded draws


def _walk(rng, n):
    """``n`` waypoints of a random walk at a random scale."""
    return np.cumsum(rng.normal(0.5, rng.choice([0.01, 1.0, 30.0]), (n, 2)), axis=0)


def _horizons(rng, dt, available):
    """One to four horizons: mostly multiples of ``dt`` within ``available``
    waypoints, some beyond them, some no multiple, zero or negative."""
    out = []
    for _ in range(int(rng.integers(1, 5))):
        r = rng.random()
        if r < 0.9:
            out.append(float(rng.integers(1, available + 1)) * dt)
        elif r < 0.94:
            out.append(float(rng.integers(available + 1, 23)) * dt)
        elif r < 0.97:
            out.append(float(rng.integers(1, 20)) * dt + 0.3 * dt)
        else:
            out.append(float(rng.integers(-2, 1)) * dt)
    return out


def test_l2_error_equals_the_per_trajectory_oracle_over_seeded_draws():
    rng = np.random.default_rng(1403)
    values = 0
    for i in range(3000):
        protocol = list(L2Protocol)[i % 2]
        protocol = protocol.value if rng.random() < 0.2 else protocol
        dt = float(rng.choice([0.5, 0.25, 0.1]))
        pred = Trajectory(_walk(rng, int(rng.integers(1, 21))), dt=dt)
        if rng.random() < 0.1:
            gt = pred
        else:
            gt = Trajectory(_walk(rng, int(rng.integers(1, 21))), dt=dt if rng.random() < 0.95 else 2.0 * dt)
        horizons = _horizons(rng, dt, min(len(pred), len(gt)))
        expected = outcome(reference_l2_error, pred, gt, horizons, protocol)
        assert outcome(l2_error, pred, gt, horizons, protocol) == expected
        values += expected[0] == "value"
    assert 600 < values < 2400


def test_tpc_equals_the_per_trajectory_oracle_over_seeded_draws():
    rng = np.random.default_rng(1404)
    counts = {"value": 0, "none": 0, "raises": 0}
    for _ in range(3000):
        n, m = int(rng.integers(1, 21)), int(rng.integers(1, 21))
        cur, prev = Trajectory(_walk(rng, n)), Trajectory(_walk(rng, m))
        gap = int(rng.integers(0, 3))
        r = rng.random()
        if r < 0.15:
            flags = np.zeros(n, dtype=bool)
        elif r < 0.6:
            flags = np.arange(n) + gap < m
        elif r < 0.95:
            flags = (rng.random(n) < 0.5) & (np.arange(n) + gap < m)
        else:
            flags = rng.random(n + 1) < 0.5
        if rng.random() < 0.05:
            flags = np.ones(n, dtype=bool)
        delta = Pose2.from_heading(rng.uniform(-math.pi, math.pi), rng.normal(0.0, 5.0, 2))
        if rng.random() < 0.1:
            delta = Pose2.identity()
        args = (cur, prev, delta, OverlapMask(flags), gap)
        expected = outcome(reference_tpc, *args)
        assert outcome(tpc, *args) == expected
        counts["none" if expected == ("value", None) else expected[0]] += 1
    assert min(counts.values()) > 100


def test_min_ade_fde_equals_the_per_candidate_oracle_over_seeded_draws():
    rng = np.random.default_rng(1405)
    errors = 0
    for _ in range(3000):
        k, n = int(rng.integers(1, 17)), int(rng.integers(1, 21))
        points = np.stack([_walk(rng, n) for _ in range(k)])
        if k > 1 and rng.random() < 0.2:
            points[int(rng.integers(1, k))] = points[0]
        gt = Trajectory(points[0] if rng.random() < 0.1 else _walk(rng, n))
        if rng.random() < 0.05:
            gt = Trajectory(_walk(rng, n + 1))
        cands = TrajectorySet.from_points(points, np.full(k, 1.0 / k), np.zeros((k, 4)))
        expected = outcome(reference_min_ade_fde, cands, gt)
        assert outcome(min_ade_fde, cands, gt) == expected
        errors += expected[0] == "raises"
    assert 50 < errors < 300
