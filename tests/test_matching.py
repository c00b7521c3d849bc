import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    outcome,
    reference_directed_hausdorff,
    reference_hausdorff,
    reference_mean_euclidean,
    reference_trajectory_distance,
    reference_ttm_select,
)

from momentum_planning.errors import AlignmentError, EmptyInputError, GeometryError
from momentum_planning.matching import (
    _moved,
    _pair_distances,
    DistanceKind,
    TrajectorySet,
    hausdorff,
    trajectory_distance,
    ttm_select,
)
from momentum_planning.trajectory import Pose2, Trajectory, transform_from_frame

coord = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)


def points_strategy(min_len=1, max_len=10):
    return st.lists(st.tuples(coord, coord), min_size=min_len, max_size=max_len).map(
        lambda rows: np.asarray(rows, dtype=np.float64)
    )


def brute_force_hausdorff(a, b):
    # literal sup-inf enumeration, kept dead simple on purpose
    def directed(xs, ys):
        worst = 0.0
        for ax, ay in xs:
            best = math.inf
            for bx, by in ys:
                dx, dy = ax - bx, ay - by
                d = math.sqrt(dx * dx + dy * dy)
                if d < best:
                    best = d
            if best > worst:
                worst = best
        return worst

    return max(directed(a, b), directed(b, a))


def make_set(trajectories, scores=None):
    k = len(trajectories)
    scores = np.full(k, 1.0 / k) if scores is None else np.asarray(scores, float)
    queries = np.zeros((k, 4))
    return TrajectorySet(tuple(trajectories), scores, queries)


# --- hausdorff ---------------------------------------------------------------------


def test_single_point_pair():
    assert reference_directed_hausdorff([[0.0, 0.0]], [[3.0, 4.0]]) == 5.0
    assert hausdorff([[0.0, 0.0]], [[3.0, 4.0]]) == 5.0


def test_two_point_example():
    a = [[0.0, 0.0], [1.0, 0.0]]
    b = [[0.0, 1.0]]
    assert hausdorff(a, b) == math.sqrt(2.0)


def test_empty_input_rejected():
    with pytest.raises(EmptyInputError):
        hausdorff(np.zeros((0, 2)), [[0.0, 0.0]])


@given(points_strategy(), points_strategy())
@settings(max_examples=150)
def test_matches_brute_force_exactly(a, b):
    assert hausdorff(a, b) == brute_force_hausdorff(a.tolist(), b.tolist())


@given(points_strategy(), points_strategy())
@settings(max_examples=150)
def test_directed_never_exceeds_symmetric(a, b):
    assert reference_directed_hausdorff(a, b) <= hausdorff(a, b)


@given(points_strategy(), points_strategy())
@settings(max_examples=150)
def test_symmetry_exact(a, b):
    assert hausdorff(a, b) == hausdorff(b, a)


@given(points_strategy())
@settings(max_examples=100)
def test_self_distance_zero(a):
    assert hausdorff(a, a) == 0.0


@given(points_strategy(), points_strategy(), points_strategy())
@settings(max_examples=150)
def test_triangle_inequality(a, b, c):
    assert hausdorff(a, c) <= hausdorff(a, b) + hausdorff(b, c) + 1e-9


# --- pointwise mean baseline -------------------------------------------------------


def test_mean_euclidean_identical_is_zero():
    a = np.array([[0.0, 0.0], [1.0, 1.0]])
    assert reference_mean_euclidean(a, a) == 0.0


def test_mean_euclidean_constant_offset():
    a = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    assert reference_mean_euclidean(a, a + [0.0, 0.75]) == pytest.approx(0.75, abs=1e-12)


def test_mean_euclidean_rejects_length_mismatch():
    with pytest.raises(AlignmentError):
        reference_mean_euclidean(np.zeros((3, 2)), np.zeros((4, 2)))


def test_trajectory_distance_resamples_for_pointwise_kind():
    a = Trajectory([[0.0, 0.0], [2.0, 0.0]])
    b = Trajectory([[0.0, 1.0], [1.0, 1.0], [2.0, 1.0]])
    # after resampling both to 3 points the offset is uniformly 1
    assert trajectory_distance(a, b, DistanceKind.MEAN_EUCLIDEAN) == pytest.approx(1.0, abs=1e-12)


# --- selection ---------------------------------------------------------------------


def arc_points(radius, start, sweep, n, center=(0.0, 0.0)):
    ts = np.linspace(start, start + sweep, n)
    return np.column_stack(
        [center[0] + radius * np.cos(ts), center[1] + radius * np.sin(ts)]
    )


def test_single_candidate_returns_zero():
    traj = Trajectory([[1.0, 0.0], [2.0, 0.0]])
    cands = make_set([traj])
    assert ttm_select(cands, traj, Pose2.identity()) == 0


def test_arc_following_candidate_wins():
    # history curves left on a 90 degree arc; the arc-following candidate
    # should beat both straight offsets
    history = Trajectory(arc_points(20.0, -math.pi / 2.0, math.pi / 2.0, 8, center=(0.0, 20.0)))
    arc_like = Trajectory(history.points + np.array([0.05, -0.05]))
    straight_a = Trajectory(np.column_stack([np.linspace(0.0, 25.0, 8), np.zeros(8)]))
    straight_b = Trajectory(np.column_stack([np.linspace(0.0, 25.0, 8), np.full(8, 3.0)]))
    cands = make_set([straight_a, arc_like, straight_b])
    assert ttm_select(cands, history, Pose2.identity(), DistanceKind.HAUSDORFF) == 1


def test_tie_breaks_to_lowest_index():
    traj = Trajectory([[1.0, 1.0], [2.0, 2.0]])
    cands = make_set([traj, traj, traj])
    assert ttm_select(cands, traj, Pose2.identity()) == 0


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_rigid_motion_leaves_selection_invariant(seed):
    rng = np.random.default_rng(seed)
    history = Trajectory(rng.uniform(-10.0, 10.0, size=(6, 2)))
    cands = make_set([Trajectory(rng.uniform(-10.0, 10.0, size=(6, 2))) for _ in range(6)])
    base = ttm_select(cands, history, Pose2.identity())

    motion = Pose2.from_heading(rng.uniform(-math.pi, math.pi), rng.uniform(-20.0, 20.0, 2))
    moved_history = transform_from_frame(history, motion)
    moved_cands = make_set([transform_from_frame(t, motion) for t in cands.trajectories])
    assert ttm_select(moved_cands, moved_history, Pose2.identity()) == base


@st.composite
def matching_cases(draw):
    """K candidates of N waypoints with repeats and exact duplicates, so
    that zero-length segments and distance ties both occur, a history of M
    waypoints (often M != N) and a frame delta."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    k, n, m = draw(st.integers(1, 8)), draw(st.integers(2, 10)), draw(st.integers(2, 10))
    pts = rng.uniform(-10.0, 10.0, (k, n, 2))
    for i in range(1, k):
        if draw(st.booleans()):
            pts[i] = pts[int(rng.integers(0, i))]
    repeat = rng.random((k, n)) < 0.2
    repeat[:, 0] = False
    for i, j in zip(*np.nonzero(repeat)):
        pts[i, j] = pts[i, j - 1]
    history = rng.uniform(-10.0, 10.0, (m, 2))
    if draw(st.booleans()):
        # the history is one of the candidates, so that candidate matches it exactly
        history = pts[int(rng.integers(0, k))][: min(m, n)]
    delta = Pose2.identity() if draw(st.booleans()) else Pose2.from_heading(
        rng.uniform(-math.pi, math.pi), rng.uniform(-5.0, 5.0, 2))
    cands = make_set([Trajectory(p) for p in pts])
    return cands, Trajectory(history), delta, draw(st.sampled_from(list(DistanceKind)))


@given(matching_cases())
@settings(max_examples=400, deadline=None)
def test_batched_ttm_matches_per_candidate_reference(case):
    cands, history, delta, kind = case
    assert ttm_select(cands, history, delta, kind) == reference_ttm_select(cands, history, delta, kind)


def test_ragged_set_is_rejected():
    with pytest.raises(AlignmentError):
        make_set([Trajectory(np.zeros((3, 2))), Trajectory(np.zeros((4, 2)))])
    with pytest.raises(AlignmentError):
        make_set([Trajectory(np.zeros((3, 2)), dt=0.5), Trajectory(np.zeros((3, 2)), dt=0.25)])


def test_set_keeps_one_read_only_stack():
    rows = np.arange(12.0).reshape(2, 3, 2)
    cands = make_set([Trajectory(r) for r in rows])
    assert cands.points.shape == (2, 3, 2) and not cands.points.flags.writeable
    np.testing.assert_array_equal(cands.points, rows)
    for traj, row in zip(cands.trajectories, cands.points):
        assert np.shares_memory(traj.points, row)


def test_overflowing_distances_tie_to_first_index():
    # every distance overflows to inf, a tie like any other: index 0 wins
    far = Trajectory([[-1e308, 0.0], [-1e308, 1.0]])
    history = Trajectory([[1e308, 0.0], [1e308, 1.0]])
    cands = make_set([far, far, far])
    with np.errstate(over="ignore"):
        for kind in DistanceKind:
            assert ttm_select(cands, history, Pose2.identity(), kind) == 0


# ---------------------------------------------------------------------------
# the stacked TTM kernel: ttm_select is its one-frame call, a rollout's
# momentum selection calls it over frame blocks


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(list(DistanceKind)), st.integers(1, 3), st.integers(1, 16), st.integers(1, 16),
       st.integers(2, 20), st.integers(2, 20), st.integers(0, 2**32 - 1))
def test_pair_distances_equal_trajectory_distance(kind, f, k, k_prev, n, m, seed):
    rng = np.random.default_rng(seed)
    m = n if kind is DistanceKind.MEAN_EUCLIDEAN else m
    moved = np.cumsum(rng.normal(1.0, 0.5, (f, k, n, 2)), axis=2)
    plans = np.cumsum(rng.normal(1.0, 0.5, (f, k_prev, m, 2)), axis=2)
    plans[:, 0, : min(n, m)] = moved[:, -1, : min(n, m)]
    dist = _pair_distances(moved, plans, kind)
    assert dist.shape == (f, k, k_prev)
    for j, a, b in np.ndindex(*dist.shape):
        expected = reference_trajectory_distance(Trajectory(moved[j, a]), Trajectory(plans[j, b]), kind)
        assert dist[j, a, b] == expected


def _ttm_table(points, plans, kind):
    # the TTM picks of the stacked selection for one frame, no frame delta
    moved = _moved(points[None], np.eye(2)[None], np.zeros((1, 2)))
    return _pair_distances(moved, plans[None], kind).argmin(axis=1)[0].tolist()


@pytest.mark.parametrize("kind", list(DistanceKind))
def test_ttm_pick_ties_go_to_the_lowest_index(kind):
    line = np.column_stack([np.arange(1.0, 7.0), np.zeros(6)])
    # candidates 1 and 2 are one plan, the nearest to previous plan 0
    cands = make_set([Trajectory(p) for p in (line + (0.0, 3.0), line + (0.0, 0.5), line + (0.0, 0.5), line)])
    plans = np.stack([line + (0.0, 0.4), line - (0.0, 0.2)])
    assert _ttm_table(cands.points, plans, kind) == [1, 3]
    assert ttm_select(cands, Trajectory(plans[0]), Pose2.identity(), kind) == 1


@pytest.mark.parametrize("kind", list(DistanceKind))
def test_ttm_pick_is_index_0_when_every_distance_overflows(kind):
    line = np.column_stack([np.arange(1.0, 7.0), np.zeros(6)])
    cands = make_set([Trajectory(line + (1e200, 0.0)), Trajectory(line + (2e200, 0.0))])
    plans = (line - (1e200, 0.0))[None]
    moved = _moved(cands.points[None], np.eye(2)[None], np.zeros((1, 2)))
    with np.errstate(over="ignore"):
        assert np.isinf(_pair_distances(moved, plans[None], kind)).all()
        assert _ttm_table(cands.points, plans, kind) == [0]
        assert ttm_select(cands, Trajectory(plans[0]), Pose2.identity(), kind) == 0


def test_candidate_moved_out_of_range_raises_geometry_error():
    line = np.column_stack([np.arange(1.0, 7.0), np.zeros(6)])
    cands = make_set([Trajectory(line + (1e308, 0.0)), Trajectory(line)])
    rotation, translation = np.eye(2)[None], np.array([[-1e308, 0.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(GeometryError):
            _moved(cands.points[None], rotation, translation)
        with pytest.raises(GeometryError):
            ttm_select(cands, Trajectory(line), Pose2(rotation[0], translation[0]), DistanceKind.HAUSDORFF)


# ---------------------------------------------------------------------------
# the one-pair calls against the verbatim per-pair oracles: equal values,
# or the same error type for bad input, over seeded draws


def _draw_points(rng, n):
    """``n`` waypoints: a random walk, sometimes with repeats or all on one
    spot, so that zero distances and ties occur."""
    pts = np.cumsum(rng.normal(0.0, rng.choice([0.01, 1.0, 30.0]), (n, 2)), axis=0)
    if n > 1 and rng.random() < 0.2:
        pts[rng.integers(1, n)] = pts[0]
    if rng.random() < 0.05:
        pts[:] = pts[0]
    return pts


def test_hausdorff_equals_the_per_pair_oracle_over_seeded_draws():
    rng = np.random.default_rng(1401)
    errors = 0
    for _ in range(3000):
        a, b = _draw_points(rng, int(rng.integers(1, 26))), _draw_points(rng, int(rng.integers(1, 26)))
        if rng.random() < 0.5:
            a, b = Trajectory(a), Trajectory(b)
        elif rng.random() < 0.2:
            a, b = a.tolist(), b.tolist()
        bad = rng.random()
        if bad < 0.03:
            a = np.zeros((0, 2))
        elif bad < 0.06:
            b = np.zeros((4, 3))
        expected = outcome(reference_hausdorff, a, b)
        assert outcome(hausdorff, a, b) == expected
        errors += expected[0] == "raises"
    assert 100 < errors < 300


def test_trajectory_distance_equals_the_per_pair_oracle_over_seeded_draws():
    rng = np.random.default_rng(1402)
    errors = 0
    for i in range(3000):
        kind = list(DistanceKind)[i % 2]
        kind = kind.value if rng.random() < 0.2 else kind
        n = int(rng.integers(1, 21))
        m = n if rng.random() < 0.3 else int(rng.integers(1, 21))
        a, b = Trajectory(_draw_points(rng, n)), Trajectory(_draw_points(rng, m))
        expected = outcome(reference_trajectory_distance, a, b, kind)
        assert outcome(trajectory_distance, a, b, kind) == expected
        errors += expected[0] == "raises"
    # the pointwise mean cannot resample a single waypoint
    assert 50 < errors < 300
