import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentum_planning.errors import AlignmentError, EmptyInputError
from momentum_planning.matching import (
    DistanceKind,
    TrajectorySet,
    directed_hausdorff,
    hausdorff,
    mean_euclidean,
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
    assert directed_hausdorff([[0.0, 0.0]], [[3.0, 4.0]]) == 5.0
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
    assert directed_hausdorff(a, b) <= hausdorff(a, b)


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
    assert mean_euclidean(a, a) == 0.0


def test_mean_euclidean_constant_offset():
    a = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    assert mean_euclidean(a, a + [0.0, 0.75]) == pytest.approx(0.75, abs=1e-12)


def test_mean_euclidean_rejects_length_mismatch():
    with pytest.raises(AlignmentError):
        mean_euclidean(np.zeros((3, 2)), np.zeros((4, 2)))


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
