import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentum_planning.errors import (
    AlignmentError,
    EmptyInputError,
    GeometryError,
    InvalidPoseError,
)
from momentum_planning.trajectory import (
    OverlapMask,
    Pose2,
    Trajectory,
    overlap_mask,
    relative_pose,
    resample,
    _mean,
    rotation_matrix,
    trajectory_from_dict,
    trajectory_to_dict,
    transform_from_frame,
    transform_to_frame,
)

coord = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)
angle = st.floats(-math.pi, math.pi, allow_nan=False, allow_infinity=False)


def points_strategy(min_len=1, max_len=12):
    return st.lists(st.tuples(coord, coord), min_size=min_len, max_size=max_len).map(
        lambda rows: np.asarray(rows, dtype=np.float64)
    )


def pose_strategy():
    return st.tuples(angle, coord, coord).map(
        lambda args: Pose2.from_heading(args[0], (args[1], args[2]))
    )


# --- construction and validation -------------------------------------------------


def test_trajectory_rejects_empty():
    with pytest.raises(EmptyInputError):
        Trajectory(np.zeros((0, 2)))


def test_trajectory_rejects_nonfinite():
    with pytest.raises(GeometryError):
        Trajectory(np.array([[0.0, np.nan]]))
    with pytest.raises(GeometryError):
        Trajectory(np.array([[0.0, 0.0]]), dt=0.0)


def test_pose_rejects_shear():
    with pytest.raises(InvalidPoseError):
        Pose2(np.array([[1.0, 0.1], [0.0, 1.0]]), np.zeros(2))


def test_pose_rejects_reflection():
    with pytest.raises(InvalidPoseError):
        Pose2(np.array([[1.0, 0.0], [0.0, -1.0]]), np.zeros(2))


def test_pose_accepts_rotations_within_tolerance():
    pose = Pose2.from_heading(0.3, (1.0, 2.0))
    assert pose.heading() == pytest.approx(0.3)


def _stretched(x):
    # R^T R = diag((1+x)^2, (1-x)^2): diagonal off by about 2x, det 1 - x^2
    return np.diag([1.0 + x, 1.0 - x]) @ rotation_matrix(0.7)


def _sheared(e):
    # R^T R = [[1, e], [e, 1 + e^2]], det exactly 1: off-diagonal only
    return np.array([[1.0, e], [0.0, 1.0]])


def _scaled(s2):
    # R^T R = s^2 I and det = s^2: both checks see the same deviation, the
    # most a matrix within the orthonormality tolerance can move its
    # determinant; the determinant check itself separates reflections
    return math.sqrt(1.0 + s2) * rotation_matrix(-2.1)


@pytest.mark.parametrize(
    "rotation",
    [
        _stretched(0.45e-9),
        _stretched(-0.45e-9),
        _sheared(0.9e-9),
        _scaled(0.9e-9),
        _scaled(-0.9e-9),
    ],
    ids=["stretch+", "stretch-", "shear", "det+", "det-"],
)
def test_pose_accepts_rotation_just_inside_tolerance(rotation):
    Pose2(rotation, np.zeros(2))


@pytest.mark.parametrize(
    "rotation",
    [
        _stretched(0.55e-9),
        _stretched(-0.55e-9),
        _sheared(1.1e-9),
        _scaled(1.1e-9),
        _scaled(-1.1e-9),
        _scaled(0.9e-9) @ np.diag([1.0, -1.0]),
    ],
    ids=["stretch+", "stretch-", "shear", "det+", "det-", "reflection"],
)
def test_pose_rejects_rotation_just_outside_tolerance(rotation):
    with pytest.raises(InvalidPoseError):
        Pose2(rotation, np.zeros(2))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["rotation", "translation"])
def test_pose_rejects_non_finite_entries(bad, where):
    rot, trans = np.eye(2), np.zeros(2)
    (rot if where == "rotation" else trans).flat[1] = bad
    with pytest.raises(InvalidPoseError, match="non-finite"):
        Pose2(rot, trans)


# one pose's edits: a bad rotation or translation entry, or a rotation the
# tolerance accepts or refuses
POSE_EDITS = {
    "nan_rotation": lambda r, t: (np.where(np.eye(2) > 0, r, math.nan), t),
    "inf_rotation": lambda r, t: (np.full((2, 2), math.inf), t),
    "nan_translation": lambda r, t: (r, np.array([t[0], math.nan])),
    "inf_translation": lambda r, t: (r, np.array([-math.inf, t[1]])),
    "shear": lambda r, t: (_sheared(0.1), t),
    "reflection": lambda r, t: (np.diag([1.0, -1.0]), t),
    "near_reflection": lambda r, t: (_scaled(0.9e-9) @ np.diag([1.0, -1.0]), t),
    "inside_stretch": lambda r, t: (_stretched(0.45e-9), t),
    "inside_shear": lambda r, t: (_sheared(0.9e-9), t),
    "inside_det": lambda r, t: (_scaled(-0.9e-9), t),
    "outside_stretch": lambda r, t: (_stretched(-0.55e-9), t),
    "outside_shear": lambda r, t: (_sheared(1.1e-9), t),
    "outside_det": lambda r, t: (_scaled(1.1e-9), t),
}


def _raised(fn, *args):
    """The exact type and message of the error a call raises, None if it
    returns."""
    try:
        fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 60), st.integers(0, 2**32 - 1),
       st.lists(st.tuples(st.sampled_from(sorted(POSE_EDITS)), st.floats(0.0, 1.0)), max_size=3))
def test_stacked_poses_equal_one_pose_calls(f, seed, edits):
    # the stacked check raises the first bad pose's own error, and a good
    # stack gives the poses Pose2 gives, as read-only views of the stacks
    rng = np.random.default_rng(seed)
    rot = np.array([rotation_matrix(h) for h in rng.uniform(-math.pi, math.pi, f).tolist()])
    xy = rng.uniform(-1e3, 1e3, (f, 2))
    for name, where in edits:
        j = min(int(where * f), f - 1)
        rot[j], xy[j] = POSE_EDITS[name](rot[j], xy[j])
    expected = next(filter(None, (_raised(Pose2, r.copy(), t.copy()) for r, t in zip(rot, xy))), None)
    assert _raised(Pose2.per_frame, rot.copy(), xy.copy()) == expected
    if expected is None:
        poses = Pose2.per_frame(rot, xy)
        assert len(poses) == f
        for pose, r, t in zip(poses, rot.copy(), xy.copy()):
            one = Pose2(r, t)
            for got, want in ((pose.rotation, one.rotation), (pose.translation, one.translation)):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
                assert not got.flags.writeable
            assert pose.heading() == one.heading()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 9), min_size=1, max_size=4), st.data())
def test_mean_equals_ndarray_mean_bit_for_bit(shape, data):
    x = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).standard_normal(shape)
    x *= 10.0 ** data.draw(st.integers(-300, 300))
    axis = data.draw(st.integers(-len(shape), len(shape) - 1))
    keepdims = data.draw(st.booleans())
    assert _mean(x, axis, keepdims).tobytes() == x.mean(axis=axis, keepdims=keepdims).tobytes()


# --- frame transforms -------------------------------------------------------------


def test_identity_pose_is_noop():
    traj = Trajectory([[1.0, 2.0], [3.0, 4.0]])
    out = transform_to_frame(traj, Pose2.identity())
    np.testing.assert_array_equal(out.points, traj.points)


def test_pure_translation():
    traj = Trajectory([[1.0, 0.0]])
    pose = Pose2(np.eye(2), np.array([1.0, 0.0]))
    out = transform_to_frame(traj, pose)
    np.testing.assert_allclose(out.points, [[0.0, 0.0]], atol=1e-15)


def test_quarter_turn_maps_unit_x_to_unit_y():
    # a frame rotated -90deg sees the world +x axis as its +y axis
    traj = Trajectory([[1.0, 0.0]])
    pose = Pose2.from_heading(-math.pi / 2.0)
    out = transform_to_frame(traj, pose)
    np.testing.assert_allclose(out.points, [[0.0, 1.0]], atol=1e-12)


@given(points_strategy(), pose_strategy())
@settings(max_examples=200)
def test_transform_round_trip_identity(pts, pose):
    traj = Trajectory(pts)
    back = transform_from_frame(transform_to_frame(traj, pose), pose)
    np.testing.assert_allclose(back.points, traj.points, atol=1e-9)


@given(points_strategy(min_len=2), pose_strategy())
@settings(max_examples=200)
def test_transform_preserves_pairwise_distances(pts, pose):
    traj = Trajectory(pts)
    moved = transform_to_frame(traj, pose)
    d_before = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    mp = moved.points
    d_after = np.linalg.norm(mp[:, None, :] - mp[None, :, :], axis=-1)
    np.testing.assert_allclose(d_after, d_before, atol=1e-9)


def test_relative_pose_of_equal_poses_is_identity():
    pose = Pose2.from_heading(0.7, (3.0, -2.0))
    rel = relative_pose(pose, pose)
    np.testing.assert_allclose(rel.rotation, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(rel.translation, np.zeros(2), atol=1e-12)


def test_relative_pose_forward_step():
    # ego moved 1 m forward along +x between frames: a point at the current
    # origin sits 1 m ahead of the previous origin
    prev = Pose2.identity()
    cur = Pose2(np.eye(2), np.array([1.0, 0.0]))
    rel = relative_pose(prev, cur)
    origin = Trajectory([[0.0, 0.0]])
    in_prev = transform_to_frame(origin, rel)
    np.testing.assert_allclose(in_prev.points, [[1.0, 0.0]], atol=1e-12)


@given(points_strategy(), pose_strategy(), pose_strategy())
@settings(max_examples=200)
def test_relative_pose_matches_world_composition(pts, prev, cur):
    traj_cur = Trajectory(pts)
    rel = relative_pose(prev, cur)
    via_rel = transform_to_frame(traj_cur, rel)
    # oracle: lift into the world frame, then drop into the previous frame
    world = pts @ cur.rotation.T + cur.translation
    direct = (world - prev.translation) @ prev.rotation
    np.testing.assert_allclose(via_rel.points, direct, atol=1e-9)


# --- resampling --------------------------------------------------------------------


def _arc_point(pts, target):
    # independent arc-length walker used as the resampling oracle
    remaining = target
    for a, b in zip(pts[:-1], pts[1:]):
        seg = math.dist(a, b)
        if remaining <= seg or seg == 0.0:
            if seg == 0.0:
                continue
            frac = remaining / seg
            return (a[0] + frac * (b[0] - a[0]), a[1] + frac * (b[1] - a[1]))
        remaining -= seg
    return tuple(pts[-1])


def test_resample_straight_segment_midpoint():
    traj = Trajectory([[0.0, 0.0], [1.0, 0.0]])
    out = resample(traj, 3)
    np.testing.assert_allclose(out.points, [[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]], atol=1e-15)


def test_resample_right_angle_against_walker_oracle():
    pts = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)]
    traj = Trajectory(pts)
    out = resample(traj, 5)
    total = 2.0
    expect = [_arc_point(pts, f * total) for f in (0.0, 0.25, 0.5, 0.75, 1.0)]
    np.testing.assert_allclose(out.points, expect, atol=1e-9)


@given(points_strategy(min_len=2, max_len=10))
@settings(max_examples=200)
def test_resample_same_length_is_identity(pts):
    traj = Trajectory(pts)
    out = resample(traj, len(traj))
    np.testing.assert_allclose(out.points, traj.points, atol=1e-12)


@given(points_strategy(min_len=2, max_len=10), st.integers(2, 15))
@settings(max_examples=200)
def test_resample_idempotent(pts, n):
    traj = Trajectory(pts)
    once = resample(traj, n)
    twice = resample(once, n)
    np.testing.assert_allclose(twice.points, once.points, atol=1e-9)


@given(points_strategy(min_len=2, max_len=10), st.integers(2, 15))
@settings(max_examples=200)
def test_resample_preserves_endpoints(pts, n):
    traj = Trajectory(pts)
    out = resample(traj, n)
    np.testing.assert_array_equal(out.points[0], traj.points[0])
    np.testing.assert_array_equal(out.points[-1], traj.points[-1])


def test_resample_rejects_degenerate_inputs():
    with pytest.raises(GeometryError):
        resample(Trajectory([[0.0, 0.0]]), 4)
    with pytest.raises(GeometryError):
        resample(Trajectory([[0.0, 0.0], [1.0, 0.0]]), 1)


# --- overlap masks -----------------------------------------------------------------


def test_overlap_mask_six_with_gap_one():
    cur = Trajectory(np.zeros((6, 2)))
    prev = Trajectory(np.ones((6, 2)))
    mask = overlap_mask(cur, prev, 1)
    assert mask.flags.tolist() == [True] * 5 + [False]


@given(st.integers(1, 20), st.integers(1, 20), st.integers(0, 25))
def test_overlap_mask_true_count_formula(n_cur, n_prev, gap):
    cur = Trajectory(np.zeros((n_cur, 2)))
    prev = Trajectory(np.zeros((n_prev, 2)))
    mask = overlap_mask(cur, prev, gap)
    assert len(mask) == n_cur
    assert int(mask.flags.sum()) == max(0, min(n_cur, n_prev - gap))


def test_overlap_mask_rejects_dt_mismatch():
    cur = Trajectory(np.zeros((3, 2)), dt=0.5)
    prev = Trajectory(np.zeros((3, 2)), dt=0.25)
    with pytest.raises(AlignmentError):
        overlap_mask(cur, prev, 1)


# --- serialization -----------------------------------------------------------------


@given(points_strategy(), st.floats(0.1, 2.0, allow_nan=False))
@settings(max_examples=100)
def test_trajectory_json_round_trip_exact(pts, dt):
    traj = Trajectory(pts, dt=dt)
    wire = json.dumps(trajectory_to_dict(traj))
    back = trajectory_from_dict(json.loads(wire))
    np.testing.assert_array_equal(back.points, traj.points)
    assert back.dt == traj.dt


def test_trajectory_dict_shape():
    traj = Trajectory([[1.5, -2.25]], dt=0.5)
    assert trajectory_to_dict(traj) == {"dt": 0.5, "points": [[1.5, -2.25]]}
