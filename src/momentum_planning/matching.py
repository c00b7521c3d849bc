"""Trajectory-set distances and history-consistent candidate selection.

The selector re-expresses every candidate in the frame the historical
trajectory was planned in, scores each one by a set distance, and keeps the
closest.  Hausdorff is the default because it penalizes the worst-aligned
stretch of a candidate; the pointwise-mean baseline is retained for
ablations and is sensitive to where samples happen to bunch up.

Both distances have one definition, ``_pair_distances``, over stacked
(frame, candidate, plan) arrays: a rollout's selection calls it over frame
blocks, ``ttm_select`` on one frame, and ``hausdorff`` and
``trajectory_distance`` on one pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import AlignmentError, EmptyInputError, GeometryError, ShapeError
from .trajectory import DEFAULT_DT, Pose2, Trajectory, _to_frame, resample
from .trajectory import transform_to_frame  # noqa: F401

# nothing here calls transform_to_frame; it stays importable on this module
# because bench/tracing.py wraps it here.


class DistanceKind(str, Enum):
    HAUSDORFF = "hausdorff"
    MEAN_EUCLIDEAN = "euclidean"


@dataclass(frozen=True, init=False, eq=False)
class TrajectorySet:
    """K candidate plans with scores and per-candidate query embeddings.

    Every candidate has the same N waypoints and the same dt; a ragged or
    mixed-rate set raises ``AlignmentError``.  The waypoints are kept once,
    as the read-only (K, N, 2) array ``points`` that batched selection and
    scoring read; ``trajectories`` wraps its rows as ``Trajectory`` views
    the first time it is asked for.
    """

    points: np.ndarray
    dt: float
    scores: np.ndarray
    queries: np.ndarray

    def __init__(self, trajectories, scores, queries):
        trajs = tuple(trajectories)
        if len(trajs) < 1:
            raise EmptyInputError("candidate set needs at least one trajectory")
        lengths = {len(t) for t in trajs}
        if len(lengths) != 1:
            raise AlignmentError(f"candidates must share one length, got {sorted(lengths)}")
        dts = {t.dt for t in trajs}
        if len(dts) != 1:
            raise AlignmentError(f"candidates must share one dt, got {sorted(dts)}")
        built = TrajectorySet.from_points(np.stack([t.points for t in trajs]), scores, queries, trajs[0].dt)
        for name in ("points", "dt", "scores", "queries"):
            object.__setattr__(self, name, getattr(built, name))

    @classmethod
    def from_points(cls, points, scores, queries, dt: float = DEFAULT_DT) -> "TrajectorySet":
        """A set over a (K, N, 2) stack of waypoints sampled every ``dt``;
        the points are copied."""
        pts = np.array(points, dtype=np.float64)
        if pts.ndim != 3:
            raise ShapeError(f"expected (K, N, 2) points, got shape {pts.shape}")
        scores = np.asarray(scores, dtype=np.float64).reshape(1, -1)
        queries = np.asarray(queries, dtype=np.float64)[None]
        return cls.per_frame(pts[None], scores, queries, dt)[0]

    @classmethod
    def per_frame(cls, points, scores, queries, dt: float = DEFAULT_DT) -> tuple["TrajectorySet", ...]:
        """One set per frame of an (F, K, N, 2) waypoint stack sampled every
        ``dt``, with (F, K) scores and (F, K, D) queries.

        The stacks are checked once, as a whole, with the checks each set
        would make, then made read-only; they are not copied, and every set
        holds views of their rows.
        """
        pts = np.asarray(points, dtype=np.float64)
        scores = np.asarray(scores, dtype=np.float64)
        queries = np.asarray(queries, dtype=np.float64)
        if pts.ndim != 4 or pts.shape[3] != 2:
            raise ShapeError(f"expected (K, N, 2) points per frame, got shape {pts.shape}")
        f, k = pts.shape[:2]
        if k < 1:
            raise EmptyInputError("candidate set needs at least one trajectory")
        if scores.shape != (f, k):
            raise ShapeError(f"{k} candidates per frame but scores of shape {scores.shape}")
        if queries.ndim != 3 or queries.shape[:2] != (f, k):
            raise ShapeError(f"queries must be (K, D) per frame, got {queries.shape} for K={k}")
        # the checks each candidate's Trajectory would make, in one pass
        Trajectory(pts.reshape(-1, 2), dt)
        if not (np.isfinite(scores).all() and np.isfinite(queries).all()):
            raise ShapeError("scores and queries must be finite")
        for array in (pts, scores, queries):
            array.setflags(write=False)
        sets = []
        for p, s, q in zip(pts, scores, queries):
            out = cls.__new__(cls)
            object.__setattr__(out, "points", p)
            object.__setattr__(out, "dt", dt)
            object.__setattr__(out, "scores", s)
            object.__setattr__(out, "queries", q)
            sets.append(out)
        return tuple(sets)

    @cached_property
    def trajectories(self) -> tuple[Trajectory, ...]:
        return tuple(Trajectory(p, dt=self.dt) for p in self.points)

    def __len__(self) -> int:
        return len(self.points)


def _points_of(traj) -> np.ndarray:
    pts = traj.points if isinstance(traj, Trajectory) else np.asarray(traj, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ShapeError(f"expected (N, 2) points, got shape {pts.shape}")
    if len(pts) == 0:
        raise EmptyInputError("distance over an empty point set is undefined")
    return pts


def _one_pair(pa, pb, kind: DistanceKind) -> float:
    """``_pair_distances`` of one (N, 2) point set to one (M, 2) set."""
    return float(_pair_distances(pa[None, None], pb[None, None], kind)[0, 0, 0])


def hausdorff(a, b) -> float:
    """Symmetric Hausdorff distance between two point sets: the larger of
    the two directed sup-inf distances."""
    return _one_pair(_points_of(a), _points_of(b), DistanceKind.HAUSDORFF)


def trajectory_distance(a: Trajectory, b: Trajectory, kind: DistanceKind) -> float:
    """Distance dispatch; the pointwise baseline aligns lengths by resampling
    both inputs to the longer one first."""
    kind = DistanceKind(kind)
    if kind is DistanceKind.HAUSDORFF:
        return hausdorff(a, b)
    pa, pb = _resampled_to_longer([a], b)
    return _one_pair(pa[0], pb, kind)


def _resampled_to_longer(plans, other: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """The points of every plan, stacked, and of ``other``, each resampled
    to the longest of their lengths: how the pointwise mean aligns plans."""
    n = max(len(other), *map(len, plans))
    return np.stack([resample(p, n).points for p in plans]), resample(other, n).points


def _moved(points, rotation, translation) -> np.ndarray:
    """Candidates (F, K, N, 2) moved by each frame's delta, a (F, 2, 2)
    rotation and (F, 2) translation, through ``trajectory._to_frame``; a
    non-finite result raises ``GeometryError``."""
    moved = _to_frame(points, rotation[:, None], translation[:, None])
    if not np.isfinite(moved).all():
        raise GeometryError("candidate moved into the history frame is not finite")
    return moved


def _pair_distances(moved, plans, kind: DistanceKind) -> np.ndarray:
    """TTM distance (F, K, K') of each moved candidate (F, K, N, 2) to each
    of the frame's historical plans (F, K', M, 2): the symmetric Hausdorff
    distance, or the mean pointwise distance, which needs M = N.  This is
    the one definition of both; ``hausdorff``, ``trajectory_distance`` and
    ``ttm_select`` are its calls on one frame."""
    if kind is DistanceKind.HAUSDORFF:
        a = moved[:, :, None, :, None, :]
        b = plans[:, None, :, None, :, :]
        # squared (F, K, K', N, M) distances, built in place to hold two
        # such arrays at most; sqrt is monotone, so taking it after the
        # minima and maxima gives the same values
        sq = a[..., 0] - b[..., 0]
        sq *= sq
        dy = a[..., 1] - b[..., 1]
        dy *= dy
        sq += dy
        del dy
        return np.sqrt(np.maximum(sq.min(axis=-1).max(axis=-1), sq.min(axis=-2).max(axis=-1)))
    diff = moved[:, :, None] - plans[:, None]
    # C order, so that each waypoint row is summed as it is summed alone
    return np.sqrt(diff[..., 0] ** 2 + diff[..., 1] ** 2, order="C").mean(axis=-1)


def ttm_select(
    candidates: TrajectorySet,
    history: Trajectory,
    frame_delta: Pose2,
    kind: DistanceKind = DistanceKind.HAUSDORFF,
) -> int:
    """Pick the candidate closest to the historical trajectory.

    All K candidates are moved into the historical frame via ``frame_delta``
    in one product, then scored at once by ``_pair_distances``, the kernel
    a rollout's stacked selection uses, with one frame and one plan: the
    symmetric Hausdorff distance, or the pointwise mean, which first
    resamples the candidates and the history to the longer of N and M
    through ``_resampled_to_longer``, as ``trajectory_distance`` does.
    Ties resolve to the lowest index.
    """
    kind = DistanceKind(kind)
    moved = _moved(candidates.points[None], frame_delta.rotation[None], frame_delta.translation[None])[0]
    hist = history.points
    if kind is DistanceKind.MEAN_EUCLIDEAN:
        moved, hist = _resampled_to_longer([Trajectory(m, dt=candidates.dt) for m in moved], history)
    return int(np.argmin(_pair_distances(moved[None], hist[None, None], kind)))
