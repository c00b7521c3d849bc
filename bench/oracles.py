"""The benchmark's own computations, written apart from the package.

Each function here re-derives a result the package also produces, by a
separate route, so a workload can check the package's output against it:

* ``analytic_path``: the ground-truth waypoints of a straight, arc-turn or
  S-curve scene, vectorised over arc length.
* ``tpc_l2_at``: TPC and L2 at one horizon from a log's poses and chosen
  trajectories, moving plans through the world frame instead of through a
  frame delta.
* ``box_overlap_oracle``: oriented-box overlap decided by point sampling,
  with a guard band in which it declines to decide.
* ``fd_entry``: a finite-difference derivative of a loss on one weight
  entry.
"""

from __future__ import annotations

import math

import numpy as np

DT = 0.5  # the simulator's frame step, in seconds


def analytic_path(kind: str, duration_s: float, speed_mps: float, radius_m: float,
                  angle_rad: float, n: int) -> np.ndarray:
    """World waypoints at arc lengths speed * DT * (1..n); the start pose at
    the origin, heading +x, is not a waypoint."""
    s = speed_mps * DT * (np.arange(n) + 1.0)
    r = radius_m
    if kind == "straight":
        return np.column_stack([s, np.zeros(n)])
    if kind == "arc_turn":
        swept = s / r
        on_arc = swept <= angle_rad
        exit_pt = np.array([r * math.sin(angle_rad), r * (1.0 - math.cos(angle_rad))])
        tail = (s - r * angle_rad)[:, None] * np.array([math.cos(angle_rad), math.sin(angle_rad)])
        arc = np.column_stack([r * np.sin(swept), r * (1.0 - np.cos(swept))])
        return np.where(on_arc[:, None], arc, exit_pt + tail)
    if kind == "s_curve":
        # left arc up to half the nominal length, then a right arc of the
        # same radius that starts tangent to it
        half = 0.5 * duration_s * speed_mps
        theta_s = half / r
        left = np.column_stack([r * np.sin(s / r), r * (1.0 - np.cos(s / r))])
        theta = theta_s - (s - half) / r
        centre = np.array([r * math.sin(theta_s), r * (1.0 - math.cos(theta_s))]) \
            + r * np.array([math.sin(theta_s), -math.cos(theta_s)])
        right = centre + r * np.column_stack([-np.sin(theta), np.cos(theta)])
        return np.where((s <= half)[:, None], left, right)
    raise ValueError(f"no analytic path for kind {kind!r}")


def _world(points: np.ndarray, rotation: np.ndarray, xy: np.ndarray) -> np.ndarray:
    return points @ rotation.T + xy


def _ego(points: np.ndarray, rotation: np.ndarray, xy: np.ndarray) -> np.ndarray:
    return (points - xy) @ rotation


def tpc_l2_at(path: np.ndarray, poses, chosen, horizon_steps: int) -> tuple[float, float]:
    """Mean TPC and mean L2 (displacement at the horizon step) over a log.

    ``poses`` holds each frame's (rotation, xy) ego pose in the world and
    ``chosen`` each frame's chosen waypoints in that ego frame; ``path`` is
    the scene's world waypoints, frame j's future starting at ``path[j]``.
    TPC pairs waypoint i of a plan with waypoint i + 1 of the plan made one
    frame earlier, for every i whose partner exists within the horizon.
    """
    h = horizon_steps
    l2 = []
    tpc = []
    for j, ((rot, xy), pts) in enumerate(zip(poses, chosen)):
        gt = _ego(path[j : j + len(pts)], rot, xy)
        l2.append(float(np.hypot(*(pts[h - 1] - gt[h - 1]))))
        if j == 0:
            continue
        prev_rot, prev_xy = poses[j - 1]
        prev = chosen[j - 1]
        pairs = min(h, len(prev) - 1)
        in_prev = _ego(_world(pts[:pairs], rot, xy), prev_rot, prev_xy)
        diff = in_prev - prev[1 : pairs + 1]
        tpc.append(math.sqrt(float(np.mean(np.sum(diff * diff, axis=1)))))
    return math.fsum(tpc) / len(tpc), math.fsum(l2) / len(l2)


def _box_frame(center, heading, length, width):
    c, s = math.cos(heading), math.sin(heading)
    return np.asarray(center, dtype=np.float64), np.array([[c, s], [-s, c]]), 0.5 * length, 0.5 * width


def _grid(center, axes, hl, hw, spacing):
    nu = int(math.ceil(2.0 * hl / spacing)) + 1
    nv = int(math.ceil(2.0 * hw / spacing)) + 1
    u, v = np.meshgrid(np.linspace(-hl, hl, nu), np.linspace(-hw, hw, nv))
    return center + u.reshape(-1, 1) * axes[0] + v.reshape(-1, 1) * axes[1]


def box_overlap_oracle(box_a, box_b, spacing: float = 0.1):
    """True, False, or None when the boxes are within the guard band.

    Boxes are (center, heading, length, width).  A grid over the whole of
    box a, ``spacing`` apart along each side, puts a point within
    spacing / sqrt(2) of every point of a.  So a grid point strictly inside
    b proves overlap, and no grid point inside b grown by that distance on
    every side proves separation.
    """
    ca, axes_a, hla, hwa = _box_frame(*box_a)
    cb, axes_b, hlb, hwb = _box_frame(*box_b)
    local = (_grid(ca, axes_a, hla, hwa, spacing) - cb) @ axes_b.T
    u, v = np.abs(local[:, 0]), np.abs(local[:, 1])
    margin = 1e-9
    if np.any((u < hlb - margin) & (v < hwb - margin)):
        return True
    grow = spacing / math.sqrt(2.0) + margin
    if not np.any((u <= hlb + grow) & (v <= hwb + grow)):
        return False
    return None


def ego_headings(points: np.ndarray) -> np.ndarray:
    """Heading along each forward difference; the last waypoint keeps the
    one before it, and a zero step keeps the previous heading."""
    n = len(points)
    if n == 1:
        x, y = points[0]
        return np.array([math.atan2(y, x) if (x, y) != (0.0, 0.0) else 0.0])
    out = np.zeros(n)
    prev = 0.0
    for i in range(n - 1):
        dx, dy = points[i + 1] - points[i]
        prev = math.atan2(dy, dx) if (dx, dy) != (0.0, 0.0) else prev
        out[i] = prev
    out[-1] = out[-2]
    return out


def fd_entry(loss_fn, weights, name: str, flat_index: int, step: float = 1e-3) -> float:
    """Central difference of ``loss_fn`` on one entry of one weight tensor,
    Richardson-extrapolated from steps ``step`` and ``step / 2``.

    Losses here run in the hundreds, so below about 1e-4 the rounding error
    of the loss, about 1e-16 * loss / step, takes over; above it the
    step-squared truncation term of a plain central difference reaches
    1e-4 of the gradient on the LSTM inputs.  Extrapolation cancels that
    term and leaves errors near 1e-6 of the gradient.
    """
    base = weights.get(name)

    def central(h: float) -> float:
        bumped = base.reshape(-1).copy()
        bumped[flat_index] += h
        hi = loss_fn(weights.with_tensor(name, bumped.reshape(base.shape)))
        bumped[flat_index] -= 2.0 * h
        lo = loss_fn(weights.with_tensor(name, bumped.reshape(base.shape)))
        return (hi - lo) / (2.0 * h)

    return (4.0 * central(0.5 * step) - central(step)) / 3.0
