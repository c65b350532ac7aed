"""Unicycle pose distances, neighborhoods, nearest selection, and projection.

The dual-headway translation distance is the shorter of the two three-segment
paths through the anchor points of the two poses (headway of one to tailway
of the other), which factors into the straight-line distance times an
orientational mismatch term. The mismatch term minus its aligned value is the
dual-headway orientation distance. None of these need to be true metrics.

Array variants of the distances (suffix _arr) operate on coordinate arrays
for one query pose against many stored poses; they are cross-checked against
the scalar forms in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .control import Pose
from .geom import Vec2

def kappa_anchors(p: Pose, q: Pose, kappa: float):
    """The four anchor points of a pose pair sharing one coefficient.

    Offsets scale with the pair distance: head_p/tail_p sit ahead of/behind
    p along its heading, head_q/tail_q likewise for q.
    """
    L = p.distance_to(q)
    op, oq = p.heading(), q.heading()
    head_p = Vec2(p.x + kappa * L * op.x, p.y + kappa * L * op.y)
    tail_p = Vec2(p.x - kappa * L * op.x, p.y - kappa * L * op.y)
    head_q = Vec2(q.x + kappa * L * oq.x, q.y + kappa * L * oq.y)
    tail_q = Vec2(q.x - kappa * L * oq.x, q.y - kappa * L * oq.y)
    return head_p, tail_p, head_q, tail_q


def _mismatch(p: Pose, q: Pose, kappa: float) -> float:
    """min over the two linked sign choices of |u +/- kappa(o_p + o_q)|.

    u is the unit vector between the positions. The two choices correspond to
    the head(p)-tail(q) and tail(p)-head(q) anchor gaps; the value lies in
    [1 - 2 kappa, 1 + 2 kappa].
    """
    L = p.distance_to(q)
    ux, uy = (p.x - q.x) / L, (p.y - q.y) / L
    wx = kappa * (math.cos(p.theta) + math.cos(q.theta))
    wy = kappa * (math.sin(p.theta) + math.sin(q.theta))
    return min(math.hypot(ux + wx, uy + wy), math.hypot(ux - wx, uy - wy))


def euclidean(p: Pose, q: Pose) -> float:
    return p.distance_to(q)


def cosine(p: Pose, q: Pose) -> float:
    """1 - o(theta_p) . o(theta_q), in [0, 2]."""
    return 1.0 - math.cos(p.theta - q.theta)


def euccos(p: Pose, q: Pose) -> float:
    """Euclidean distance amplified by misalignment: |p-q| (2 - o.o^)."""
    return p.distance_to(q) * (2.0 - math.cos(p.theta - q.theta))


def dualhead_translation(p: Pose, q: Pose, kappa: float) -> float:
    """Minimum travel distance through the anchor points of the two poses."""
    L = p.distance_to(q)
    if L == 0.0:
        return 0.0
    return L * (2.0 * kappa + _mismatch(p, q, kappa))


def dualhead_orientation(p: Pose, q: Pose, kappa: float) -> float:
    """Dual-headway translation over Euclidean distance, minus the aligned value."""
    if p.distance_to(q) == 0.0:
        wx = kappa * (math.cos(p.theta) + math.cos(q.theta))
        wy = kappa * (math.sin(p.theta) + math.sin(q.theta))
        return 2.0 * kappa - math.hypot(wx, wy)
    return _mismatch(p, q, kappa) - 1.0 + 2.0 * kappa


def headtail(p: Pose, q: Pose, kappa: float) -> float:
    """Minimum distance between opposing anchor points of the two poses."""
    L = p.distance_to(q)
    if L == 0.0:
        return 0.0
    return L * _mismatch(p, q, kappa)


def distance(kind: str, p: Pose, q: Pose, kappa: float = 1.0 / 3.0) -> float:
    """Dispatch a pose distance by name."""
    if kind == "euclidean":
        return euclidean(p, q)
    if kind == "cosine":
        return cosine(p, q)
    if kind == "euccos":
        return euccos(p, q)
    if kind == "dualhead_trans":
        return dualhead_translation(p, q, kappa)
    if kind == "dualhead_orient":
        return dualhead_orientation(p, q, kappa)
    if kind == "headtail":
        return headtail(p, q, kappa)
    raise ValueError(f"unknown distance kind {kind!r}")


@dataclass(frozen=True)
class WeightedDistance:
    """alpha * translation + beta * orientation distance."""

    alpha: float
    beta: float
    trans: str = "dualhead_trans"
    orient: str = "dualhead_orient"
    kappa: float = 1.0 / 3.0

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("weights must be >= 0")
        if self.alpha == 0 and self.beta == 0:
            raise ValueError("weights cannot both be 0")

    def value(self, p: Pose, q: Pose) -> float:
        total = 0.0
        if self.alpha:
            total += self.alpha * distance(self.trans, p, q, self.kappa)
        if self.beta:
            total += self.beta * distance(self.orient, p, q, self.kappa)
        return total

    def value_arr(self, p: Pose, xs, ys, cos_t, sin_t) -> np.ndarray:
        total = 0.0
        if self.alpha:
            total = self.alpha * distance_arr(self.trans, p, xs, ys, cos_t, sin_t, self.kappa)
        if self.beta:
            total = total + self.beta * distance_arr(
                self.orient, p, xs, ys, cos_t, sin_t, self.kappa
            )
        return total


def objective_distance(objective: str, alpha: float, beta: float, kappa: float) -> WeightedDistance:
    """The weighted distance for a named planning objective."""
    pairs = {
        "euclidean": ("euclidean", "cosine"),
        "euccos": ("euccos", "cosine"),
        "dualhead": ("dualhead_trans", "dualhead_orient"),
        "uniform": ("euclidean", "cosine"),  # drives nearest(); edge costs are 1
    }
    if objective not in pairs:
        raise ValueError(f"unknown objective {objective!r}")
    trans, orient = pairs[objective]
    return WeightedDistance(alpha=alpha, beta=beta, trans=trans, orient=orient, kappa=kappa)


def _mismatch_arr(p: Pose, xs, ys, cos_t, sin_t, kappa):
    dx = p.x - xs
    dy = p.y - ys
    L = np.hypot(dx, dy)
    safe = np.where(L > 0.0, L, 1.0)
    ux, uy = dx / safe, dy / safe
    wx = kappa * (math.cos(p.theta) + cos_t)
    wy = kappa * (math.sin(p.theta) + sin_t)
    m = np.minimum(np.hypot(ux + wx, uy + wy), np.hypot(ux - wx, uy - wy))
    return L, m, np.hypot(wx, wy)


def distance_arr(kind: str, p: Pose, xs, ys, cos_t, sin_t, kappa=1.0 / 3.0):
    """Array variant of distance(): one pose against coordinate arrays."""
    if kind == "euclidean":
        return np.hypot(p.x - xs, p.y - ys)
    if kind == "cosine":
        return 1.0 - (math.cos(p.theta) * cos_t + math.sin(p.theta) * sin_t)
    if kind == "euccos":
        dot = math.cos(p.theta) * cos_t + math.sin(p.theta) * sin_t
        return np.hypot(p.x - xs, p.y - ys) * (2.0 - dot)
    if kind == "dualhead_trans":
        L, m, _ = _mismatch_arr(p, xs, ys, cos_t, sin_t, kappa)
        return L * (2.0 * kappa + m)
    if kind == "dualhead_orient":
        L, m, wn = _mismatch_arr(p, xs, ys, cos_t, sin_t, kappa)
        return np.where(L > 0.0, m - 1.0 + 2.0 * kappa, 2.0 * kappa - wn)
    if kind == "headtail":
        L, m, _ = _mismatch_arr(p, xs, ys, cos_t, sin_t, kappa)
        return L * m
    raise ValueError(f"unknown distance kind {kind!r}")


def _pose_arrays(poses: Sequence[Pose]):
    xs = np.array([q.x for q in poses])
    ys = np.array([q.y for q in poses])
    th = np.array([q.theta for q in poses])
    return xs, ys, np.cos(th), np.sin(th)


def nearest_index(poses: Sequence[Pose], p: Pose, wd: WeightedDistance) -> int:
    """Index of the pose minimizing the weighted distance; ties go low."""
    if len(poses) == 0:
        raise ValueError("nearest of an empty pose set")
    values = wd.value_arr(p, *_pose_arrays(poses))
    return int(np.argmin(values))


def neighbors(
    poses: Sequence[Pose],
    p: Pose,
    delta_pos: float,
    delta_ang: float,
    trans: str = "euclidean",
    orient: str = "cosine",
    kappa: float = 1.0 / 3.0,
) -> list[Pose]:
    """Decoupled neighborhood: within delta_pos translation AND delta_ang orientation."""
    xs, ys, cos_t, sin_t = _pose_arrays(poses)
    dt = distance_arr(trans, p, xs, ys, cos_t, sin_t, kappa)
    do = distance_arr(orient, p, xs, ys, cos_t, sin_t, kappa)
    mask = (dt <= delta_pos) & (do <= delta_ang)
    return [poses[i] for i in np.flatnonzero(mask)]


def project(from_pose: Pose, toward: Pose, step_pos: float, step_ang: float) -> Pose:
    """Pull a target pose into the step neighborhood of a source pose.

    Positions clamp to the Euclidean ball of radius step_pos around
    from_pose. Orientations clamp to the cosine-distance ball of radius
    step_ang: if the target heading is outside it, the nearer boundary angle
    from_pose.theta +/- arccos(1 - step_ang) is taken (ties toward +).
    """
    dx, dy = toward.x - from_pose.x, toward.y - from_pose.y
    dist = math.hypot(dx, dy)
    if dist <= step_pos:
        x, y = toward.x, toward.y
    else:
        scale = step_pos / dist
        x, y = from_pose.x + scale * dx, from_pose.y + scale * dy
    if 1.0 - math.cos(toward.theta - from_pose.theta) <= step_ang:
        theta = toward.theta
    else:
        offset = math.acos(1.0 - step_ang)
        plus = from_pose.theta + offset
        minus = from_pose.theta - offset
        if math.cos(toward.theta - plus) >= math.cos(toward.theta - minus):
            theta = plus
        else:
            theta = minus
    return Pose(x, y, theta)
