"""Unicycle pose distances, their weighted combinations, and projection.

The dual-headway translation distance is the shorter of the two three-segment
paths through the anchor points of the two poses (headway of one to tailway
of the other), which factors into the straight-line distance times an
orientational mismatch term. The mismatch term minus its aligned value is the
dual-headway orientation distance. None of these need to be true metrics.

dualhead_distances is the one dual-headway kernel. WeightedDistance takes
its objective names from config.OBJECTIVES, and value and value_arr pick
each objective's (translation, orientation) terms by the same branches:
dualhead, euccos, else Euclidean with cosine. value_arr is the array form:
one query pose, or a column of them, against many stored poses; like
dualhead_distances, it reads each heading from the cos and sin its pose
carries. Nearest and neighbourhood queries live on planner.MotionGraph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import OBJECTIVES, check_kappa
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


def euclidean(p: Pose, q: Pose) -> float:
    return p.distance_to(q)


def cosine(p: Pose, q: Pose) -> float:
    """1 - o(theta_p) . o(theta_q), in [0, 2]."""
    return 1.0 - math.cos(p.theta - q.theta)


def euccos(p: Pose, q: Pose) -> float:
    """Euclidean distance amplified by misalignment: |p-q| (2 - o.o^)."""
    return p.distance_to(q) * (2.0 - math.cos(p.theta - q.theta))


def dualhead_distances(p: Pose, q: Pose, kappa: float) -> tuple[float, float, float]:
    """(headtail, dual-headway translation, dual-headway orientation) of a pair.

    With L the distance between the positions, u their unit vector and
    w = kappa (o_p + o_q) the anchor sum, the mismatch term
    m = min |u +/- w| lies in [1 - 2 kappa, 1 + 2 kappa]; its two sign
    choices are the head(p)-tail(q) and tail(p)-head(q) anchor gaps. The
    three distances are L m, L (2 kappa + m) and m - 1 + 2 kappa. At
    coincident positions they are 0, 0 and 2 kappa - |w|.
    """
    L = p.distance_to(q)
    wx = kappa * (p.cos + q.cos)
    wy = kappa * (p.sin + q.sin)
    if L == 0.0:
        return 0.0, 0.0, 2.0 * kappa - math.hypot(wx, wy)
    ux, uy = (p.x - q.x) / L, (p.y - q.y) / L
    m = min(math.hypot(ux + wx, uy + wy), math.hypot(ux - wx, uy - wy))
    return L * m, L * (2.0 * kappa + m), m - 1.0 + 2.0 * kappa


def headtail(p: Pose, q: Pose, kappa: float) -> float:
    """Minimum distance between opposing anchor points of the two poses."""
    return dualhead_distances(p, q, kappa)[0]


def dualhead_translation(p: Pose, q: Pose, kappa: float) -> float:
    """Minimum travel distance through the anchor points of the two poses."""
    return dualhead_distances(p, q, kappa)[1]


def dualhead_orientation(p: Pose, q: Pose, kappa: float) -> float:
    """Dual-headway translation over Euclidean distance, minus the aligned value."""
    return dualhead_distances(p, q, kappa)[2]


class PoseColumns(NamedTuple):
    """A block of query poses as (k, 1) columns of x, y, cos and sin.

    It has the x, y, cos and sin of a Pose, so value_arr scores it as one
    query per row. cos and sin come from math.cos and math.sin, as a Pose's
    do, and every value_arr operation is elementwise, so each row of the
    (k, n) result has the bits of value_arr on that row's Pose alone.
    """

    x: np.ndarray
    y: np.ndarray
    cos: np.ndarray
    sin: np.ndarray

    @classmethod
    def of(cls, poses) -> "PoseColumns":
        """Columns of (x, y, theta) triples, theta in [-pi, pi) as in a Pose."""
        rows = [(x, y, math.cos(theta), math.sin(theta)) for x, y, theta in poses]
        return cls(*np.array(rows).T[:, :, None])


@dataclass(frozen=True)
class WeightedDistance:
    """alpha * translation + beta * orientation distance of a planning objective.

    The objective is one of config.OBJECTIVES; "uniform" scores like
    "euclidean" (its edge costs are 1, set by the planner).
    """

    alpha: float
    beta: float
    objective: str = "dualhead"
    kappa: float = 1.0 / 3.0

    def __post_init__(self):
        if not all(0 <= w < math.inf for w in (self.alpha, self.beta)):
            raise ValueError(f"weights must be finite and >= 0 (got {self.alpha}, {self.beta})")
        if self.alpha == 0 and self.beta == 0:
            raise ValueError("weights cannot both be 0")
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r}")
        check_kappa(self.kappa, "kappa")

    def value(self, p: Pose, q: Pose) -> float:
        if self.objective == "dualhead":
            _, trans, orient = dualhead_distances(p, q, self.kappa)
        else:
            trans = euccos(p, q) if self.objective == "euccos" else euclidean(p, q)
            orient = cosine(p, q)
        total = 0.0
        if self.alpha:
            total += self.alpha * trans
        if self.beta:
            total += self.beta * orient
        return total

    def value_arr(self, p: Pose | PoseColumns, xs, ys, cos_t, sin_t) -> np.ndarray:
        """value() of p against coordinate arrays, both terms in one pass.

        p is read only through its x, y, cos and sin: a Pose gives one row
        of values, a PoseColumns block one row per query pose.

        value() stays the scalar reference: the two agree within 1e-12, not
        bit for bit (np.hypot and math.hypot can round differently). Each
        element depends only on its own pose: the dual-headway branch for a
        stored pose at p's position runs only when one is present, and
        gives every element the bits the full form would.
        """
        dx = p.x - xs
        dy = p.y - ys
        L = np.hypot(dx, dy)
        cp, sp = p.cos, p.sin
        if self.objective == "dualhead":
            k = self.kappa
            apart = L > 0.0
            coincident = not apart.all()
            safe = np.where(apart, L, 1.0) if coincident else L
            ux, uy = dx / safe, dy / safe
            wx = k * (cp + cos_t)
            wy = k * (sp + sin_t)
            m = np.minimum(np.hypot(ux + wx, uy + wy), np.hypot(ux - wx, uy - wy))
            trans = L * (2.0 * k + m)
            orient = m - 1.0 + 2.0 * k
            if coincident:
                orient = np.where(apart, orient, 2.0 * k - np.hypot(wx, wy))
        else:
            dot = cp * cos_t + sp * sin_t
            trans = L * (2.0 - dot) if self.objective == "euccos" else L
            orient = 1.0 - dot
        return self.alpha * trans + self.beta * orient


def objective_distance(objective: str, alpha: float, beta: float, kappa: float) -> WeightedDistance:
    """The weighted distance for a named planning objective."""
    return WeightedDistance(alpha=alpha, beta=beta, objective=objective, kappa=kappa)


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
