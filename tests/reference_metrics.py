"""The scalar pose distances as they were written before they shared one kernel, frozen as a reference.

A verbatim copy of _mismatch, euclidean, cosine, euccos, the three
dual-headway distances, the distance() dispatcher and the body of
WeightedDistance.value from before the dual-headway family computed its
position distance, anchor sum and mismatch term once per call and each
objective was scored by one call. The exactness properties in
test_metrics.py compare the live code with these functions by float.hex,
so this module must not import any of the functions it copies.
"""

from __future__ import annotations

import math

from uniplan.control import Pose


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


# the translation and orientation distance each objective weighs; "uniform"
# scores nearest() like "euclidean" (its edge costs are 1)
_TERMS = {
    "euclidean": ("euclidean", "cosine"),
    "euccos": ("euccos", "cosine"),
    "dualhead": ("dualhead_trans", "dualhead_orient"),
    "uniform": ("euclidean", "cosine"),
}


def value(self, p: Pose, q: Pose) -> float:
    """WeightedDistance.value; self is any object with alpha, beta,
    objective and kappa."""
    trans, orient = _TERMS[self.objective]
    total = 0.0
    if self.alpha:
        total += self.alpha * distance(trans, p, q, self.kappa)
    if self.beta:
        total += self.beta * distance(orient, p, q, self.kappa)
    return total
