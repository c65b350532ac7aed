"""Convex bounds on closed-loop motion and the safe-reachability test.

On its domain, the controller of either direction keeps the robot position
inside the convex hull of the current position, the goal position, and the
direction's anchor pair (control.anchor_points with the coefficients and
sign of control.direction_coefficients), and inside the goal-centered ball
through the current position. Both bounds shrink along the motion, so a
single hull check at selection time certifies an entire closed-loop segment.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import ControlParams
from .control import (
    DomainError,
    Pose,
    anchor_points,
    direction_coefficients,
    in_backward_domain,
    in_forward_domain,
)
from .geom import Ball, ConvexPolygon, convex_hull
from .world import World, region_is_free


@dataclass(frozen=True)
class MotionBound:
    """Hull of at most four anchor positions plus the goal-centered ball."""

    hull: ConvexPolygon
    ball: Ball


def _hull(pose: Pose, goal: Pose, params: ControlParams, direction: str) -> ConvexPolygon:
    """Hull of the position, the direction's anchor pair and the goal position."""
    a, b = anchor_points(pose, goal, *direction_coefficients(params, direction))
    return convex_hull([pose.position, a, b, goal.position])


def motion_bound(
    pose: Pose, goal: Pose, params: ControlParams, direction: str
) -> MotionBound:
    """Convex bound containing the whole closed-loop trajectory from pose.

    Raises DomainError when the pose is not in the requested controller's
    domain (the bound is only valid there).
    """
    _, _, s = direction_coefficients(params, direction)
    in_domain = in_forward_domain if s > 0 else in_backward_domain
    if not in_domain(pose, goal, params):
        raise DomainError(f"pose is not in the {direction} domain of the goal")
    hull = _hull(pose, goal, params, direction)
    ball = Ball(goal.position, pose.distance_to(goal))
    return MotionBound(hull=hull, ball=ball)


def issafe(from_pose: Pose, to_pose: Pose, world: World, params: ControlParams) -> bool:
    """Can the robot provably reach to_pose from from_pose without collision?

    True iff from_pose lies in the forward (or backward) domain of to_pose
    and the corresponding motion-prediction hull, dilated by the robot
    radius, stays in free space. Degenerate pairs (coincident positions)
    are never safe. Anchors use the controller coefficients so the hull
    bounds the actual closed-loop motion.
    """
    if from_pose.distance_to(to_pose) == 0.0:
        return False
    for direction, in_domain in (("forward", in_forward_domain),
                                 ("backward", in_backward_domain)):
        if in_domain(from_pose, to_pose, params) and region_is_free(
            world, _hull(from_pose, to_pose, params, direction)
        ):
            return True
    return False
