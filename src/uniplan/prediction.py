"""Convex bounds on closed-loop motion and the safe-reachability test.

On its domain, the controller of either direction keeps the robot position
inside the convex hull of the current position, the goal position, and the
direction's anchor pair (the pair control.in_domain returns). The bound
shrinks along the motion, so a single hull check at selection time
certifies an entire closed-loop segment, but only for the controller whose
hull was checked: issafe therefore returns that direction, and whoever
drives or draws the segment uses it.
"""

from __future__ import annotations

from .config import ControlParams
from .control import (
    DomainError,
    Pose,
    direction_coefficients,
    in_backward_domain,
    in_forward_domain,
)
from .geom import ConvexPolygon, convex_hull
from .world import World, region_is_free


def motion_bound(
    pose: Pose, goal: Pose, params: ControlParams, direction: str
) -> ConvexPolygon:
    """Convex hull containing the whole closed-loop trajectory from pose.

    The hull of the position, the direction's anchor pair and the goal
    position. Raises DomainError when the pose is not in the requested
    controller's domain (the bound is only valid there).
    """
    _, _, s = direction_coefficients(params, direction)
    pair = (in_forward_domain if s > 0 else in_backward_domain)(pose, goal, params)
    if pair is None:
        raise DomainError(f"pose is not in the {direction} domain of the goal")
    return convex_hull([pose.position, *pair, goal.position])


def issafe(
    from_pose: Pose, to_pose: Pose, world: World, params: ControlParams
) -> str | None:
    """The direction whose controller provably reaches to_pose from from_pose
    without collision, or None.

    "forward" when from_pose lies in the forward domain of to_pose and the
    forward motion-prediction hull, dilated by the robot radius, stays in
    free space; otherwise "backward" under the same test for the backward
    controller; otherwise None, so the result also reads as a boolean.
    Degenerate pairs (coincident positions) are never safe. The domains
    may overlap for non-default coefficients, and only the returned
    direction's hull was checked, so a segment is safe only when driven
    in that direction.
    """
    if from_pose.distance_to(to_pose) == 0.0:
        return None
    for direction, in_domain in (("forward", in_forward_domain),
                                 ("backward", in_backward_domain)):
        pair = in_domain(from_pose, to_pose, params)
        if pair is not None and region_is_free(
            world, convex_hull([from_pose.position, *pair, to_pose.position])
        ):
            return direction
    return None
