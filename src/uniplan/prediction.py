"""Convex bounds on closed-loop motion and the safe-reachability test.

On its domain, the controller of either direction keeps the robot position
inside the convex hull of the current position, the goal position, and the
direction's anchor pair (the pair control.domain_anchors computes). The
bound shrinks along the motion, so a single hull check at selection time
certifies an entire closed-loop segment, but only for the controller whose
hull was checked: issafe therefore returns that direction, and whoever
drives or draws the segment uses it.

Both functions run on plain floats: one domain_anchors call per direction
tried, on the positions and the cos/sin each Pose carries, and a hull of
(x, y) tuples; issafe then runs world.region_is_free on that hull, which
reads the world's obstacle table.
"""

from __future__ import annotations

from .config import ControlParams
# convex_hull and in_*_domain are not called here; perfbench/tracing.py
# patches them in this module
from .control import (  # noqa: F401
    DomainError,
    Pose,
    direction_coefficients,
    domain_anchors,
    in_backward_domain,
    in_forward_domain,
)
from .geom import ConvexPolygon, Point, convex_hull, convex_hull_xy  # noqa: F401
from .world import World, region_is_free


def _bound(pose: Pose, goal: Pose, params: ControlParams,
           direction: str) -> tuple[Point, ...] | None:
    """The direction's motion-bound hull as (x, y) tuples, or None when pose
    is not in its domain; the headings are the poses' own cos and sin."""
    ea, eb, s = direction_coefficients(params, direction)
    ax, ay, bx, by, inside = domain_anchors(
        pose.x, pose.y, pose.cos, pose.sin, goal.x, goal.y, goal.cos, goal.sin, ea, eb, s)
    if not inside:
        return None
    return convex_hull_xy(((pose.x, pose.y), (ax, ay), (bx, by), (goal.x, goal.y)))


def motion_bound(
    pose: Pose, goal: Pose, params: ControlParams, direction: str
) -> ConvexPolygon:
    """Convex hull containing the whole closed-loop trajectory from pose.

    The hull of the position, the direction's anchor pair and the goal
    position. Raises DomainError when the pose is not in the requested
    controller's domain (the bound is only valid there).
    """
    hull = _bound(pose, goal, params, direction)
    if hull is None:
        raise DomainError(f"pose is not in the {direction} domain of the goal")
    return ConvexPolygon.of(hull)


def issafe(
    from_pose: Pose, to_pose: Pose, world: World, params: ControlParams
) -> str | None:
    """The direction whose controller provably reaches to_pose from from_pose
    without collision, or None.

    "forward" when from_pose lies in the forward domain of to_pose and the
    forward motion-prediction hull, dilated by the robot radius, stays in
    free space; otherwise "backward" under the same test for the backward
    controller; otherwise None, so the result also reads as a boolean.
    Degenerate pairs (coincident positions) are never safe: both anchors
    then fall on the positions, and a zero anchor gap is in neither domain.
    The domains may overlap for non-default coefficients, and only the
    returned direction's hull was checked, so a segment is safe only when
    driven in that direction.
    """
    for direction in ("forward", "backward"):
        hull = _bound(from_pose, to_pose, params, direction)
        if hull is not None and region_is_free(world, hull):
            return direction
    return None
