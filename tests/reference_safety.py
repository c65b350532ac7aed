"""The safety test as it was written on Vec2 values, frozen as a reference.

A verbatim copy of the domain test, the anchor pair, the convex hull, the
free-space checks and the separation distances from before uniplan ran its
safety path on plain floats. The exactness properties in
test_prediction.py compare the live code with these functions by exact
equality, so this module must not import any of the functions it copies.
"""

from __future__ import annotations

import math
from typing import Sequence

from uniplan.config import ControlParams
from uniplan.control import DomainError, Pose, direction_coefficients
from uniplan.geom import Ball, ConvexPolygon, Shape, Vec2
from uniplan.world import World


def heading_vectors(theta: float) -> tuple[Vec2, Vec2]:
    c, s = math.cos(theta), math.sin(theta)
    return Vec2(c, s), Vec2(-s, c)


def heading(pose: Pose) -> Vec2:
    return heading_vectors(pose.theta)[0]


# --- control.py ---------------------------------------------------------------

def anchor_points(
    pose: Pose, goal: Pose, ea: float, eb: float, s: float
) -> tuple[Vec2, Vec2]:
    L = pose.distance_to(goal)
    o = heading(pose)
    og = heading(goal)
    a = Vec2(pose.x + s * ea * L * o.x, pose.y + s * ea * L * o.y)
    b = Vec2(goal.x - s * eb * L * og.x, goal.y - s * eb * L * og.y)
    return a, b


def in_domain(
    pose: Pose, goal: Pose, params: ControlParams, direction: str
) -> tuple[Vec2, Vec2] | None:
    ea, eb, s = direction_coefficients(params, direction)
    a, b = anchor_points(pose, goal, ea, eb, s)
    d = b - a
    dn = d.norm()
    if dn == 0.0:
        return None
    o, _ = heading_vectors(pose.theta)
    og, _ = heading_vectors(goal.theta)
    if s * d.dot(o) >= 0.0 and s * d.dot(og) > -dn:
        return a, b
    return None


# --- geom.py ------------------------------------------------------------------

def edges(poly: ConvexPolygon) -> list[tuple[Vec2, Vec2]]:
    v = poly.vertices
    if len(v) == 1:
        return [(v[0], v[0])]
    if len(v) == 2:
        return [(v[0], v[1])]
    return [(v[i], v[(i + 1) % len(v)]) for i in range(len(v))]


def aabb(shape: Shape) -> tuple[float, float, float, float]:
    if isinstance(shape, Ball):
        c, r = shape.center, shape.radius
        return c.x - r, c.y - r, c.x + r, c.y + r
    xs = [p.x for p in shape.vertices]
    ys = [p.y for p in shape.vertices]
    return min(xs), min(ys), max(xs), max(ys)


def convex_hull(points: Sequence[Vec2]) -> ConvexPolygon:
    if len(points) == 0:
        raise ValueError("convex hull of empty point set")
    pts = sorted(set((p.x, p.y) for p in points))
    if len(pts) == 1:
        return ConvexPolygon((Vec2(*pts[0]),))

    def half(seq):
        out: list[tuple[float, float]] = []
        for p in seq:
            while len(out) >= 2:
                ax, ay = out[-2]
                bx, by = out[-1]
                if (bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax) <= 0.0:
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    lower = half(pts)
    upper = half(reversed(pts))
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 2:  # all points collinear: keep the two extremes
        hull = [pts[0], pts[-1]]
    return ConvexPolygon(tuple(Vec2(*p) for p in hull))


def hull_contains(poly: ConvexPolygon, p: Vec2, tol: float = 0.0) -> bool:
    v = poly.vertices
    if len(v) == 1:
        return (p - v[0]).norm() <= tol
    if len(v) == 2:
        return _point_segment_distance(p, v[0], v[1]) <= tol
    for a, b in edges(poly):
        e = b - a
        # signed distance of p to the edge line, positive inside (CCW)
        d = e.cross(p - a) / e.norm()
        if d < -tol:
            return False
    return True


def _point_segment_distance(p: Vec2, a: Vec2, b: Vec2) -> float:
    ab = b - a
    denom = ab.dot(ab)
    if denom == 0.0:
        return (p - a).norm()
    t = max(0.0, min(1.0, (p - a).dot(ab) / denom))
    return (p - (a + t * ab)).norm()


def _segment_segment_distance(a: Vec2, b: Vec2, c: Vec2, d: Vec2) -> float:
    if _segments_intersect(a, b, c, d):
        return 0.0
    return min(
        _point_segment_distance(a, c, d),
        _point_segment_distance(b, c, d),
        _point_segment_distance(c, a, b),
        _point_segment_distance(d, a, b),
    )


def _segments_intersect(a: Vec2, b: Vec2, c: Vec2, d: Vec2) -> bool:
    def orient(p, q, r):
        val = (q - p).cross(r - p)
        if val > 0:
            return 1
        if val < 0:
            return -1
        return 0

    def on_seg(p, q, r):  # r collinear with pq: is r within the bounding box
        return (
            min(p.x, q.x) <= r.x <= max(p.x, q.x)
            and min(p.y, q.y) <= r.y <= max(p.y, q.y)
        )

    o1, o2 = orient(a, b, c), orient(a, b, d)
    o3, o4 = orient(c, d, a), orient(c, d, b)
    if o1 != o2 and o3 != o4:
        return True
    if o1 == 0 and on_seg(a, b, c):
        return True
    if o2 == 0 and on_seg(a, b, d):
        return True
    if o3 == 0 and on_seg(c, d, a):
        return True
    if o4 == 0 and on_seg(c, d, b):
        return True
    return False


def _point_polygon_distance(p: Vec2, poly: ConvexPolygon) -> float:
    if hull_contains(poly, p, 0.0):
        return 0.0
    return min(_point_segment_distance(p, a, b) for a, b in edges(poly))


def separation(a: Shape, b: Shape) -> float:
    if isinstance(a, Ball) and isinstance(b, Ball):
        return max(0.0, (a.center - b.center).norm() - a.radius - b.radius)
    if isinstance(a, Ball):
        a, b = b, a
    if isinstance(b, Ball):
        return max(0.0, _point_polygon_distance(b.center, a) - b.radius)
    # polygon vs polygon: boundaries via edge pairs, nesting via containment
    if hull_contains(a, b.vertices[0], 0.0) or hull_contains(b, a.vertices[0], 0.0):
        return 0.0
    best = math.inf
    for ea in edges(a):
        for eb in edges(b):
            best = min(best, _segment_segment_distance(*ea, *eb))
            if best == 0.0:
                return 0.0
    return best


def point_separation(p: Vec2, shape: Shape) -> float:
    if isinstance(shape, Ball):
        return max(0.0, (p - shape.center).norm() - shape.radius)
    return _point_polygon_distance(p, shape)


# --- world.py -----------------------------------------------------------------

def pose_is_free(world: World, p: Vec2) -> bool:
    r = world.robot_radius
    if not (
        world.x_min + r <= p.x <= world.x_max - r
        and world.y_min + r <= p.y <= world.y_max - r
    ):
        return False
    for ob in world.obstacles:
        if point_separation(p, ob) <= r:
            return False
    return True


def region_is_free(world: World, hull: ConvexPolygon) -> bool:
    r = world.robot_radius
    hx0, hy0, hx1, hy1 = aabb(hull)
    if not (
        hx0 - r >= world.x_min
        and hy0 - r >= world.y_min
        and hx1 + r <= world.x_max
        and hy1 + r <= world.y_max
    ):
        return False
    for ob in world.obstacles:
        ox0, oy0, ox1, oy1 = aabb(ob)
        # axis gap lower-bounds the true distance; skip the exact test when clear
        gap = max(ox0 - hx1, hx0 - ox1, oy0 - hy1, hy0 - oy1)
        if gap > r:
            continue
        if separation(hull, ob) <= r:
            return False
    return True


# --- prediction.py ------------------------------------------------------------

def motion_bound(
    pose: Pose, goal: Pose, params: ControlParams, direction: str
) -> ConvexPolygon:
    pair = in_domain(pose, goal, params, direction)
    if pair is None:
        raise DomainError(f"pose is not in the {direction} domain of the goal")
    return convex_hull([pose.position, *pair, goal.position])


def issafe(
    from_pose: Pose, to_pose: Pose, world: World, params: ControlParams
) -> str | None:
    if from_pose.distance_to(to_pose) == 0.0:
        return None
    for direction in ("forward", "backward"):
        pair = in_domain(from_pose, to_pose, params, direction)
        if pair is not None and region_is_free(
            world, convex_hull([from_pose.position, *pair, to_pose.position])
        ):
            return direction
    return None
