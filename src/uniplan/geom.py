"""Exact 2D primitives: heading vectors, small convex hulls, containment, separation.

Everything here is pure and operates on immutable values, so all functions are
safe to call concurrently. Shapes are tiny (hulls of at most a handful of
points, obstacles with few edges), so distances are computed by direct
enumeration of vertex/edge pairs instead of iterative algorithms.

The hull, containment and distance computations are written once, on plain
floats and (x, y) vertex tuples, which is the form the safety test uses;
the functions taking Vec2, ConvexPolygon and Ball values convert and call
them, so both forms give bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

Point = tuple[float, float]


@dataclass(frozen=True)
class Vec2:
    """Planar point or displacement in meters."""

    x: float
    y: float

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def __mul__(self, s: float) -> "Vec2":
        return Vec2(self.x * s, self.y * s)

    __rmul__ = __mul__

    def dot(self, other: "Vec2") -> float:
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Vec2") -> float:
        return self.x * other.y - self.y * other.x

    def norm(self) -> float:
        return math.hypot(self.x, self.y)


def wrap_angle(theta: float) -> float:
    """Wrap an angle into [-pi, pi); exact no-op for angles already inside."""
    if -math.pi <= theta < math.pi:
        return theta
    wrapped = (theta + math.pi) % (2.0 * math.pi) - math.pi
    if wrapped >= math.pi:  # rounding at the modulus boundary
        wrapped -= 2.0 * math.pi
    return wrapped


def heading_vectors(theta: float) -> tuple[Vec2, Vec2]:
    """Unit heading o(theta) and its +90 degree rotation n(theta).

    o = (cos t, sin t), n = (-sin t, cos t), so det[o n] = 1.
    """
    c, s = math.cos(theta), math.sin(theta)
    return Vec2(c, s), Vec2(-s, c)


@dataclass(frozen=True)
class ConvexPolygon:
    """Convex polygon with CCW vertices; degenerate 1- and 2-vertex cases allowed."""

    vertices: tuple[Vec2, ...]

    def __post_init__(self):
        if len(self.vertices) == 0:
            raise ValueError("polygon needs at least one vertex")

    @classmethod
    def of(cls, points: Sequence[Point]) -> "ConvexPolygon":
        """The polygon of CCW (x, y) vertex tuples."""
        return cls(tuple(Vec2(x, y) for x, y in points))

    def points(self) -> tuple[Point, ...]:
        """The vertices as (x, y) tuples."""
        return tuple((p.x, p.y) for p in self.vertices)

    def edges(self) -> list[tuple[Vec2, Vec2]]:
        return _cyclic_edges(self.vertices)


@dataclass(frozen=True)
class Ball:
    """Closed disk."""

    center: Vec2
    radius: float

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError("ball radius must be >= 0")


Shape = Union[ConvexPolygon, Ball]


def convex_hull(points: Sequence[Vec2]) -> ConvexPolygon:
    """Minimal CCW convex polygon containing the points.

    Duplicate and collinear interior points are dropped. Collinear input
    collapses to a 2-vertex segment, a single repeated point to 1 vertex.
    """
    return ConvexPolygon.of(convex_hull_xy([(p.x, p.y) for p in points]))


def convex_hull_xy(points: Sequence[Point]) -> tuple[Point, ...]:
    """convex_hull on (x, y) tuples: the CCW hull vertices as (x, y) tuples.

    Andrew's monotone chain; the lowest (x, y) vertex comes first.
    """
    if len(points) == 0:
        raise ValueError("convex hull of empty point set")
    pts = sorted(set(points))
    if len(pts) == 1:
        return (pts[0],)
    lower = _half_hull(pts)
    upper = _half_hull(reversed(pts))
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 2:  # all points collinear: keep the two extremes
        hull = [pts[0], pts[-1]]
    return tuple(hull)


def aabb_xy(v: Sequence[Point]) -> tuple[float, float, float, float]:
    """(x_min, y_min, x_max, y_max) of (x, y) points."""
    xs = [p[0] for p in v]
    ys = [p[1] for p in v]
    return min(xs), min(ys), max(xs), max(ys)


def _half_hull(seq) -> list[Point]:
    out: list[Point] = []
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


def _cyclic_edges(v: Sequence) -> list[tuple]:
    """Consecutive vertex pairs of a CCW sequence, closing the loop; one
    degenerate edge for a 1- or 2-vertex hull."""
    if len(v) == 1:
        return [(v[0], v[0])]
    if len(v) == 2:
        return [(v[0], v[1])]
    return [(v[i], v[(i + 1) % len(v)]) for i in range(len(v))]


def hull_contains(poly: ConvexPolygon, p: Vec2, tol: float = 0.0) -> bool:
    """True iff p is inside poly or within tol of its boundary."""
    return _hull_contains_xy(poly.points(), p.x, p.y, tol)


def _hull_contains_xy(v: Sequence[Point], px: float, py: float, tol: float = 0.0) -> bool:
    """hull_contains for a CCW (x, y) vertex sequence and a point (px, py)."""
    if len(v) == 1:
        return math.hypot(px - v[0][0], py - v[0][1]) <= tol
    if len(v) == 2:
        return _point_segment_distance(px, py, *v[0], *v[1]) <= tol
    for (ax, ay), (bx, by) in _cyclic_edges(v):
        ex, ey = bx - ax, by - ay
        # signed distance of p to the edge line, positive inside (CCW)
        d = (ex * (py - ay) - ey * (px - ax)) / math.hypot(ex, ey)
        if d < -tol:
            return False
    return True


def hull_contains_points(
    poly: ConvexPolygon, xs: np.ndarray, ys: np.ndarray, tol: float = 0.0
) -> np.ndarray:
    """Vectorized hull_contains for arrays of point coordinates."""
    v = poly.vertices
    if len(v) == 1:
        return np.hypot(xs - v[0].x, ys - v[0].y) <= tol
    if len(v) == 2:
        return _point_segment_distance_arr(xs, ys, v[0], v[1]) <= tol
    inside = np.ones(np.shape(xs), dtype=bool)
    for a, b in poly.edges():
        ex, ey = b.x - a.x, b.y - a.y
        elen = math.hypot(ex, ey)
        d = (ex * (ys - a.y) - ey * (xs - a.x)) / elen
        inside &= d >= -tol
    return inside


def _point_segment_distance(px, py, ax, ay, bx, by) -> float:
    abx, aby = bx - ax, by - ay
    denom = abx * abx + aby * aby
    if denom == 0.0:
        return math.hypot(px - ax, py - ay)
    t = max(0.0, min(1.0, ((px - ax) * abx + (py - ay) * aby) / denom))
    return math.hypot(px - (ax + abx * t), py - (ay + aby * t))


def _point_segment_distance_arr(xs, ys, a: Vec2, b: Vec2):
    abx, aby = b.x - a.x, b.y - a.y
    denom = abx * abx + aby * aby
    if denom == 0.0:
        return np.hypot(xs - a.x, ys - a.y)
    t = np.clip(((xs - a.x) * abx + (ys - a.y) * aby) / denom, 0.0, 1.0)
    return np.hypot(xs - (a.x + t * abx), ys - (a.y + t * aby))


def _segment_segment_distance(a: Point, b: Point, c: Point, d: Point) -> float:
    if _segments_intersect(a, b, c, d):
        return 0.0
    return min(
        _point_segment_distance(*a, *c, *d),
        _point_segment_distance(*b, *c, *d),
        _point_segment_distance(*c, *a, *b),
        _point_segment_distance(*d, *a, *b),
    )


def _orient(p: Point, q: Point, r: Point) -> int:
    val = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    if val > 0:
        return 1
    if val < 0:
        return -1
    return 0


def _on_segment(p: Point, q: Point, r: Point) -> bool:
    """r collinear with pq: is r within the bounding box of pq."""
    return (
        min(p[0], q[0]) <= r[0] <= max(p[0], q[0])
        and min(p[1], q[1]) <= r[1] <= max(p[1], q[1])
    )


def _segments_intersect(a: Point, b: Point, c: Point, d: Point) -> bool:
    o1, o2 = _orient(a, b, c), _orient(a, b, d)
    o3, o4 = _orient(c, d, a), _orient(c, d, b)
    if o1 != o2 and o3 != o4:
        return True
    if o1 == 0 and _on_segment(a, b, c):
        return True
    if o2 == 0 and _on_segment(a, b, d):
        return True
    if o3 == 0 and _on_segment(c, d, a):
        return True
    if o4 == 0 and _on_segment(c, d, b):
        return True
    return False


def point_polygon_distance(px: float, py: float, v: Sequence[Point]) -> float:
    """Distance from (px, py) to a convex (x, y) vertex sequence (0 if inside)."""
    if _hull_contains_xy(v, px, py, 0.0):
        return 0.0
    return min(_point_segment_distance(px, py, *a, *b) for a, b in _cyclic_edges(v))


def polygon_separation(a: Sequence[Point], b: Sequence[Point]) -> float:
    """Distance between two convex (x, y) vertex sequences; 0 if they intersect.

    Boundaries via edge pairs, nesting via containment.
    """
    if _hull_contains_xy(a, *b[0], 0.0) or _hull_contains_xy(b, *a[0], 0.0):
        return 0.0
    best = math.inf
    for ea in _cyclic_edges(a):
        for eb in _cyclic_edges(b):
            best = min(best, _segment_segment_distance(*ea, *eb))
            if best == 0.0:
                return 0.0
    return best


def separation(a: Shape, b: Shape) -> float:
    """Euclidean minimum distance between two convex shapes; 0 if they intersect."""
    if isinstance(a, Ball) and isinstance(b, Ball):
        return max(0.0, math.hypot(a.center.x - b.center.x, a.center.y - b.center.y)
                   - a.radius - b.radius)
    if isinstance(a, Ball):
        a, b = b, a
    if isinstance(b, Ball):
        return max(0.0, point_polygon_distance(b.center.x, b.center.y, a.points())
                   - b.radius)
    return polygon_separation(a.points(), b.points())
