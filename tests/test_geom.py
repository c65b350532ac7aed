import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from uniplan.geom import (
    Ball,
    ConvexPolygon,
    Vec2,
    convex_hull,
    hull_contains,
    hull_contains_points,
    separation,
    wrap_angle,
)

UNIT_SQUARE = ConvexPolygon((Vec2(0, 0), Vec2(1, 0), Vec2(1, 1), Vec2(0, 1)))

coords = st.floats(-50, 50, allow_nan=False)
angles = st.floats(-math.pi, math.pi - 1e-9)


class TestWrapAngle:
    def test_idempotent_inside_range(self):
        for theta in (-math.pi, -1.0, 0.0, 1e-300, 3.0):
            assert wrap_angle(theta) == theta
            assert wrap_angle(wrap_angle(theta + 2 * math.pi)) == wrap_angle(theta + 2 * math.pi)

    @given(st.floats(-100, 100))
    def test_range(self, theta):
        w = wrap_angle(theta)
        assert -math.pi <= w < math.pi
        assert math.isclose(math.sin(w - theta), 0.0, abs_tol=1e-9)


class TestConvexHull:
    def test_unit_square(self):
        hull = convex_hull([Vec2(0, 0), Vec2(1, 0), Vec2(0, 1), Vec2(1, 1)])
        assert len(hull.vertices) == 4

    def test_collinear_becomes_segment(self):
        hull = convex_hull([Vec2(0, 0), Vec2(1, 0), Vec2(0.5, 0)])
        assert len(hull.vertices) == 2
        assert {(v.x, v.y) for v in hull.vertices} == {(0, 0), (1, 0)}

    def test_interior_point_dropped(self):
        pts = [Vec2(0, 0), Vec2(2, 0), Vec2(1, 1), Vec2(1, 0.2)]
        hull = convex_hull(pts)
        assert {(v.x, v.y) for v in hull.vertices} == {(0, 0), (2, 0), (1, 1)}
        # brute-force half-plane oracle: every input point is weakly inside
        # each directed hull edge
        for p in pts:
            for a, b in hull.edges():
                e = b - a
                assert e.cross(p - a) >= -1e-12
            assert hull_contains(hull, p, 1e-12)

    def test_single_and_duplicate_points(self):
        assert len(convex_hull([Vec2(2, 3)]).vertices) == 1
        assert len(convex_hull([Vec2(2, 3), Vec2(2, 3)]).vertices) == 1

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            convex_hull([])

    @given(st.lists(st.tuples(coords, coords), min_size=1, max_size=8))
    def test_contains_inputs_and_idempotent(self, raw):
        pts = [Vec2(x, y) for x, y in raw]
        hull = convex_hull(pts)
        for p in pts:
            assert hull_contains(hull, p, 1e-9 * max(1.0, abs(p.x), abs(p.y)))
        again = convex_hull(list(hull.vertices))
        assert {(v.x, v.y) for v in again.vertices} == {
            (v.x, v.y) for v in hull.vertices
        }

    def test_ccw_orientation(self, rng):
        for _ in range(100):
            pts = [Vec2(x, y) for x, y in rng.uniform(-5, 5, size=(6, 2))]
            hull = convex_hull(pts)
            v = hull.vertices
            if len(v) >= 3:
                area2 = sum(v[i].cross(v[(i + 1) % len(v)]) for i in range(len(v)))
                assert area2 > 0


class TestHullContains:
    def test_inside(self):
        assert hull_contains(UNIT_SQUARE, Vec2(0.5, 0.5), 0.0)

    def test_outside(self):
        assert not hull_contains(UNIT_SQUARE, Vec2(1.1, 0.5), 0.0)

    def test_near_boundary_with_tol(self):
        assert hull_contains(UNIT_SQUARE, Vec2(1.0 + 1e-10, 0.5), 1e-9)
        assert not hull_contains(UNIT_SQUARE, Vec2(1.0 + 1e-8, 0.5), 1e-9)

    def test_batch_matches_scalar(self, rng):
        pts = rng.uniform(-0.5, 1.5, size=(200, 2))
        batch = hull_contains_points(UNIT_SQUARE, pts[:, 0], pts[:, 1], 1e-9)
        for (x, y), b in zip(pts, batch):
            assert b == hull_contains(UNIT_SQUARE, Vec2(x, y), 1e-9)

    def test_degenerate_segment_and_point(self):
        seg = convex_hull([Vec2(0, 0), Vec2(2, 0)])
        assert hull_contains(seg, Vec2(1, 0), 1e-12)
        assert not hull_contains(seg, Vec2(1, 0.1), 1e-3)
        pt = convex_hull([Vec2(1, 1)])
        assert hull_contains(pt, Vec2(1, 1), 0.0)


class TestSeparation:
    def test_square_vs_ball(self):
        assert separation(UNIT_SQUARE, Ball(Vec2(3, 0), 1.0)) == pytest.approx(1.0)

    def test_contained_ball(self):
        assert separation(UNIT_SQUARE, Ball(Vec2(0.5, 0.5), 0.1)) == 0.0

    def test_square_vs_triangle(self):
        tri = ConvexPolygon((Vec2(2, 0), Vec2(3, 0), Vec2(3, 1)))
        assert separation(UNIT_SQUARE, tri) == pytest.approx(1.0)

    def test_symmetry(self, rng):
        for _ in range(200):
            a = convex_hull([Vec2(x, y) for x, y in rng.uniform(-3, 3, (4, 2))])
            if rng.uniform() < 0.5:
                b = convex_hull([Vec2(x, y) for x, y in rng.uniform(-3, 3, (4, 2))])
            else:
                b = Ball(Vec2(*rng.uniform(-3, 3, 2)), rng.uniform(0.1, 1.5))
            assert separation(a, b) == pytest.approx(separation(b, a), abs=1e-12)

    def test_zero_iff_intersecting(self, rng):
        # dense-sampling oracle: shapes intersect iff some sample point of the
        # hull (or ball) is inside the other set
        for _ in range(150):
            a = convex_hull([Vec2(x, y) for x, y in rng.uniform(-2, 2, (4, 2))])
            b = convex_hull([Vec2(x, y) for x, y in rng.uniform(-2, 2, (4, 2))])
            d = separation(a, b)
            grid = []
            va = a.vertices
            for u in np.linspace(0, 1, 12):
                for w in np.linspace(0, 1, 12):
                    # convex combinations over a triangle fan cover the hull
                    for k in range(len(va)):
                        p0, p1, p2 = va[0], va[k - 1], va[k]
                        s, t = u, w * (1 - u)
                        grid.append(
                            Vec2(
                                p0.x + s * (p1.x - p0.x) + t * (p2.x - p0.x),
                                p0.y + s * (p1.y - p0.y) + t * (p2.y - p0.y),
                            )
                        )
            hit = any(hull_contains(b, p, 1e-12) for p in grid)
            if hit:
                assert d == 0.0
            if d > 1e-6:
                assert not hit

    def test_ball_ball(self):
        assert separation(Ball(Vec2(0, 0), 1), Ball(Vec2(4, 0), 1)) == pytest.approx(2.0)
        assert separation(Ball(Vec2(0, 0), 1), Ball(Vec2(1, 0), 1)) == 0.0
