import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uniplan.config import ControlParams
from uniplan.control import (
    DomainError,
    Pose,
    anchor_points_backward,
    anchor_points_forward,
    direction_coefficients,
    in_backward_domain,
    in_forward_domain,
    rollout_batch,
)
from uniplan.executor import execute
from uniplan.geom import Ball, Vec2, convex_hull, hull_contains, separation
from uniplan.metrics import objective_distance
from uniplan.planner import MotionGraph
from uniplan.prediction import issafe, motion_bound
from uniplan.world import World, pose_is_free, region_is_free

import reference_safety as reference

PARAMS = ControlParams()
# coefficients whose forward and backward domains overlap: 5.4% of random
# pose pairs (positions in [-2, 2]^2, goal at the origin) lie in both
OVERLAPPING = ControlParams(headway=0.121, tailway=0.458,
                           back_tailway=0.118, back_headway=0.404)
PI = math.pi
EMPTY = World(-20, -20, 20, 20, (), robot_radius=0.5)
WD = objective_distance("dualhead", 1.0, 10.0, 1.0 / 3.0)


def anchors_of(x, y, th, gx, gy, gth, direction):
    pose, goal = Pose(x, y, th), Pose(gx, gy, gth)
    return motion_bound(pose, goal, PARAMS, direction)


class TestMotionBound:
    def test_collinear_forward_is_segment(self):
        hull = anchors_of(0, 0, 0, 1, 0, 0, "forward")
        assert len(hull.vertices) == 2
        assert {(v.x, v.y) for v in hull.vertices} == {(0, 0), (1, 0)}

    def test_hull_is_conv_of_pose_anchors_goal(self):
        # in-domain pair with distinct anchors: hull is exactly the quad of
        # the current position, both active anchors, and the goal position
        pose, goal = Pose(0, 0, 0), Pose(2, 1, PI / 2)
        assert in_forward_domain(pose, goal, PARAMS)
        from uniplan.control import anchor_points_forward
        head, tail_g = anchor_points_forward(pose, goal, PARAMS.headway, PARAMS.tailway)
        hull = motion_bound(pose, goal, PARAMS, "forward")
        expect = {(0.0, 0.0), (head.x, head.y), (tail_g.x, tail_g.y), (2.0, 1.0)}
        got = {(v.x, v.y) for v in hull.vertices}
        assert got == expect

    def test_backward_mirror_same_segment(self):
        # mirror of the collinear forward case; theta = pi carries float
        # trig dust, so the segment holds to tolerance
        hull = anchors_of(0, 0, PI, 1, 0, PI, "backward")
        for v in hull.vertices:
            assert abs(v.y) < 1e-12
            assert -1e-12 < v.x < 1 + 1e-12
        xs = sorted(v.x for v in hull.vertices)
        assert xs[0] == pytest.approx(0.0, abs=1e-12)
        assert xs[-1] == pytest.approx(1.0, abs=1e-12)

    def test_goal_position_inside_hull(self, rng):
        for _ in range(200):
            pose = Pose(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-PI, PI))
            goal = Pose(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-PI, PI))
            for direction, check in (("forward", in_forward_domain),
                                     ("backward", in_backward_domain)):
                if not check(pose, goal, PARAMS):
                    continue
                hull = motion_bound(pose, goal, PARAMS, direction)
                assert hull_contains(hull, goal.position, 1e-9)
                assert hull_contains(hull, pose.position, 1e-9)
                assert len(hull.vertices) <= 4

    def test_domain_error(self):
        with pytest.raises(DomainError):
            motion_bound(Pose(0, 0, PI), Pose(1, 0, 0), PARAMS, "forward")
        with pytest.raises(DomainError):
            motion_bound(Pose(0, 0, 0), Pose(1, 0, 0), PARAMS, "backward")


class TestPositiveInclusionAndSoundness:
    def test_trajectory_stays_in_shrinking_bounds(self, rng):
        # record strided samples; every later position must lie in every
        # earlier hull and in the goal-centered ball through the earlier
        # position, and later hull vertices in earlier hulls
        goal = Pose(0, 0, 0)
        for direction, check in (("forward", in_forward_domain),
                                 ("backward", in_backward_domain)):
            starts = []
            while len(starts) < 10:
                s = Pose(rng.uniform(-4, 4), rng.uniform(-4, 4), rng.uniform(-PI, PI))
                if s.distance_to(goal) > 0.5 and check(s, goal, PARAMS):
                    starts.append(s)
            res = rollout_batch([[s.x, s.y, s.theta] for s in starts],
                                [goal.x, goal.y, goal.theta], PARAMS, direction,
                                record_stride=200)
            assert res.converged.all()
            for record in res.records:
                poses = [Pose(x, y, th) for _, x, y, th in record.tolist()]
                hulls = []
                for k, pose_k in enumerate(poses):
                    if pose_k.distance_to(goal) <= PARAMS.goal_tol:
                        break
                    hulls.append(
                        (k, motion_bound(pose_k, goal, PARAMS, direction))
                    )
                for k, hull in hulls:
                    radius = poses[k].distance_to(goal)
                    for p in (later.position for later in poses[k + 1:]):
                        assert hull_contains(hull, p, 1e-6)
                        assert (p - goal.position).norm() <= radius + 1e-6
                for (k1, h1), (k2, h2) in zip(hulls, hulls[1:]):
                    for v in h2.vertices:
                        assert hull_contains(h1, v, 1e-6)
                    assert poses[k2].distance_to(goal) <= poses[k1].distance_to(goal) + 1e-9


class TestIsSafe:
    def test_empty_world_aligned_pair(self):
        assert issafe(Pose(0, 0, 0), Pose(1, 0, 0), EMPTY, PARAMS)

    def test_blocking_obstacle(self):
        world = World(-20, -20, 20, 20, (Ball(Vec2(0.5, 0), 0.2),), robot_radius=0.5)
        assert not issafe(Pose(0, 0, 0), Pose(1, 0, 0), world, PARAMS)

    def test_neither_domain(self):
        assert not issafe(Pose(0, 0, PI), Pose(1, 0, 0), EMPTY, PARAMS)

    def test_degenerate_pair(self):
        assert not issafe(Pose(1, 1, 0), Pose(1, 1, 0), EMPTY, PARAMS)
        assert not issafe(Pose(1, 1, 0), Pose(1, 1, 2), EMPTY, PARAMS)

    def test_backward_pair(self):
        assert issafe(Pose(0, 0, PI), Pose(1, 0, PI), EMPTY, PARAMS)

    def test_near_workspace_edge(self):
        assert not issafe(Pose(0.6, -19.6, 0), Pose(1.6, -19.6, 0), EMPTY, PARAMS)

    @pytest.mark.parametrize("params", [PARAMS, OVERLAPPING],
                             ids=["default", "overlapping"])
    def test_safe_implies_converging_and_clear(self, rng, params):
        # end to end: a safe connection's closed loop, executed as a
        # two-vertex graph and so driven in the direction issafe certified,
        # converges and keeps more than robot-radius clearance from every
        # obstacle
        world = World(
            -10, -10, 10, 10,
            (Ball(Vec2(2, 1), 0.8), convex_hull(
                [Vec2(-3, -3), Vec2(-1, -3), Vec2(-1, -1), Vec2(-3, -1)])),
            robot_radius=0.4,
        )
        checked = 0
        trials = 0
        while checked < 40 and trials < 4000:
            trials += 1
            a = Pose(rng.uniform(-6, 6), rng.uniform(-6, 6), rng.uniform(-PI, PI))
            b = Pose(rng.uniform(-6, 6), rng.uniform(-6, 6), rng.uniform(-PI, PI))
            if a.distance_to(b) < 0.2:
                continue
            if not (pose_is_free(world, a.x, a.y) and pose_is_free(world, b.x, b.y)):
                continue
            if issafe(a, b, world, params) is None:
                continue
            checked += 1
            graph = MotionGraph(a)
            graph.goal_index = graph.add_vertex(b, 0, WD.value(a, b))
            t = execute(graph, a, world, WD, params, record_stride=20)
            assert t.converged
            for x, y in zip(t.x.tolist(), t.y.tolist()):
                p = Vec2(x, y)
                for ob in world.obstacles:
                    assert separation(Ball(p, 0.0), ob) > world.robot_radius - 1e-6
        assert checked == 40


coord = st.floats(-2.0, 2.0)
angle = st.floats(-PI, PI)
# grid coordinates are drawn often: with the grid radii and the workspace
# [-2.5, 2.5]^2 they make hulls touch the workspace edge or an obstacle
# exactly, and poses line up exactly
GRID = [-2.25, -2.0, -0.5, -0.0, 0.0, 0.5, 2.0, 2.25]
edge_coord = st.one_of(st.sampled_from(GRID), coord)


@st.composite
def pose_pairs(draw):
    """(from_pose, to_pose): unrelated; at one position; on one horizontal
    line heading along it (the anchors then lie on the line, so the
    motion-bound hull is a 2-vertex segment); or on one vertical line with
    opposite headings, where for equal coefficients the anchor gap is
    perpendicular to both headings and the domain test sits on its
    boundary."""
    mode = draw(st.sampled_from(["free", "coincident", "collinear", "boundary"]))
    x, y, th = draw(edge_coord), draw(edge_coord), draw(angle)
    gx, gy, gth = draw(edge_coord), draw(edge_coord), draw(angle)
    if mode == "coincident":
        gx, gy = x, y
    elif mode == "collinear":
        gy, th, gth = y, 0.0, 0.0
    elif mode == "boundary":
        gx, th, gth = x, 0.0, -PI
    return Pose(x, y, th), Pose(gx, gy, gth)


@st.composite
def worlds(draw):
    """Workspace [-2.5, 2.5]^2 with up to two balls and two polygons (any
    hull of up to four points, degenerate ones included)."""
    obstacles = []
    for _ in range(draw(st.integers(0, 2))):
        obstacles.append(Ball(Vec2(draw(edge_coord), draw(edge_coord)),
                              draw(st.one_of(st.sampled_from([0.25, 0.5]),
                                             st.floats(0.01, 0.8)))))
    for _ in range(draw(st.integers(0, 2))):
        pts = draw(st.lists(st.tuples(edge_coord, edge_coord), min_size=1, max_size=4))
        obstacles.append(convex_hull([Vec2(x, y) for x, y in pts]))
    radius = draw(st.sampled_from([0.05, 0.25, 0.5]))
    return World(-2.5, -2.5, 2.5, 2.5, tuple(draw(st.permutations(obstacles))),
                 robot_radius=radius)


# the hull of (0, 0), (1.5, 0), (1, 1) is exactly one robot radius from
# each obstacle
TOUCHING_BALL = World(-2.5, -2.5, 2.5, 2.5, (Ball(Vec2(2.0, 0.0), 0.25),), robot_radius=0.25)
TOUCHING_POLYGON = World(-2.5, -2.5, 2.5, 2.5, (convex_hull(
    [Vec2(2.0, -1.0), Vec2(2.25, -1.0), Vec2(2.25, 1.0), Vec2(2.0, 1.0)]),), robot_radius=0.5)


def vertices(hull):
    return [(v.x, v.y) for v in hull.vertices]


class TestIsSafeAgainstReference:
    @given(x=coord, y=coord, th=angle, gx=coord, gy=coord, gth=angle,
           bx=coord, by=coord, br=st.floats(0.01, 0.5),
           params=st.sampled_from([PARAMS, OVERLAPPING]))
    def test_same_direction(self, x, y, th, gx, gy, gth, bx, by, br, params):
        world = World(-5, -5, 5, 5, (Ball(Vec2(bx, by), br),), robot_radius=0.05)
        a, b = Pose(x, y, th), Pose(gx, gy, gth)
        assert issafe(a, b, world, params) == reference.issafe(a, b, world, params)

    @settings(max_examples=300)
    @given(pair=pose_pairs(), world=worlds(), params=st.sampled_from([PARAMS, OVERLAPPING]))
    def test_same_direction_polygons_and_degenerate_pairs(self, pair, world, params):
        a, b = pair
        assert issafe(a, b, world, params) == reference.issafe(a, b, world, params)

    @given(pair=pose_pairs(), params=st.sampled_from([PARAMS, OVERLAPPING]),
           direction=st.sampled_from(["forward", "backward"]))
    def test_motion_bound_vertices(self, pair, params, direction):
        a, b = pair
        try:
            expect = vertices(reference.motion_bound(a, b, params, direction))
        except DomainError:
            with pytest.raises(DomainError):
                motion_bound(a, b, params, direction)
            return
        assert vertices(motion_bound(a, b, params, direction)) == expect

    @given(pair=pose_pairs(), params=st.sampled_from([PARAMS, OVERLAPPING]),
           direction=st.sampled_from(["forward", "backward"]))
    def test_domain_and_anchors(self, pair, params, direction):
        a, b = pair
        in_domain, anchor_points = {
            "forward": (in_forward_domain, anchor_points_forward),
            "backward": (in_backward_domain, anchor_points_backward)}[direction]
        assert in_domain(a, b, params) == reference.in_domain(a, b, params, direction)
        ea, eb, s = direction_coefficients(params, direction)
        assert anchor_points(a, b, ea, eb) == reference.anchor_points(a, b, ea, eb, s)

    @settings(max_examples=300)
    @given(world=worlds(), x=edge_coord, y=edge_coord)
    def test_pose_is_free(self, world, x, y):
        assert pose_is_free(world, x, y) == reference.pose_is_free(world, Vec2(x, y))

    @settings(max_examples=300)
    @example(world=TOUCHING_BALL, pts=[(0.0, 0.0), (1.5, 0.0), (1.0, 1.0)])
    @example(world=TOUCHING_POLYGON, pts=[(0.0, 0.0), (1.5, 0.0), (1.0, 1.0)])
    @example(world=World(-2.5, -2.5, 2.5, 2.5, (), robot_radius=0.5),
             pts=[(2.0, 0.0), (0.0, -2.0), (-0.0, 2.0)])
    @given(world=worlds(),
           pts=st.lists(st.tuples(edge_coord, edge_coord), min_size=1, max_size=5))
    def test_hull_and_region(self, world, pts):
        points = [Vec2(x, y) for x, y in pts]
        hull = convex_hull(points)
        assert vertices(hull) == vertices(reference.convex_hull(points))
        assert region_is_free(world, hull.points()) == reference.region_is_free(world, hull)
        for ob in world.obstacles:
            assert separation(hull, ob) == reference.separation(hull, ob)
            assert separation(ob, hull) == reference.separation(ob, hull)

    def test_overlap_certifies_backward(self):
        # both domains contain the start, only the backward hull is free:
        # issafe returns the direction whose hull it checked
        start = Pose(-1.9215983257935618, 0.1109997328540131, -1.8520788724715556)
        goal = Pose(0.0, 0.0, 1.5158657249813965)
        ball = Ball(Vec2(-0.024881891987856366, -0.11073457933277617), 0.05)
        world = World(-5, -5, 5, 5, (ball,), robot_radius=0.05)
        assert in_forward_domain(start, goal, OVERLAPPING)
        assert in_backward_domain(start, goal, OVERLAPPING)
        assert not region_is_free(
            world, motion_bound(start, goal, OVERLAPPING, "forward").points())
        assert issafe(start, goal, world, OVERLAPPING) == "backward"
