import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uniplan.config import OBJECTIVES
from uniplan.control import Pose
from uniplan.metrics import (
    WeightedDistance,
    cosine,
    dualhead_distances,
    dualhead_orientation,
    dualhead_translation,
    euccos,
    euclidean,
    headtail,
    kappa_anchors,
    objective_distance,
    project,
)
from uniplan.planner import CellIndex, MotionGraph, cost_floor

import reference_metrics as reference

PI = math.pi
KAPPA = 1.0 / 3.0

pose_st = st.builds(
    Pose,
    st.floats(-10, 10, allow_nan=False),
    st.floats(-10, 10, allow_nan=False),
    st.floats(-PI, PI - 1e-9),
)


# every named scalar distance as a (p, q, kappa) function
DISTANCES = [
    ("euclidean", lambda p, q, kappa: euclidean(p, q)),
    ("cosine", lambda p, q, kappa: cosine(p, q)),
    ("euccos", lambda p, q, kappa: euccos(p, q)),
    ("dualhead_trans", dualhead_translation),
    ("dualhead_orient", dualhead_orientation),
    ("headtail", headtail),
]


def two_path_minimum(p: Pose, q: Pose, kappa: float) -> float:
    """Oracle: total lengths of the two explicit anchor-point paths."""
    head_p, tail_p, head_q, tail_q = kappa_anchors(p, q, kappa)
    pp, qq = p.position, q.position
    via_head = (pp - head_p).norm() + (head_p - tail_q).norm() + (tail_q - qq).norm()
    via_tail = (pp - tail_p).norm() + (tail_p - head_q).norm() + (head_q - qq).norm()
    return min(via_head, via_tail)


def random_pose_pairs(rng, n):
    xs = rng.uniform(-8, 8, (n, 2))
    ys = rng.uniform(-8, 8, (n, 2))
    ths = rng.uniform(-PI, PI, (n, 2))
    return [
        (Pose(xs[i, 0], ys[i, 0], ths[i, 0]), Pose(xs[i, 1], ys[i, 1], ths[i, 1]))
        for i in range(n)
    ]


class TestKappaAnchors:
    def test_aligned_pair(self):
        head_p, tail_p, head_q, tail_q = kappa_anchors(
            Pose(0, 0, 0), Pose(1, 0, 0), KAPPA
        )
        assert (head_p.x, head_p.y) == pytest.approx((1 / 3, 0))
        assert (tail_p.x, tail_p.y) == pytest.approx((-1 / 3, 0))
        assert (head_q.x, head_q.y) == pytest.approx((4 / 3, 0))
        assert (tail_q.x, tail_q.y) == pytest.approx((2 / 3, 0))

    def test_coincident_positions(self):
        pts = kappa_anchors(Pose(2, 1, 0.4), Pose(2, 1, -2.0), KAPPA)
        for v in pts:
            assert (v.x, v.y) == (2.0, 1.0)

    def test_perpendicular_goal_heading(self):
        _, _, head_q, _ = kappa_anchors(Pose(0, 0, 0), Pose(1, 0, PI / 2), KAPPA)
        assert (head_q.x, head_q.y) == pytest.approx((1.0, 1 / 3))


class TestDistanceValues:
    def test_aligned_dualhead(self):
        p, q = Pose(0, 0, 0), Pose(1, 0, 0)
        assert dualhead_translation(p, q, KAPPA) == pytest.approx(1.0)
        assert dualhead_orientation(p, q, KAPPA) == pytest.approx(0.0)

    def test_perpendicular_dualhead(self):
        p, q = Pose(0, 0, 0), Pose(1, 0, PI / 2)
        assert dualhead_translation(p, q, KAPPA) == pytest.approx((2 + math.sqrt(5)) / 3)
        assert dualhead_orientation(p, q, KAPPA) == pytest.approx((math.sqrt(5) - 1) / 3)

    def test_cosine_basics(self):
        assert cosine(Pose(0, 0, 0), Pose(5, 5, PI / 2)) == pytest.approx(1.0)
        assert cosine(Pose(0, 0, 1.2), Pose(0, 0, 1.2)) == 0.0

    def test_euccos(self):
        assert euccos(Pose(0, 0, 0), Pose(1, 0, PI / 2)) == pytest.approx(2.0)

    def test_weighted_combination(self):
        wd = WeightedDistance(1.0, 10.0, "dualhead", KAPPA)
        value = wd.value(Pose(0, 0, 0), Pose(1, 0, PI / 2))
        expected = (2 + math.sqrt(5)) / 3 + 10 * (math.sqrt(5) - 1) / 3
        assert value == pytest.approx(expected)
        assert value == pytest.approx(5.53225, abs=1e-5)

    def test_weighted_extremes(self):
        p, q = Pose(0, 0, 0.3), Pose(2, 1, -0.7)
        only_t = WeightedDistance(1.0, 0.0, "euclidean")
        only_o = WeightedDistance(0.0, 1.0, "euclidean")
        assert only_t.value(p, q) == euclidean(p, q)
        assert only_o.value(p, q) == cosine(p, q)

    @pytest.mark.parametrize("alpha, beta, objective, kappa", [
        (-1.0, 1.0, "dualhead", KAPPA),
        (1.0, -1.0, "dualhead", KAPPA),
        (0.0, 0.0, "dualhead", KAPPA),
        (math.nan, 1.0, "dualhead", KAPPA),
        (1.0, 1.0, "headtail", KAPPA),
        (1.0, 1.0, "euclidean", 0.0),
        (1.0, 1.0, "dualhead", 0.5),
    ])
    def test_weighted_rejects_bad_fields(self, alpha, beta, objective, kappa):
        with pytest.raises(ValueError):
            WeightedDistance(alpha, beta, objective, kappa)

    def test_degenerate_coincident_positions(self):
        p, q = Pose(1, 1, 0), Pose(1, 1, PI / 2)
        assert dualhead_translation(p, q, KAPPA) == 0.0
        assert headtail(p, q, KAPPA) == 0.0
        expected = 2 * KAPPA - KAPPA * math.hypot(1 + 0, 0 + 1)
        assert dualhead_orientation(p, q, KAPPA) == pytest.approx(expected)

    def test_degenerate_opposite_headings_max_orientation(self):
        p, q = Pose(0, 0, 0), Pose(0, 0, PI)
        assert dualhead_orientation(p, q, KAPPA) == pytest.approx(2 * KAPPA)


class TestIdentitiesAndBounds:
    def test_path_identity_oracle(self, rng):
        # the factored form equals the explicit two-path minimum
        for p, q in random_pose_pairs(rng, 2000):
            if p.distance_to(q) < 1e-12:
                continue
            assert dualhead_translation(p, q, KAPPA) == pytest.approx(
                two_path_minimum(p, q, KAPPA), abs=1e-12, rel=1e-12
            )

    def test_headtail_orientation_identity(self, rng):
        for p, q in random_pose_pairs(rng, 2000):
            L = p.distance_to(q)
            if L < 1e-12:
                continue
            lhs = headtail(p, q, KAPPA) / L - 1 + 2 * KAPPA
            assert lhs == pytest.approx(dualhead_orientation(p, q, KAPPA), abs=1e-12)

    def test_symmetry_all_kinds(self, rng):
        for p, q in random_pose_pairs(rng, 1000):
            for name, f in DISTANCES:
                assert f(p, q, KAPPA) == pytest.approx(f(q, p, KAPPA), abs=1e-12), name

    def test_range_bounds(self, rng):
        for p, q in random_pose_pairs(rng, 2000):
            L = p.distance_to(q)
            if L < 1e-9:
                continue
            ec = euccos(p, q)
            assert L - 1e-12 <= ec <= 3 * L + 1e-12
            ratio = dualhead_translation(p, q, KAPPA) / L
            assert 1 - 1e-12 <= ratio <= 1 + 4 * KAPPA + 1e-12
            do = dualhead_orientation(p, q, KAPPA)
            assert -1e-12 <= do <= 4 * KAPPA + 1e-12
            m = headtail(p, q, KAPPA) / L
            assert 1 - 2 * KAPPA - 1e-12 <= m <= 1 + 2 * KAPPA + 1e-12

    def test_euclidean_lower_bounds_dualhead(self, rng):
        for p, q in random_pose_pairs(rng, 2000):
            assert euclidean(p, q) <= dualhead_translation(p, q, KAPPA) + 1e-12

    @given(pose_st, pose_st)
    def test_nonnegative(self, p, q):
        for name, f in DISTANCES:
            assert f(p, q, KAPPA) >= -1e-15, name

    def test_array_forms_match_scalar(self, rng):
        # every objective, with each weight zero in turn; the last two poses
        # share p's position
        p = Pose(0.5, -1.0, 0.8)
        qs = [q for _, q in random_pose_pairs(rng, 500)] + [Pose(0.5, -1.0, -2.0), p]
        xs = np.array([q.x for q in qs])
        ys = np.array([q.y for q in qs])
        th = np.array([q.theta for q in qs])
        for objective in OBJECTIVES:
            for alpha, beta in ((1.0, 10.0), (0.0, 1.0), (1.0, 0.0), (2.5, 0.3)):
                wd = WeightedDistance(alpha, beta, objective, KAPPA)
                arr = wd.value_arr(p, xs, ys, np.cos(th), np.sin(th))
                for i, q in enumerate(qs):
                    assert arr[i] == pytest.approx(wd.value(p, q), abs=1e-12)


# positions on a half-unit lattice or anywhere, headings at +/-pi, at the
# axes or anywhere
oracle_pose_st = st.builds(
    Pose,
    st.one_of(st.integers(-4, 4).map(lambda k: 0.5 * k), st.floats(-10, 10)),
    st.one_of(st.integers(-4, 4).map(lambda k: 0.5 * k), st.floats(-10, 10)),
    st.one_of(st.sampled_from([PI, -PI, 0.0, PI / 2, -PI / 2]), st.floats(-PI, PI)),
)


@st.composite
def oracle_pairs(draw):
    """(p, q): q shares p's position about one draw in three."""
    p, q = draw(oracle_pose_st), draw(oracle_pose_st)
    if draw(st.integers(0, 2)) == 0:
        q = Pose(p.x, p.y, q.theta)
    return p, q


kappa_st = st.floats(0.0, 0.5, exclude_min=True, exclude_max=True)
weight_st = st.floats(0.01, 100.0)


def same_bits(got: float, want: float) -> bool:
    return float(got).hex() == float(want).hex()


class TestAgainstFrozenReference:
    """The scalar distances and value() against reference_metrics, bit for bit."""

    @settings(max_examples=300)
    @given(oracle_pairs(), kappa_st)
    def test_named_distances(self, pair, kappa):
        p, q = pair
        for name, f in DISTANCES:
            assert same_bits(f(p, q, kappa), reference.distance(name, p, q, kappa)), name
        want = (reference.headtail(p, q, kappa), reference.dualhead_translation(p, q, kappa),
                reference.dualhead_orientation(p, q, kappa))
        assert all(map(same_bits, dualhead_distances(p, q, kappa), want))

    @settings(max_examples=300)
    @given(oracle_pairs(), kappa_st, st.sampled_from(OBJECTIVES), weight_st, weight_st,
           st.sampled_from(["both", "alpha 0", "beta 0"]))
    def test_value(self, pair, kappa, objective, alpha, beta, zero):
        p, q = pair
        alpha = 0.0 if zero == "alpha 0" else alpha
        beta = 0.0 if zero == "beta 0" else beta
        wd = WeightedDistance(alpha, beta, objective, kappa)
        assert same_bits(wd.value(p, q), reference.value(wd, p, q))


def graph_of(poses, parents=None) -> MotionGraph:
    """A tree over poses; vertex i > 0 hangs under parents[i - 1] (default 0)."""
    graph = MotionGraph(poses[0])
    for i, q in enumerate(poses[1:]):
        graph.add_vertex(q, 0 if parents is None else parents[i], 1.0)
    return graph


def one_element(q: Pose):
    """q as the coordinate arrays MotionGraph stores, one element long."""
    return (np.array([q.x]), np.array([q.y]),
            np.array([math.cos(q.theta)]), np.array([math.sin(q.theta)]))


def columns(poses) -> list[tuple[float, float, float]]:
    """Query poses in the (x, y, theta) form nearest_index takes."""
    return [(p.x, p.y, p.theta) for p in poses]


def lone_nearest(graph: MotionGraph, p: Pose, wd: WeightedDistance) -> int:
    """nearest_index's answer to the one query p."""
    return graph.nearest_index(columns([p]), wd)[0]


def brute_nearest(graph: MotionGraph, p: Pose, wd: WeightedDistance) -> int:
    best, best_value = None, math.inf
    for i, q in enumerate(graph.poses):
        if graph.is_alive(i):
            value = wd.value_arr(p, *one_element(q))[0]
            if best is None or value < best_value:  # ties keep the lower index
                best, best_value = i, value
    return best


def brute_neighbors(graph: MotionGraph, p: Pose, radius: float, angle: float) -> list[int]:
    trans = WeightedDistance(1.0, 0.0, "euclidean")
    orient = WeightedDistance(0.0, 1.0, "euclidean")
    return [
        i for i, q in enumerate(graph.poses)
        if graph.is_alive(i)
        and trans.value_arr(p, *one_element(q))[0] <= radius
        and orient.value_arr(p, *one_element(q))[0] <= angle
    ]


# few distinct positions and headings, so exact ties are common
coarse_pose_st = st.builds(
    Pose,
    st.integers(-4, 4).map(lambda k: 0.5 * k),
    st.integers(-4, 4).map(lambda k: 0.5 * k),
    st.one_of(st.sampled_from([0.0, PI / 2, -PI / 2, PI / 4, PI]), st.floats(-PI, PI)),
)


@st.composite
def pruned_graphs(draw):
    """A random tree over coarse poses with some subtrees killed."""
    poses = draw(st.lists(coarse_pose_st, min_size=1, max_size=30))
    parents = [draw(st.integers(0, i)) for i in range(len(poses) - 1)]
    graph = graph_of(poses, parents)
    for v in draw(st.lists(st.integers(1, max(1, len(poses) - 1)), max_size=4)):
        if v < len(graph) and graph.is_alive(v):
            graph.kill_subtree(v)
    return graph


# the weight pairs of test_array_forms_match_scalar
WEIGHT_PAIRS = [(1.0, 10.0), (0.0, 1.0), (1.0, 0.0), (2.5, 0.3)]


def pose_arrays(poses):
    """poses as the coordinate arrays MotionGraph stores."""
    return (np.array([q.x for q in poses]), np.array([q.y for q in poses]),
            np.array([math.cos(q.theta) for q in poses]),
            np.array([math.sin(q.theta) for q in poses]))


def with_reversed(poses):
    """poses, each followed by its twin with the opposite heading."""
    return [r for q in poses for r in (q, Pose(q.x, q.y, q.theta + PI))]


class TestArrayFormProperties:
    """WeightedDistance.value_arr beyond its agreement with value()."""

    @given(
        st.lists(st.one_of(coarse_pose_st, pose_st), min_size=1, max_size=20),
        coarse_pose_st,
        st.sampled_from(OBJECTIVES),
        st.sampled_from(WEIGHT_PAIRS),
    )
    def test_batch_independent(self, poses, p, objective, weights):
        # coarse poses often sit at p's position, so calls mix coincident and
        # distinct positions: the coincident branch runs for the batch but
        # not for most one-element calls, and each element keeps its bits
        poses = with_reversed(poses + [p])
        wd = WeightedDistance(*weights, objective, KAPPA)
        arrays = pose_arrays(poses)
        batch = wd.value_arr(p, *arrays)
        for i in range(len(poses)):
            one = wd.value_arr(p, *(a[i:i + 1] for a in arrays))
            assert batch[i] == one[0], (i, poses[i])

    @given(
        st.lists(st.one_of(coarse_pose_st, pose_st), min_size=1, max_size=20),
        st.one_of(coarse_pose_st, pose_st),
        st.sampled_from(OBJECTIVES),
        st.sampled_from(WEIGHT_PAIRS),
    )
    def test_at_least_cost_floor(self, poses, p, objective, weights):
        # the floor the planner's informed pre-check and nearest reach rely
        # on, at coincident positions and opposite headings too
        poses = with_reversed(poses + [p])
        wd = WeightedDistance(*weights, objective, KAPPA)
        values = wd.value_arr(p, *pose_arrays(poses))
        for value, q in zip(values, poses):
            assert value >= cost_floor(wd, math.hypot(p.x - q.x, p.y - q.y)), q

    def test_tight_cases_at_least_cost_floor(self):
        # aligned along the line between them, dual-headway values sit at the
        # floor: mismatch 1 - 2 kappa and orientation 0, up to rounding; the
        # last pair's value() rounds below alpha * distance, which is why
        # the floor is padded
        heading = math.atan2(0.37, 0.1)
        pairs = [(Pose(0.1 * k, 0.37 * k, heading), Pose(0.0, 0.0, heading))
                 for k in range(1, 200)]
        p = Pose(1.0, 5.0, 0.5)
        q = Pose(p.x + 0.7 * math.cos(0.5), p.y + 0.7 * math.sin(0.5), 0.5)
        pairs.append((p, q))
        assert WeightedDistance(1.0, 10.0, "dualhead", KAPPA).value(p, q) < p.distance_to(q)
        for objective in OBJECTIVES:
            for alpha, beta in WEIGHT_PAIRS:
                wd = WeightedDistance(alpha, beta, objective, KAPPA)
                for p, q in pairs:
                    dist = math.hypot(p.x - q.x, p.y - q.y)
                    for value in (wd.value_arr(p, *pose_arrays([q]))[0], wd.value(p, q)):
                        assert value >= cost_floor(wd, dist)
                        assert value <= alpha * dist * (1 + 1e-12) + 1e-12


class TestNearestAndNeighbors:
    """MotionGraph.nearest_index and neighbor_indices."""

    def test_singleton(self):
        wd = objective_distance("dualhead", 1.0, 10.0, KAPPA)
        assert lone_nearest(MotionGraph(Pose(3, 3, 1)), Pose(0, 0, 0), wd) == 0

    def test_tie_breaks_to_first(self):
        wd = WeightedDistance(1.0, 0.0, "euclidean")
        graph = graph_of([Pose(1, 0, 0), Pose(-1, 0, 0), Pose(5, 5, 0)])
        assert lone_nearest(graph, Pose(0, 0, 0), wd) == 0

    def test_matches_bruteforce(self, rng):
        wd = objective_distance("dualhead", 1.0, 10.0, KAPPA)
        poses = [q for _, q in random_pose_pairs(rng, 100)]
        graph = graph_of(poses)
        for p, _ in random_pose_pairs(rng, 50):
            best = min(range(len(poses)), key=lambda i: (wd.value(p, poses[i]), i))
            got = lone_nearest(graph, p, wd)
            assert wd.value(p, poses[got]) == pytest.approx(
                wd.value(p, poses[best]), abs=1e-12
            )

    def test_neighbors_infinite_radii_everything(self, rng):
        graph = graph_of([q for _, q in random_pose_pairs(rng, 40)])
        got = graph.neighbor_indices(Pose(0, 0, 0), math.inf, math.inf)
        assert got.tolist() == list(range(40))

    def test_neighbors_zero_position_radius(self):
        graph = graph_of([Pose(0, 0, 0.1), Pose(1, 0, 0), Pose(0, 0, 3.0)])
        assert graph.neighbor_indices(Pose(0, 0, 0), 0.0, 0.1).tolist() == [0]

    def test_neighbors_match_bruteforce_filter(self, rng):
        poses = [q for _, q in random_pose_pairs(rng, 200)]
        p = Pose(0, 0, 0)
        dp, dth = 4.0, 0.5
        expected = [
            i for i, q in enumerate(poses)
            if euclidean(p, q) <= dp and cosine(p, q) <= dth
        ]
        assert graph_of(poses).neighbor_indices(p, dp, dth).tolist() == expected

    @given(
        pruned_graphs(),
        coarse_pose_st,
        st.sampled_from(OBJECTIVES),
        st.sampled_from([(1.0, 10.0), (1.0, 0.0), (0.0, 1.0), (2.5, 0.3)]),
    )
    def test_nearest_equals_bruteforce(self, graph, p, objective, weights):
        wd = WeightedDistance(*weights, objective, KAPPA)
        got = lone_nearest(graph, p, wd)
        assert got == brute_nearest(graph, p, wd)
        assert graph.is_alive(got)

    @given(
        pruned_graphs(),
        coarse_pose_st,
        st.sampled_from([0.0, 0.5, 1.0, 1.5, 4.0, math.inf]),
        st.sampled_from([0.0, 1 - math.cos(PI / 4), 1.0, 2.0, math.inf]),
    )
    def test_neighbors_equal_bruteforce(self, graph, p, radius, angle):
        got = graph.neighbor_indices(p, radius, angle)
        assert got.tolist() == brute_neighbors(graph, p, radius, angle)


class TestAnnouncedQueries:
    """Nearest queries answered in blocks: every answer is the lone query's
    for the tree at the call, and the graph keeps none of them, so after a
    tree change the caller asks again for the rest of its block."""

    def test_kill_and_add_invalidate_answers(self):
        wd = WeightedDistance(1.0, 0.0, "euclidean")
        graph = graph_of([Pose(0, 0, 0), Pose(1, 0, 0), Pose(5, 5, 0)])
        queries = [Pose(1, 0.1, 0) for _ in range(3)]
        assert graph.nearest_index(columns(queries), wd) == [1, 1, 1]
        graph.kill_subtree(1)
        assert graph.nearest_index(columns(queries[1:]), wd) == [0, 0]
        graph.add_vertex(Pose(1, 0.2, 0), 0, 1.0)
        assert graph.nearest_index(columns(queries[2:]), wd) == [3]

    def test_rewire_keeps_answers(self, monkeypatch):
        # rewiring moves no pose: the answers of one value_arr call for the
        # whole block hold after a rewire inside it
        wd = objective_distance("dualhead", 1.0, 10.0, KAPPA)
        graph = graph_of([Pose(0, 0, 0), Pose(1, 0, 0), Pose(2, 0, 0)])
        queries = [Pose(0.3 * k, 0.1, 0.2 * k) for k in range(8)]
        calls = []
        value_arr = WeightedDistance.value_arr
        monkeypatch.setattr(WeightedDistance, "value_arr",
                            lambda *args: calls.append(1) or value_arr(*args))
        got = graph.nearest_index(columns(queries), wd)
        graph.rewire(2, 1, 1.0)
        assert len(calls) == 1
        assert got == [brute_nearest(graph, p, wd) for p in queries]

    @given(
        pruned_graphs(),
        st.lists(st.tuples(coarse_pose_st, st.sampled_from(["ask", "add", "kill", "rewire"]),
                           st.integers(0, 40)), min_size=1, max_size=12),
        st.sampled_from(OBJECTIVES),
        st.sampled_from([(1.0, 10.0), (1.0, 0.0), (0.0, 1.0), (2.5, 0.3)]),
    )
    def test_announced_queries_equal_bruteforce(self, graph, steps, objective, weights):
        # before each query the tree may gain a vertex, lose a subtree or
        # rewire one; the block from that query on is asked again, and
        # every answer is the lone query's
        wd = WeightedDistance(*weights, objective, KAPPA)
        for j, (p, op, k) in enumerate(steps):
            alive = graph.alive_indices().tolist()
            v = alive[k % len(alive)]
            if op == "add":
                graph.add_vertex(Pose(p.y, p.x, p.theta), v, 1.0)
            elif op == "kill" and v != 0:
                graph.kill_subtree(v)
            elif op == "rewire" and v != 0:
                graph.rewire(v, 0, 1.0)
            block = [q for q, _, _ in steps[j:]]
            assert graph.nearest_index(columns(block), wd) == [
                brute_nearest(graph, q, wd) for q in block]

    def test_query_out_of_turn_is_answered_alone(self):
        # an answer does not depend on the other queries of its block
        wd = WeightedDistance(1.0, 0.0, "euclidean")
        graph = graph_of([Pose(0, 0, 0), Pose(1, 0, 0)])
        queries = [Pose(1, 0, 0), Pose(0, 0, 0), Pose(1, 0, 0)]
        assert graph.nearest_index(columns(queries), wd) == [1, 0, 1]
        assert [lone_nearest(graph, p, wd) for p in queries] == [1, 0, 1]


class AlwaysIndexed(MotionGraph):
    """Serves every query from its cells, however few vertices it holds."""

    def _indexed(self) -> bool:
        return self._cells is not None


# positions on the half-metre lattice of [-3, 3]: every one lies on a cell
# edge of the grids below, and those outside [-2, 2] file into edge cells
lattice_pose_st = st.builds(
    Pose,
    st.integers(-6, 6).map(lambda k: 0.5 * k),
    st.integers(-6, 6).map(lambda k: 0.5 * k),
    st.one_of(st.sampled_from([0.0, PI / 2, -PI / 2, PI / 4, PI]), st.floats(-PI, PI)),
)
query_pose_st = st.one_of(
    lattice_pose_st,
    st.builds(Pose, st.floats(-3, 3), st.floats(-3, 3), st.floats(-PI, PI)),
)


@st.composite
def indexed_graphs(draw, cls, side, min_size):
    """A random tree over lattice poses with a cell index over [-2, 2]^2,
    with some subtrees killed."""
    poses = draw(st.lists(lattice_pose_st, min_size=min_size, max_size=min_size + 40))
    parents = [draw(st.integers(0, i)) for i in range(len(poses) - 1)]
    graph = cls(poses[0], CellIndex(-2.0, -2.0, 2.0, 2.0, side))
    for q, parent in zip(poses[1:], parents):
        graph.add_vertex(q, parent, 1.0)
    for v in draw(st.lists(st.integers(1, max(1, len(poses) - 1)), max_size=4)):
        if v < len(graph) and graph.is_alive(v):
            graph.kill_subtree(v)
    return graph


# AlwaysIndexed on 64 cells: sparse trees, so blocks run empty and the reach
# box grows past them, and a nearest query starts from its 3x3 block;
# MotionGraph with 16 cells: trees past 16 alive vertices, where the index
# engages by itself, on a grid coarse enough that a nearest query starts
# from its own cell. Both filter the reach box by squared distance.
INDEXED = [(AlwaysIndexed, 0.5, 1), (MotionGraph, 1.0, 24)]


class TestIndexedNearestAndNeighbors:
    """The cell-indexed queries equal the brute-force loops, ties included."""

    @pytest.mark.parametrize("cls, side, min_size", INDEXED)
    @given(
        data=st.data(),
        p=query_pose_st,
        objective=st.sampled_from(OBJECTIVES),
        weights=st.sampled_from(
            [(1.0, 10.0), (1.0, 0.0), (0.0, 1.0), (2.5, 0.3), (0.05, 1.0)]),
    )
    def test_nearest_equals_bruteforce(self, cls, side, min_size, data, p, objective, weights):
        graph = data.draw(indexed_graphs(cls, side, min_size))
        wd = WeightedDistance(*weights, objective, KAPPA)
        assert lone_nearest(graph, p, wd) == brute_nearest(graph, p, wd)

    @pytest.mark.parametrize("cls, side, min_size", INDEXED)
    @given(
        data=st.data(),
        block=st.lists(query_pose_st, min_size=1, max_size=6),
        objective=st.sampled_from(OBJECTIVES),
        weights=st.sampled_from([(1.0, 10.0), (1.0, 0.0), (0.0, 1.0), (0.05, 1.0)]),
    )
    def test_block_equals_bruteforce(self, cls, side, min_size, data, block, objective,
                                     weights):
        # the indexed path answers a block row by row, each as the lone query
        graph = data.draw(indexed_graphs(cls, side, min_size))
        wd = WeightedDistance(*weights, objective, KAPPA)
        assert graph.nearest_index(columns(block), wd) == [
            brute_nearest(graph, p, wd) for p in block]

    @pytest.mark.parametrize("cls, side, min_size", INDEXED)
    @given(
        data=st.data(),
        p=query_pose_st,
        radius=st.sampled_from([0.0, 0.5, 0.75, 1.0, 1.5, 4.0, math.inf]),
        angle=st.sampled_from([0.0, 1 - math.cos(PI / 4), 1.0, 2.0, math.inf]),
    )
    def test_neighbors_equal_bruteforce(self, cls, side, min_size, data, p, radius, angle):
        graph = data.draw(indexed_graphs(cls, side, min_size))
        got = graph.neighbor_indices(p, radius, angle)
        assert got.tolist() == brute_neighbors(graph, p, radius, angle)

    def test_coarse_grid_keeps_a_tie_at_the_reach(self):
        # on 16 cells the 3x3 block is most of the grid, so the query starts
        # from its own cell, which holds A; B mirrors A across the query's
        # row, outside that cell, and ties it, yet B's squared distance
        # rounds above the squared incumbent value: an unpadded reach filter
        # drops B and answers A
        cells = CellIndex(-2.0, -2.0, 2.0, 2.0, 1.0)
        a, b, p = Pose(-1.6, -2.0, 0.0), Pose(-1.6, -1.0, 0.0), Pose(-1.7, -1.5, 0.0)
        graph = AlwaysIndexed(b, cells)
        graph.add_vertex(a, 0, 1.0)
        assert 2 * 9 > cells.count
        assert cells.cell(p.x, p.y) == cells.cell(a.x, a.y) != cells.cell(b.x, b.y)
        wd = WeightedDistance(1.0, 0.0, "euclidean")
        values = wd.value_arr(p, *pose_arrays([b, a]))
        assert values[0] == values[1]
        dx, dy = b.x - p.x, b.y - p.y
        assert dx * dx + dy * dy > values[1] * values[1]
        assert lone_nearest(graph, p, wd) == brute_nearest(graph, p, wd) == 0

    def test_index_engages_past_one_vertex_per_cell(self):
        cells = CellIndex(-2.0, -2.0, 2.0, 2.0, 1.0)
        graph = MotionGraph(Pose(0, 0, 0), cells)
        for k in range(cells.count):
            graph.add_vertex(Pose(0.25 * (k % 16) - 2, 0.25 * (k // 16), 0.1 * k), 0, 1.0)
        assert graph._indexed()
        graph.kill_subtree(1)
        assert not graph._indexed()

    def test_cells_keep_a_killed_vertex_and_the_queries_skip_it(self):
        # each dead vertex beats every alive one where a query reads the
        # cells: in the 3x3 block, beyond it and in a neighbourhood
        cells = CellIndex(-2.0, -2.0, 2.0, 2.0, 0.5)
        graph = AlwaysIndexed(Pose(-1, -1, PI), cells)
        for q, parent in [(Pose(0.5, 0.5, 0), 0), (Pose(0.6, 0.5, 0), 1),
                          (Pose(0, -1, 0), 1), (Pose(0.5, 0.5, 2), 0)]:
            graph.add_vertex(q, parent, 1.0)
        everything = (0, cells.nx - 1, 0, cells.ny - 1)
        assert sorted(cells.gather(everything).tolist()) == [0, 1, 2, 3, 4]
        graph.kill_subtree(1)
        assert sorted(cells.gather(everything).tolist()) == [0, 1, 2, 3, 4]
        for p, wd, want in [(Pose(0.6, 0.5, 0), WeightedDistance(1.0, 0.0, "euclidean"), 4),
                            (Pose(-1, -1, 0), WeightedDistance(1.0, 0.6, "euclidean"), 0)]:
            assert lone_nearest(graph, p, wd) == brute_nearest(graph, p, wd) == want
        p = Pose(0.5, 0.5, 0)
        assert graph.neighbor_indices(p, 0.75, math.inf).tolist() == [4]
        assert brute_neighbors(graph, p, 0.75, math.inf) == [4]


class TestProjection:
    def test_position_clamped(self):
        out = project(Pose(0, 0, 0), Pose(3, 0, 0), 1.0, 0.5)
        assert (out.x, out.y) == pytest.approx((1.0, 0.0))

    def test_inside_both_radii_returned_exactly(self):
        target = Pose(0.25, -0.1, 0.2)
        out = project(Pose(0, 0, 0), target, 1.0, 1 - math.cos(0.5))
        assert out == target

    def test_angle_boundary_sign(self):
        step_ang = 1 - math.cos(PI / 6)
        out = project(Pose(0, 0, 0), Pose(0, 0, PI / 2), 1.0, step_ang)
        assert out.theta == pytest.approx(PI / 6)
        out = project(Pose(0, 0, 0), Pose(0, 0, -PI / 2), 1.0, step_ang)
        assert out.theta == pytest.approx(-PI / 6)

    def test_orientation_optimality_bruteforce(self, rng):
        # projected heading minimizes cosine distance to the target among a
        # dense grid of headings satisfying the step constraint
        grid = np.linspace(-PI, PI, 10_000, endpoint=False)
        for _ in range(50):
            frm = Pose(0, 0, rng.uniform(-PI, PI))
            target = Pose(0, 0, rng.uniform(-PI, PI))
            step_ang = rng.uniform(0.05, 1.9)
            out = project(frm, target, 1.0, step_ang)
            assert 1 - math.cos(out.theta - frm.theta) <= step_ang + 1e-9
            feasible = grid[1 - np.cos(grid - frm.theta) <= step_ang]
            best = np.min(1 - np.cos(feasible - target.theta))
            mine = 1 - math.cos(out.theta - target.theta)
            assert mine <= best + 1e-6

    def test_position_optimality_bruteforce(self, rng):
        for _ in range(50):
            frm = Pose(*rng.uniform(-2, 2, 2), 0.0)
            target = Pose(*rng.uniform(-4, 4, 2), 0.0)
            step = rng.uniform(0.2, 2.0)
            out = project(frm, target, step, 1.0)
            d_frm = math.hypot(out.x - frm.x, out.y - frm.y)
            assert d_frm <= step + 1e-12
            # any feasible point is no closer to the target
            angles = np.linspace(0, 2 * PI, 64, endpoint=False)
            radii = np.linspace(0, step, 16)
            best = min(
                math.hypot(frm.x + r * math.cos(a) - target.x,
                           frm.y + r * math.sin(a) - target.y)
                for a in angles for r in radii
            )
            mine = math.hypot(out.x - target.x, out.y - target.y)
            assert mine <= best + 1e-9
