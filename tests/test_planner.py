import heapq
import itertools
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from uniplan import planner
from uniplan.control import Pose
from uniplan.metrics import WeightedDistance, objective_distance
from uniplan.planner import (
    MotionGraph,
    PlanningError,
    build_tree,
    cost_floor,
    heuristic,
    prune,
    rewire_through,
    sorted_where,
    within_radius,
)
from uniplan.prediction import issafe
from uniplan.world import load_scenario, scenario_from_dict

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

WD = objective_distance("dualhead", 1.0, 10.0, 1.0 / 3.0)


def empty_doc(**planner):
    base = {"samples": 200, "seed": 0}
    base.update(planner)
    return {
        "workspace": {"min": [0, 0], "max": [10, 10]},
        "start": {"x": 1, "y": 5, "theta": 0},
        "goal": {"x": 9, "y": 5, "theta": 0},
        "planner": base,
    }


def dijkstra_cost(graph, target):
    """Oracle: shortest path over the undirected edge set from vertex 0."""
    adjacency = {}
    for a, b, c in graph.edges():
        adjacency.setdefault(a, []).append((b, c))
        adjacency.setdefault(b, []).append((a, c))
    dist = {0: 0.0}
    pq = [(0.0, 0)]
    seen = set()
    while pq:
        d, u = heapq.heappop(pq)
        if u in seen:
            continue
        seen.add(u)
        if u == target:
            return d
        for w, c in adjacency.get(u, []):
            nd = d + c
            if nd < dist.get(w, math.inf):
                dist[w] = nd
                heapq.heappush(pq, (nd, w))
    return math.inf


class TestCostOps:
    def test_local_cost_modes(self):
        # under the uniform objective every tree edge costs 1; the weighted
        # modes are checked in TestBuildTree.test_cost_consistency
        graph = build_tree(scenario_from_dict(empty_doc(samples=100, objective="uniform")))
        costs = [cost for _, _, cost in graph.edges()]
        assert costs and all(c == 1.0 for c in costs)

    def test_heuristic_modes(self):
        p, q = Pose(0, 0, 0), Pose(3, 4, 1.0)
        assert heuristic(p, q, WD, "zero") == 0.0
        assert heuristic(p, q, WD, "euclidean") == pytest.approx(5.0)

    def test_heuristic_admissible(self, rng):
        for _ in range(5000):
            p = Pose(*rng.uniform(-5, 5, 2), rng.uniform(-np.pi, np.pi))
            q = Pose(*rng.uniform(-5, 5, 2), rng.uniform(-np.pi, np.pi))
            h = heuristic(p, q, WD, "euclidean")
            assert h <= WD.value(p, q) + 1e-12


    def test_costs_to_sums_along_tree_path(self):
        # informed pruning leaves dead slots, rewiring re-parents subtrees
        problem = load_scenario(SCENARIOS / "three_obstacles.json")
        graph = build_tree(replace(problem, planner=replace(
            problem.planner, samples=400, seed=0, informed="euclidean")))
        alive = graph.alive_indices().tolist()
        assert len(alive) < len(graph)
        for v in [graph.goal_index, *alive[::7]]:
            costs = graph.costs_to(v)
            up_v = graph.path_indices(v)[::-1]
            for w in range(len(graph)):
                if not graph.is_alive(w):
                    assert costs[w] == math.inf
                    continue
                # edge by edge from v: up to the common ancestor, then down to w
                up_w = graph.path_indices(w)[::-1]
                k = next(k for k, u in enumerate(up_v) if u in up_w)
                expect = 0.0
                for u in up_v[:k] + up_w[:up_w.index(up_v[k])][::-1]:
                    expect += graph.edge_cost[u]
                assert costs[w] == expect


def log_nearest_calls(monkeypatch, inside=None):
    """Log each nearest_index call as (iterations done, slots, rows); while
    a call runs, inside holds an entry."""
    log, inside = [], [] if inside is None else inside
    nearest = MotionGraph.nearest_index

    def logging(graph, draws, wd):
        log.append((len(graph.iteration_costs), len(graph), len(draws)))
        inside.append(True)
        try:
            return nearest(graph, draws, wd)
        finally:
            inside.pop()

    monkeypatch.setattr(MotionGraph, "nearest_index", logging)
    return log


def assert_block_protocol(log, samples):
    """Each nearest_index call answers the draws of the iterations up to the
    next call, at least one. It answers more only when the tree grew on the
    last of them, and then the next call answers the rest of that block."""
    assert log and log[0][0] == 0
    ends = [done for done, _, _ in log[1:]] + [samples]
    for (done, slots, rows), end, after in zip(log, ends, log[1:] + [None]):
        assert 1 <= end - done <= rows
        if end - done < rows:
            assert after[1] > slots and after[2] == rows - (end - done)


class TestBuildTree:
    def test_zero_samples(self):
        graph = build_tree(scenario_from_dict(empty_doc(samples=0)))
        assert len(graph) == 1 and graph.goal_index is None
        assert list(graph.edges()) == []
        assert graph.iteration_costs == graph.iteration_vertices == []

    def test_single_iteration_direct_goal(self):
        doc = {
            "workspace": {"min": [0, 0], "max": [10, 10]},
            "start": {"x": 5, "y": 5, "theta": 0},
            "goal": {"x": 5.8, "y": 5, "theta": 0},
            "planner": {"samples": 1, "goal_bias": 1.0, "seed": 3},
        }
        problem = scenario_from_dict(doc)
        graph = build_tree(problem)
        assert graph.goal_index == 1
        expected = WD.value(problem.start, problem.goal)
        assert graph.cost_to_come(1) == pytest.approx(expected, abs=1e-12)

    def test_start_equals_goal(self):
        doc = empty_doc(samples=5)
        doc["goal"] = dict(doc["start"])
        graph = build_tree(scenario_from_dict(doc))
        assert graph.goal_index == 0
        assert graph.path_indices(0) == [0] and graph.poses[0] == Pose(1, 5, 0)
        assert len(graph.iteration_costs) == len(graph.iteration_vertices) == 5

    def test_determinism_same_seed(self):
        a = build_tree(scenario_from_dict(empty_doc(samples=300, seed=42)))
        b = build_tree(scenario_from_dict(empty_doc(samples=300, seed=42)))
        assert a.to_dict() == b.to_dict()

    def test_different_seeds_differ(self):
        a = build_tree(scenario_from_dict(empty_doc(samples=200, seed=1)))
        b = build_tree(scenario_from_dict(empty_doc(samples=200, seed=2)))
        assert a.to_dict() != b.to_dict()

    @pytest.mark.parametrize("objective", ["dualhead", "uniform"])
    def test_one_edge_cost_call_per_parent_choice(self, objective, monkeypatch):
        # nearest queries follow the block protocol, and each iteration that
        # reaches the parent choice scores its neighbourhood and nearest
        # vertex in one call; the cell-indexed nearest query may score in
        # two calls, so calls made inside it are not counted
        calls = {"value_arr": 0, "neighbor_indices": 0}
        inside_nearest = []
        log = log_nearest_calls(monkeypatch, inside_nearest)

        def count(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                if not inside_nearest:
                    calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        count(WeightedDistance, "value_arr")
        count(MotionGraph, "neighbor_indices")
        build_tree(scenario_from_dict(empty_doc(samples=200, objective=objective)))
        assert calls["neighbor_indices"] > 0
        assert_block_protocol(log, 200)
        per_choice = 1 if objective == "dualhead" else 0
        assert calls["value_arr"] == per_choice * calls["neighbor_indices"]

    def test_cell_index_engages(self, monkeypatch):
        # over a 2000-sample three_obstacles plan the nearest queries score
        # under a third of the vertex slots a scan of the tree would
        elements = {"scored": 0, "slots": 0}
        inside_nearest = []
        nearest, value_arr = MotionGraph.nearest_index, WeightedDistance.value_arr

        def counting_nearest(graph, p, wd, *ahead):
            elements["slots"] += len(graph)
            inside_nearest.append(True)
            try:
                return nearest(graph, p, wd, *ahead)
            finally:
                inside_nearest.pop()

        def counting_value_arr(wd, p, xs, *rest):
            if inside_nearest:
                elements["scored"] += len(xs)
            return value_arr(wd, p, xs, *rest)

        monkeypatch.setattr(MotionGraph, "nearest_index", counting_nearest)
        monkeypatch.setattr(WeightedDistance, "value_arr", counting_value_arr)
        problem = load_scenario(SCENARIOS / "three_obstacles.json")
        build_tree(replace(problem, planner=replace(problem.planner, samples=2000)))
        assert elements["scored"] * 3 < elements["slots"], elements

    def test_parent_choice_and_radius_test_skip_work(self, monkeypatch):
        # on a small empty_10x10 plan (radius 6, angle 2.0: neighbourhoods
        # of most of the tree) the parent choice sorts under a tenth of the
        # neighbourhood slots, and the radius test calls np.hypot on under
        # 1% of the slots it tests
        counts = {"near": 0, "sorted": 0, "tested": 0, "hypot": 0}
        inside_within = []
        neighbors, within = MotionGraph.neighbor_indices, MotionGraph._within
        ordered, hypot = planner.sorted_where, np.hypot

        def counting_neighbors(graph, *args):
            near = neighbors(graph, *args)
            counts["near"] += len(near)
            return near

        def counting_within(graph, p, radius, angle, idx):
            counts["tested"] += len(graph._xs[idx])
            inside_within.append(True)
            try:
                return within(graph, p, radius, angle, idx)
            finally:
                inside_within.pop()

        def counting_sorted_where(values, keep):
            order = ordered(values, keep)
            counts["sorted"] += len(order)
            return order

        def counting_hypot(x, y, *args):
            if inside_within:
                counts["hypot"] += np.size(x)
            return hypot(x, y, *args)

        monkeypatch.setattr(MotionGraph, "neighbor_indices", counting_neighbors)
        monkeypatch.setattr(MotionGraph, "_within", counting_within)
        monkeypatch.setattr(planner, "sorted_where", counting_sorted_where)
        monkeypatch.setattr(np, "hypot", counting_hypot)
        problem = load_scenario(SCENARIOS / "empty_10x10.json")
        build_tree(replace(problem, planner=replace(problem.planner, samples=400)))
        assert counts["sorted"] * 10 < counts["near"], counts
        assert counts["hypot"] * 100 < counts["tested"], counts

    def test_cost_consistency(self):
        problem = scenario_from_dict(empty_doc(samples=400, seed=7))
        graph = build_tree(problem)
        for i in range(1, len(graph)):
            if not graph.is_alive(i):
                continue
            parent = graph.parent[i]
            assert graph.is_alive(parent)
            assert graph.cost_to_come(i) == pytest.approx(
                graph.cost_to_come(parent) + graph.edge_cost[i], abs=1e-9
            )
            # stored edge cost is the weighted distance of its endpoints
            assert graph.edge_cost[i] == pytest.approx(
                WD.value(graph.poses[parent], graph.poses[i]), abs=1e-9
            )

    def test_edges_safe_at_insertion(self):
        problem = scenario_from_dict(
            {
                "workspace": {"min": [0, 0], "max": [10, 10]},
                "robot_radius": 0.4,
                "obstacles": [{"type": "ball", "center": [5, 5], "radius": 1.2}],
                "start": {"x": 1, "y": 5, "theta": 0},
                "goal": {"x": 9, "y": 5, "theta": 0},
                "planner": {"samples": 300, "seed": 5},
            }
        )
        graph = build_tree(problem)
        for a, b, _ in graph.edges():
            assert issafe(graph.poses[a], graph.poses[b], problem.world, problem.control)

    def test_goal_cost_monotone(self):
        graph = build_tree(scenario_from_dict(empty_doc(samples=800, seed=11)))
        costs = np.array(graph.iteration_costs)
        finite = np.isfinite(costs)
        assert finite.any()
        assert np.all(np.diff(costs[finite]) <= 1e-12)

    def test_path_indices_matches_dijkstra(self):
        for seed in range(3):
            graph = build_tree(scenario_from_dict(empty_doc(samples=500, seed=seed)))
            if graph.goal_index is None:
                continue
            path = graph.path_indices(graph.goal_index)
            assert path[0] == 0 and graph.poses[0] == Pose(1, 5, 0)
            assert path[-1] == graph.goal_index
            assert graph.cost_to_come(graph.goal_index) == pytest.approx(
                dijkstra_cost(graph, graph.goal_index), abs=1e-9
            )


# radii inside within_radius's d2 range and at and beyond its ends
RADII = [0.0, math.inf, 1.0, 6.0, 5e-324, 1e-225, 1e-160, 1.5e-150, 1e-149, 1e149,
         1.4e149, 1e154, 1.4e154, 1e200]
# offsets whose d2 underflows, overflows or is exact
EXTREME_OFFSETS = [0.0, -0.0, 5e-324, 1e-310, 1e-225, 1e-160, 1.5e-154, 1.0, 3.0, 1e154,
                   1.4e154, 1e200, 1.7e308, math.inf]


@st.composite
def radius_and_offsets(draw):
    """A radius and (dx, dy) offsets: free, extreme, and on the circle of
    the radius, on an axis and at a drawn angle, at and one ulp either
    side of it."""
    radius = draw(st.one_of(st.sampled_from(RADII), st.floats(0.0, 1e12)))
    sign = st.sampled_from([1.0, -1.0])
    extreme = st.builds(lambda v, s: v * s, st.sampled_from(EXTREME_OFFSETS), sign)
    coordinate = st.one_of(st.floats(-1e3, 1e3), extreme)
    offsets = draw(st.lists(st.tuples(coordinate, coordinate), max_size=8))
    phi = draw(st.floats(-math.pi, math.pi))
    for r in (np.nextafter(radius, 0.0), radius, np.nextafter(radius, math.inf)):
        offsets += [(float(r), 0.0), (float(r) * math.cos(phi), float(r) * math.sin(phi))]
    return radius, offsets


class TestExactShortcuts:
    """The shortcuts of the tree queries and the parent choice give exactly
    the answers of the forms they replace, ties included."""

    @given(radius_and_offsets())
    @example((0.0, [(1e-225, 0.0)]))
    @example((1.0, [(1e-225, 0.0), (1e200, 1.0), (1.0, 0.0), (0.6, 0.8)]))
    def test_within_radius_equals_hypot(self, case):
        radius, offsets = case
        dx, dy = np.array(offsets, dtype=float).T
        with np.errstate(over="ignore", invalid="ignore"):  # the extreme offsets
            want = np.hypot(dx, dy) <= radius
            assert within_radius(dx, dy, radius).tolist() == want.tolist()

    @given(
        st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.5, math.inf]),
                           st.floats(-3.0, 3.0)), max_size=40),
        st.one_of(st.sampled_from([0.0, 1.0, 2.5, math.inf]), st.floats(-3.0, 3.0)),
    )
    def test_sorted_where_is_the_full_stable_order_cut(self, values, limit):
        # extend visits the full order's prefix below mincost, and select
        # the entries up to best_known; few distinct values make ties common
        values = np.array(values, dtype=float)
        full = np.argsort(values, kind="stable").tolist()
        prefix = list(itertools.takewhile(lambda j: values[j] < limit, full))
        assert sorted_where(values, values < limit).tolist() == prefix
        assert sorted_where(values, values <= limit).tolist() == [
            j for j in full if values[j] <= limit]


def scalar_rewire(graph, v, near, edge_costs, skip, world, cp):
    """Reference: the per-neighbour loop that rewire_through replaces."""
    ctc_new = graph.cost_to_come(v)
    for j, cand in enumerate(near):
        cand = int(cand)
        if not graph.is_alive(cand) or cand == skip:
            continue
        c = float(edge_costs[j])
        if c <= 0.0:
            continue
        if ctc_new + c < graph.cost_to_come(cand) and issafe(
            graph.poses[v], graph.poses[cand], world, cp
        ):
            graph.rewire(cand, v, c)


class TestRewire:
    def chain_below_new_vertex(self):
        """a (ctc 10) and its child b (ctc 10.5) both pass the array filter
        for the new vertex v (ctc 1); rewiring a lowers b to 2.5, under b's
        cost through v (3), so b must be left where it is."""
        graph = MotionGraph(Pose(1, 5, 0))
        a = graph.add_vertex(Pose(3, 5, 0), 0, 10.0)
        b = graph.add_vertex(Pose(4, 5, 0), a, 0.5)
        v = graph.add_vertex(Pose(2, 5, 0), 0, 1.0)
        return graph, v, np.array([a, b]), np.array([1.0, 2.0])

    @pytest.mark.parametrize("rewire", [rewire_through, scalar_rewire])
    def test_earlier_rewire_disqualifies_later_neighbour(self, rewire):
        problem = scenario_from_dict(empty_doc())
        graph, v, near, edge_costs = self.chain_below_new_vertex()
        a, b = near.tolist()
        rewire(graph, v, near, edge_costs, 0, problem.world, problem.control)
        assert graph.parent[a] == v and graph.parent[b] == a
        assert graph.cost_to_come(a) == 2.0 and graph.cost_to_come(b) == 2.5

    def test_build_tree_rewires_like_the_scalar_loop(self, monkeypatch):
        # radius 6 in a 10 m square: huge neighbourhoods and many rewires
        problem = scenario_from_dict(empty_doc(samples=300, neighbor_radius=6.0,
                                               neighbor_angle=2.0))
        log = []
        original = MotionGraph.rewire

        def recording(graph, v, new_parent, cost):
            log.append((v, new_parent, cost))
            original(graph, v, new_parent, cost)

        monkeypatch.setattr(MotionGraph, "rewire", recording)
        filtered = build_tree(problem).to_dict()
        filtered_rewires = log.copy()
        log.clear()
        monkeypatch.setattr(planner, "rewire_through", scalar_rewire)
        scalar = build_tree(problem).to_dict()
        assert len(log) > 100
        assert filtered_rewires == log
        assert filtered == scalar


class TestPrune:
    def build_chain(self):
        graph = MotionGraph(Pose(0, 0, 0))
        a = graph.add_vertex(Pose(1, 0, 0), 0, 1.0)
        b = graph.add_vertex(Pose(2, 0, 0), a, 1.0)
        goal = graph.add_vertex(Pose(3, 0, 0), b, 1.0)
        graph.goal_index = goal
        return graph, goal

    def test_noop_without_goal(self):
        graph = MotionGraph(Pose(0, 0, 0))
        graph.add_vertex(Pose(1, 0, 0), 0, 10.0)
        before = graph.to_dict()
        prune(graph, Pose(3, 0, 0), WD, "euclidean")
        assert graph.to_dict() == before

    def test_vertex_over_bound_removed_with_subtree(self):
        graph, goal = self.build_chain()
        # side branch that cannot be on any optimal path: cost 10 + h 5 > 3
        side = graph.add_vertex(Pose(2, 4, 0), 0, 10.0)
        leaf = graph.add_vertex(Pose(2, 4.5, 0), side, 0.5)
        wd = objective_distance("euclidean", 1.0, 0.0, 1.0 / 3.0)
        prune(graph, graph.poses[goal], wd, "euclidean")
        assert not graph.is_alive(side)
        assert not graph.is_alive(leaf)
        for i in (0, 1, 2, goal):
            assert graph.is_alive(i)

    def test_best_path_intact(self):
        graph, goal = self.build_chain()
        wd = objective_distance("euclidean", 1.0, 0.0, 1.0 / 3.0)
        prune(graph, graph.poses[goal], wd, "euclidean")
        assert graph.path_indices(goal) == [0, 1, 2, goal]

    def test_flagged_best_path_asserts(self):
        # an over-estimating heuristic (alpha 10, edge costs 1) flags the
        # best path; the assert keeps the goal alive
        graph, goal = self.build_chain()
        wd = objective_distance("euclidean", 10.0, 0.0, 1.0 / 3.0)
        with pytest.raises(AssertionError, match="best-path vertex"):
            prune(graph, graph.poses[goal], wd, "euclidean")
        assert graph.alive_count == 4

    def test_zero_heuristic_bound(self):
        graph, goal = self.build_chain()
        over = graph.add_vertex(Pose(0, 1, 0), 0, 3.5)
        under = graph.add_vertex(Pose(0, -1, 0), 0, 2.5)
        wd = objective_distance("euclidean", 1.0, 0.0, 1.0 / 3.0)
        prune(graph, graph.poses[goal], wd, "zero")
        assert not graph.is_alive(over)
        assert graph.is_alive(under)


class TestInformedModes:
    def test_informed_rejects_and_never_worse_smoke(self):
        base = empty_doc(samples=600, seed=3)
        off = build_tree(scenario_from_dict(base))
        base["planner"]["informed"] = "euclidean"
        inf = build_tree(scenario_from_dict(base))
        assert inf.rejected > 0
        assert inf.alive_count < off.alive_count
        c_off = off.cost_to_come(off.goal_index)
        c_inf = inf.cost_to_come(inf.goal_index)
        assert c_inf <= c_off + 1e-9

    # "uniform" is left out: its unit edge costs have no distance floor,
    # and it allows no informed mode
    @pytest.mark.parametrize("objective", ["euclidean", "euccos", "dualhead"])
    @pytest.mark.parametrize("informed", ["off", "euclidean"])
    def test_cost_to_come_at_least_cost_floor(self, objective, informed):
        # the lemma behind the informed pre-check, on grown and rewired trees
        problem = load_scenario(SCENARIOS / "three_obstacles.json")
        pp = replace(problem.planner, samples=400, objective=objective, informed=informed)
        graph = build_tree(replace(problem, planner=pp))
        wd = objective_distance(objective, pp.alpha, pp.beta, pp.kappa)
        start = graph.poses[0]
        assert graph.alive_count > 20
        for i in graph.alive_indices():
            q = graph.poses[i]
            floor = cost_floor(wd, math.hypot(q.x - start.x, q.y - start.y))
            assert graph.cost_to_come(i) >= floor, i

    def test_precheck_skips_the_neighbourhood(self, monkeypatch):
        # the corridor's first goal cost leaves a thin informed set, and a
        # sample outside it is rejected on its cost floor from the start,
        # before the issafe gate, so almost no iteration reaches
        # neighbor_indices; rejected counts those samples whether or not
        # they are safe to their nearest vertex
        calls = []
        neighbor_indices = MotionGraph.neighbor_indices

        def counting(graph, *args):
            calls.append(1)
            return neighbor_indices(graph, *args)

        monkeypatch.setattr(MotionGraph, "neighbor_indices", counting)
        problem = load_scenario(SCENARIOS / "informed_corridor.json")
        samples = 3000
        pp = replace(problem.planner, samples=samples, seed=0, informed="euclidean")
        graph = build_tree(replace(problem, planner=pp))
        assert graph.goal_index is not None
        assert graph.rejected > samples // 2
        assert len(calls) < 0.05 * samples, len(calls)

    def test_precheck_skips_the_safety_gate(self, monkeypatch):
        # the floor test runs before issafe(p_best, p_new), so a sample
        # outside the informed set costs no safety test; with the gate
        # first, every one of the 3,000 samples would pay for one
        calls = []

        def counting(*args):
            calls.append(1)
            return issafe(*args)

        monkeypatch.setattr(planner, "issafe", counting)
        problem = load_scenario(SCENARIOS / "informed_corridor.json")
        samples = 3000
        pp = replace(problem.planner, samples=samples, seed=0, informed="euclidean")
        graph = build_tree(replace(problem, planner=pp))
        assert graph.goal_index is not None
        assert len(calls) < 0.01 * samples, len(calls)

    def test_lookahead_engages(self, monkeypatch):
        # an informed corridor tree changes on a few iterations only, so
        # nearly every draw is answered by a block's one nearest query and
        # rejected by its one array floor test; only the draws that reach
        # extend are projected
        calls = {"value_arr": 0, "project": 0, "extend": 0}

        def count(owner, name):
            original = getattr(owner, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)
            monkeypatch.setattr(owner, name, wrapper)

        log = log_nearest_calls(monkeypatch)
        count(WeightedDistance, "value_arr")
        count(planner, "project")
        count(planner, "extend")
        problem = load_scenario(SCENARIOS / "informed_corridor.json")
        samples = 3000
        pp = replace(problem.planner, samples=samples, seed=0, informed="euclidean")
        graph = build_tree(replace(problem, planner=pp))
        assert_block_protocol(log, samples)
        assert len(log) < 0.05 * samples, len(log)
        assert calls["value_arr"] < 0.05 * samples, calls
        assert calls["project"] == calls["extend"] < 0.05 * samples, calls
        assert graph.rejected > 0.95 * samples

    def test_block_floor_spares_duplicate_and_goal_draws(self):
        # a hand-built pruned tree whose vertex v has floor plus heuristic
        # half of _PRUNE_SLACK above the goal cost: a draw at v's pose and a
        # draw at the goal position must reach extend, which skips them
        # uncounted as duplicate and degenerate-goal samples; a far draw is
        # rejected by both tests
        problem = scenario_from_dict(empty_doc(objective="euclidean",
                                               informed="euclidean", beta=0.0))
        wd = objective_distance("euclidean", 1.0, 0.0, 1.0 / 3.0)
        start, goal = problem.start, problem.goal
        graph = MotionGraph(start)
        v_pose = Pose(5, 6, 0)
        reach = cost_floor(wd, math.hypot(v_pose.x - start.x, v_pose.y - start.y))
        v = graph.add_vertex(v_pose, 0, reach)
        excess = reach + heuristic(v_pose, goal, wd, "euclidean")
        graph.goal_index = graph.add_vertex(goal, 0, excess - planner._PRUNE_SLACK / 2)
        prune(graph, goal, wd, "euclidean")
        assert graph.is_alive(v)

        draws = [(v_pose.x, v_pose.y, v_pose.theta), (goal.x, goal.y, 0.1), (5.0, 9.0, 0.0)]
        nearest = graph.nearest_index(draws, wd)
        assert nearest == [v, graph.goal_index, v]
        rejects = planner.floor_rejects(graph, draws, nearest, problem, wd)
        assert rejects.tolist() == [False, False, True]
        size = len(graph)
        for draw, b, counted in zip(draws, nearest, (0, 0, 1)):
            planner.extend(graph, problem, wd, Pose(*draw), b)
            assert (len(graph), graph.rejected) == (size, counted)

    def test_pruned_graph_dumps_cleanly(self):
        base = empty_doc(samples=400, seed=9)
        base["planner"]["informed"] = "euclidean"
        graph = build_tree(scenario_from_dict(base))
        doc = graph.to_dict()
        assert len(doc["vertices"]) == graph.alive_count
        rebuilt = MotionGraph.from_dict(doc)
        assert rebuilt.to_dict() == doc


# (scenario, objective, informed, samples): trees that stay small and let
# the scan answer look-ahead blocks and the block floor test reject most
# draws, and empty_10x10, whose dense tree the cell index serves; runs with
# informed off draw one sample at a time whatever the cap. No draw in these
# runs is a duplicate or lands on the goal position;
# test_block_floor_spares_duplicate_and_goal_draws covers those
LOOKAHEAD_CASES = [
    ("informed_corridor", "dualhead", "euclidean", 3000),
    ("informed_corridor", "dualhead", "zero", 3000),
    ("informed_corridor", "euccos", "euclidean", 3000),
    ("informed_corridor", "euclidean", "euclidean", 3000),
    ("three_obstacles", "dualhead", "euclidean", 800),
    ("three_obstacles", "euccos", "euclidean", 800),
    ("three_obstacles", "euclidean", "euclidean", 800),
    ("three_obstacles", "dualhead", "off", 800),
    ("three_obstacles", "uniform", "off", 800),
    ("empty_10x10", "dualhead", "off", 400),
    ("empty_10x10", "dualhead", "euclidean", 400),
    ("empty_10x10", "dualhead", "zero", 400),
]


def planner_outputs(scenario, objective, informed, samples):
    """Per seed, the rejected-free record (to_dict(), iteration_costs,
    iteration_vertices) of a build_tree run and its rejected count."""
    problem = load_scenario(SCENARIOS / f"{scenario}.json")

    def outputs(seed):
        pp = replace(problem.planner, objective=objective, informed=informed,
                     samples=samples, seed=seed)
        graph = build_tree(replace(problem, planner=pp))
        assert len(graph.iteration_costs) == len(graph.iteration_vertices) == samples
        return ((graph.to_dict(), graph.iteration_costs, graph.iteration_vertices),
                graph.rejected)
    return outputs


@pytest.mark.parametrize("scenario, objective, informed, samples", LOOKAHEAD_CASES)
def test_lookahead_changes_no_output(scenario, objective, informed, samples, monkeypatch):
    # a look-ahead cap of 1 draws one sample per iteration, answers its
    # nearest query alone and runs no block floor test, as the loop did
    # before it drew ahead
    outputs = planner_outputs(scenario, objective, informed, samples)
    seeds = range(4)
    ahead = [outputs(seed) for seed in seeds]
    monkeypatch.setattr(planner, "_LOOKAHEAD", 1)
    for seed, got in zip(seeds, ahead):
        assert got == outputs(seed), seed


# informed runs for the floor pre-check: LOOKAHEAD_CASES' informed ones, and
# empty_10x10 under both informed modes, where many samples that fail the
# floor are also outside the control domain from their nearest vertex
FLOOR_CASES = [case for case in LOOKAHEAD_CASES if case[2] != "off"] + [
    ("empty_10x10", objective, informed, 400)
    for objective in ("euccos", "euclidean") for informed in ("euclidean", "zero")
]


@pytest.mark.parametrize("scenario, objective, informed, samples", FLOOR_CASES)
def test_floor_precheck_changes_no_output(scenario, objective, informed, samples,
                                          monkeypatch):
    # a floor of -inf passes every sample, so the exact test after the
    # parent choice alone decides, as if the pre-check did not exist
    outputs = planner_outputs(scenario, objective, informed, samples)
    seeds = range(4)
    checked = [outputs(seed) for seed in seeds]
    monkeypatch.setattr(planner, "cost_floor", lambda wd, dist: -math.inf)
    for seed, (record, rejected) in zip(seeds, checked):
        exact_record, exact_rejected = outputs(seed)
        assert record == exact_record, seed
        assert rejected >= exact_rejected, seed


class TestSerialization:
    def test_roundtrip_preserves_structure(self):
        graph = build_tree(scenario_from_dict(empty_doc(samples=300, seed=2)))
        doc = graph.to_dict()
        rebuilt = MotionGraph.from_dict(doc)
        assert rebuilt.to_dict() == doc
        assert rebuilt.goal_index == doc["goal_index"]

    def test_json_roundtrip(self):
        graph = build_tree(scenario_from_dict(empty_doc(samples=150, seed=4)))
        doc = json.loads(json.dumps(graph.to_dict()))
        rebuilt = MotionGraph.from_dict(doc)
        assert rebuilt.to_dict() == graph.to_dict()

    def test_disconnected_dump_rejected(self):
        with pytest.raises(PlanningError):
            MotionGraph.from_dict(
                {
                    "vertices": [
                        {"x": 0, "y": 0, "theta": 0, "cost": 0},
                        {"x": 1, "y": 0, "theta": 0, "cost": 1},
                    ],
                    "edges": [],
                    "best_path": [],
                    "goal_index": None,
                }
            )

    @pytest.mark.parametrize("edges", [
        [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 2.0)],  # a cycle with telescoping costs
        [(0, 1, 1.0), (1, 2, 1.0), (0, 1, 1.0)],  # a duplicate edge
        [(0, 1, 1.0), (1, 2, 1.0), (2, 2, 0.0)],  # a self-loop
    ])
    def test_edge_set_that_is_not_a_tree_rejected(self, edges):
        doc = {
            "vertices": [{"x": i, "y": 0, "theta": 0, "cost": i} for i in range(3)],
            "edges": [{"a": a, "b": b, "cost": c} for a, b, c in edges],
            "goal_index": None,
        }
        with pytest.raises(PlanningError, match="not one tree"):
            MotionGraph.from_dict(doc)
