import functools
import math
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import assume, given, strategies as st

import uniplan.control
import uniplan.executor
import uniplan.prediction
from uniplan.config import ControlParams
from uniplan.control import DomainError, Pose, reached
from uniplan.executor import (DisconnectedError, ExecutionHorizonError, _Policy,
                              execute, write_executed_csv)
from uniplan.geom import Ball, Vec2, separation
from uniplan.metrics import objective_distance
from uniplan.planner import MotionGraph, build_tree
from uniplan.prediction import issafe
from uniplan.world import World, load_scenario, scenario_from_dict

import reference_rollout as reference

PARAMS = ControlParams()
# changes every coefficient, the gain, the step and both tolerances
OTHER = ControlParams(gain=2.5, headway=0.2, tailway=0.3, back_tailway=0.2,
                      back_headway=0.3, step=0.02, goal_tol=1e-2, angle_tol=5e-2,
                      horizon=10.0)
WD = objective_distance("dualhead", 1.0, 10.0, 1.0 / 3.0)
EMPTY = World(-20, -20, 20, 20, (), robot_radius=0.5)
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def two_vertex_graph(start=Pose(0, 0, 0), goal=Pose(2, 0, 0)):
    graph = MotionGraph(start)
    graph.goal_index = graph.add_vertex(goal, 0, WD.value(start, goal))
    return graph


def ends_at(traj, goal, params):
    """The last row lies within the goal tolerances."""
    return reached(traj.x[-1], traj.y[-1], traj.theta[-1], goal, params)


def chain_graph():
    poses = [Pose(0, 0, 0), Pose(2, 0.5, 0.2), Pose(4, 0.5, -0.2), Pose(6, 0, 0)]
    graph = MotionGraph(poses[0])
    prev = 0
    for p, q in zip(poses, poses[1:]):
        prev = graph.add_vertex(q, prev, WD.value(p, q))
    graph.goal_index = prev
    return graph, poses


class TestLocalGoal:
    def test_next_vertex_on_path(self):
        graph, poses = chain_graph()
        traj = execute(graph, poses[0], EMPTY, WD, PARAMS, record_stride=10)
        # brute-force argmin over safely reachable vertices
        ctg = graph.costs_to(graph.goal_index)
        best = min(
            (
                (WD.value(poses[0], graph.poses[i]) + ctg[i], i)
                for i in range(len(graph))
                if graph.poses[i].distance_to(poses[0]) > PARAMS.goal_tol
                and issafe(poses[0], graph.poses[i], EMPTY, PARAMS)
            ),
        )
        assert traj.segments[0][0] == best[1]

    def test_at_goal_returns_goal(self):
        graph, poses = chain_graph()
        traj = execute(graph, poses[-1], EMPTY, WD, PARAMS)
        assert len(traj.t) == 0 and traj.segments == []

    def test_disconnected_raises(self):
        # a pose boxed in by an obstacle ring has no safe connection
        graph = two_vertex_graph()
        world = World(
            -20, -20, 20, 20,
            (Ball(Vec2(10.6, 10), 0.55), Ball(Vec2(9.4, 10), 0.55),
             Ball(Vec2(10, 10.6), 0.55), Ball(Vec2(10, 9.4), 0.55)),
            robot_radius=0.5,
        )
        with pytest.raises(DisconnectedError):
            execute(graph, Pose(10, 10, 0), world, WD, PARAMS)


class TestStartSelection:
    @pytest.mark.parametrize("planned", [False, True])
    def test_selects_once_from_the_start(self, planned, monkeypatch):
        # the selection made before the loop is the one for step 0; a
        # second one from the same pose could find nothing cheaper
        if planned:
            policy = planned_policy("three_obstacles", samples=400, seed=0)
            graph, world, wd, params = policy.graph, policy.world, policy.wd, policy.params
        else:
            graph, world, wd, params = chain_graph()[0], EMPTY, WD, PARAMS
        start = graph.poses[0]
        poses = []
        select = _Policy.select

        def recording(self, pose, *args, **kwargs):
            poses.append(pose)
            return select(self, pose, *args, **kwargs)

        monkeypatch.setattr(_Policy, "select", recording)
        traj = execute(graph, start, world, wd, params, record_stride=10)
        assert ends_at(traj, graph.poses[graph.goal_index], params)
        assert poses.count(start) == 1
        assert len(poses) > 1  # periodic re-selection still runs


@functools.cache
def planned_policy(name, **planner):
    problem = load_scenario(SCENARIOS / f"{name}.json")
    problem = replace(problem, planner=replace(problem.planner, **planner))
    graph = build_tree(problem)
    assert graph.goal_index is not None
    pp = problem.planner
    wd = objective_distance(pp.objective, pp.alpha, pp.beta, pp.kappa)
    return _Policy(graph, problem.world, wd, problem.control)


def brute_select(policy, pose, best_known, max_ctg):
    """Lowest index of least total over the safe admissible vertices."""
    graph, ctg = policy.graph, policy.cost_to_goal
    best = (None, best_known, None)
    for j in range(len(graph)):
        q = graph.poses[j]
        if not graph.is_alive(j) or pose.distance_to(q) <= policy.params.goal_tol:
            continue
        if not ctg[j] < max_ctg:
            continue
        total = policy.wd.value(pose, q) + float(ctg[j])
        if total > best_known or (best[0] is not None and not total < best[1]):
            continue
        direction = issafe(pose, q, policy.world, policy.params)
        if direction is not None:
            best = (j, total, direction)
    return best


PLANNED = [
    ("three_obstacles", (("samples", 400), ("seed", 0))),
    ("three_obstacles", (("samples", 300), ("seed", 2), ("objective", "euccos"))),
    # informed pruning leaves dead vertices
    ("empty_10x10", (("samples", 300), ("seed", 1), ("informed", "euclidean"))),
]


class TestSelect:
    @given(st.sampled_from(PLANNED), st.data())
    def test_matches_brute_force(self, planned, data):
        name, planner = planned
        policy = planned_policy(name, **dict(planner))
        graph = policy.graph
        vertex = st.integers(0, len(graph) - 1)
        current = data.draw(vertex)  # the local goal execute would hold
        if data.draw(st.booleans()):
            x, y = data.draw(st.floats(0, 10)), data.draw(st.floats(0, 10))
            theta = data.draw(st.floats(-math.pi, math.pi))
        else:  # a few goal tolerances behind a vertex, maybe the current one,
            # and about aligned with it, so that it is safe to reach
            q = graph.poses[data.draw(st.one_of(st.just(current), vertex))]
            back = data.draw(st.floats(0, 3 * policy.params.goal_tol))
            x, y = q.x - back * math.cos(q.theta), q.y - back * math.sin(q.theta)
            theta = q.theta + data.draw(st.floats(-0.1, 0.1))
        pose = Pose(x, y, theta)
        # the bounds execute passes, and arbitrary ones
        best_known = data.draw(st.one_of(
            st.just(math.inf), st.just(policy.total_cost(pose, current)), st.floats(0, 40)))
        max_ctg = data.draw(st.sampled_from([math.inf, float(policy.cost_to_goal[current])]))
        got = policy.select(pose, best_known, max_ctg)
        assert got == brute_select(policy, pose, best_known, max_ctg)


class TestPolicyControl:
    def test_forward_branch(self):
        graph = two_vertex_graph()
        traj = execute(graph, Pose(0, 0, 0), EMPTY, WD, PARAMS)
        assert traj.v[0] > 0

    def test_backward_branch(self):
        start = Pose(0, 0, math.pi)
        goal = Pose(2, 0, math.pi)
        graph = two_vertex_graph(start, goal)
        traj = execute(graph, start, EMPTY, WD, PARAMS)
        assert traj.v[0] < 0

    def test_zero_at_global_goal(self):
        # inside the goal tolerances the executor issues no control at all
        graph = two_vertex_graph()
        traj = execute(graph, Pose(2 + 0.5 * PARAMS.goal_tol, 0, 0), EMPTY, WD, PARAMS)
        assert len(traj.t) == 0


class TestCertifiedDirection:
    def test_drives_the_certified_direction(self):
        # with these coefficients the start lies in both control domains of
        # the goal; only the backward hull is free of the ball, so driving
        # forward (the first domain that contains the start) runs through it
        params = ControlParams(headway=0.121, tailway=0.458,
                               back_tailway=0.118, back_headway=0.404)
        start = Pose(-1.9215983257935618, 0.1109997328540131, -1.8520788724715556)
        goal = Pose(0.0, 0.0, 1.5158657249813965)
        ball = Ball(Vec2(-0.024881891987856366, -0.11073457933277617), 0.05)
        world = World(-5, -5, 5, 5, (ball,), robot_radius=0.05)
        traj = execute(two_vertex_graph(start, goal), start, world, WD, params)
        assert ends_at(traj, goal, params)
        for x, y in zip(traj.x, traj.y):
            assert separation(Ball(Vec2(float(x), float(y)), 0.0), ball) > world.robot_radius

    def test_anchor_work_only_in_safety_checks(self, monkeypatch):
        # the anchor pair and the domain test (one float kernel) are
        # computed only by the issafe calls that select local goals: none
        # per integration step, and at most one per direction tried
        problem = load_scenario(SCENARIOS / "three_obstacles.json")
        problem = replace(problem, planner=replace(problem.planner, samples=400, seed=0))
        graph = build_tree(problem)
        counts = {"kernel": 0, "kernel_in_step": 0, "issafe": 0, "steps": 0}
        in_step = [False]
        kernel = uniplan.control.domain_anchors
        safe = uniplan.executor.issafe
        segment_control = uniplan.executor._segment_control

        def counted_kernel(*args):
            counts["kernel"] += 1
            counts["kernel_in_step"] += in_step[0]
            return kernel(*args)

        def counted_issafe(*args):
            counts["issafe"] += 1
            return safe(*args)

        def counted_step(*args):
            counts["steps"] += 1
            in_step[0] = True
            try:
                return segment_control(*args)
            finally:
                in_step[0] = False

        for module in (uniplan.control, uniplan.prediction):
            monkeypatch.setattr(module, "domain_anchors", counted_kernel)
        monkeypatch.setattr(uniplan.executor, "issafe", counted_issafe)
        monkeypatch.setattr(uniplan.executor, "_segment_control", counted_step)
        pp = problem.planner
        wd = objective_distance(pp.objective, pp.alpha, pp.beta, pp.kappa)
        traj = execute(graph, problem.start, problem.world, wd, problem.control)
        assert ends_at(traj, problem.goal, problem.control)
        assert counts["steps"] > counts["issafe"] > 0
        assert counts["kernel_in_step"] == 0
        assert 0 < counts["kernel"] <= 2 * counts["issafe"]


COLUMNS = ("t", "x", "y", "theta", "v", "omega")
TOTALS = ("path_length", "total_turning", "duration")
pose_in_box = st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
                        st.floats(-math.pi, math.pi))


class TestExecute:
    @given(start=pose_in_box, goal=pose_in_box, params=st.sampled_from([PARAMS, OTHER]))
    def test_single_edge_matches_reference_rollout(self, start, goal, params):
        # one closed loop: in an obstacle-free world a two-vertex execute
        # drives the first direction whose domain holds the start, as the
        # frozen scalar rollout does, and steps it bit for bit as that does
        start, goal = Pose(*start), Pose(*goal)
        assume(start.distance_to(goal) > params.goal_tol)
        try:
            traj = execute(two_vertex_graph(start, goal), start, EMPTY, WD, params)
        except DisconnectedError:
            traj = None
        except ExecutionHorizonError:
            assume(False)  # the budget defect of ROADMAP item 1, pinned elsewhere
        try:
            ref = reference.simulate(start, goal, params, "auto")
        except DomainError:
            ref = None
        except reference.NotConverged:
            assume(False)
        assert (traj is None) == (ref is None)
        if traj is not None:
            for column in COLUMNS:
                assert getattr(traj, column).tolist() == getattr(ref, column).tolist(), column
            assert [getattr(traj, name) for name in TOTALS] == [
                getattr(ref, name) for name in TOTALS]

    def test_single_edge_matches_simulate(self):
        # one step kernel: execute integrates its only edge row for row as
        # the frozen scalar rollout does; the first three cases turn across
        # the heading wrap at +-pi, the last drives backward
        cases = [
            ((0, 0, 3.0), (-2, 0.3, -3.0)),
            ((0, 0, -3.0), (-2, -0.3, 3.0)),
            ((0, 0, math.pi - 0.2), (-1.5, -0.4, -math.pi + 0.3)),
            ((0, 0, 0), (2, 0, 0)),
            ((0, 0, 0), (-2, 0, 0)),
        ]
        for start, goal in cases:
            start, goal = Pose(*start), Pose(*goal)
            traj = execute(two_vertex_graph(start, goal), start, EMPTY, WD, PARAMS)
            ref = reference.simulate(start, goal, PARAMS)
            assert ends_at(traj, goal, PARAMS)
            for column in COLUMNS:
                assert getattr(traj, column).tolist() == getattr(ref, column).tolist(), (
                    start, goal, column)
            assert [getattr(traj, name) for name in TOTALS] == [
                getattr(ref, name) for name in TOTALS], (start, goal)

    def test_bad_record_stride_rejected(self):
        for stride in (0, -3):
            with pytest.raises(ValueError, match="record_stride"):
                execute(two_vertex_graph(), Pose(0, 0, 0), EMPTY, WD, PARAMS,
                        record_stride=stride)

    def test_start_at_goal_empty(self):
        graph = two_vertex_graph()
        traj = execute(graph, Pose(2, 0, 0), EMPTY, WD, PARAMS)
        assert len(traj.t) == 0

    def test_chain_monotone_cost_to_goal(self):
        graph, poses = chain_graph()
        traj = execute(graph, poses[0], EMPTY, WD, PARAMS, record_stride=10)
        assert ends_at(traj, poses[-1], PARAMS)
        ctg = graph.costs_to(graph.goal_index)
        seg_ctg = [ctg[s[0]] for s in traj.segments]
        assert all(b < a for a, b in zip(seg_ctg, seg_ctg[1:]))
        assert seg_ctg[-1] == 0.0

    def test_segment_annotation_matches_rows(self):
        graph, poses = chain_graph()
        traj = execute(graph, poses[0], EMPTY, WD, PARAMS, record_stride=10)
        seen = list(dict.fromkeys(traj.segment.tolist()))
        assert seen == [s[0] for s in traj.segments if s[1] > 0 or s[2] > 0][: len(seen)]

    def test_obstacle_scenario_executes_safely(self):
        problem = scenario_from_dict(
            {
                "workspace": {"min": [0, 0], "max": [10, 10]},
                "robot_radius": 0.45,
                "obstacles": [{"type": "ball", "center": [5, 5.5], "radius": 1.2}],
                "start": {"x": 1, "y": 5, "theta": 0},
                "goal": {"x": 9, "y": 5, "theta": 0},
                "planner": {"samples": 800, "seed": 1, "goal_bias": 0.15,
                            "step_angle": 0.5},
            }
        )
        graph = build_tree(problem)
        assert graph.goal_index is not None
        traj = execute(graph, problem.start, problem.world, WD,
                       problem.control, record_stride=5)
        assert ends_at(traj, problem.goal, problem.control)
        for k in range(len(traj.t)):
            p = Vec2(float(traj.x[k]), float(traj.y[k]))
            for ob in problem.world.obstacles:
                assert separation(Ball(p, 0.0), ob) > problem.world.robot_radius - 1e-6

    def test_csv_export(self, tmp_path):
        graph, poses = chain_graph()
        traj = execute(graph, poses[0], EMPTY, WD, PARAMS, record_stride=50)
        out = tmp_path / "exec.csv"
        write_executed_csv(traj, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "t,x,y,theta,v,omega,segment"
        assert len(lines) == len(traj.t) + 1
        assert lines[1].count(",") == 6
