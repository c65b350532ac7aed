import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

import uniplan.world as world_module
from uniplan.control import Pose
from uniplan.geom import Ball, ConvexPolygon, Vec2, convex_hull, separation
from uniplan.world import (
    ScenarioError,
    UniformDraws,
    World,
    json_numbers,
    load_scenario,
    pose_is_free,
    region_is_free,
    sample_free_pose,
    scenario_from_dict,
    scenario_to_dict,
    with_planner,
)

EMPTY = World(0, 0, 10, 10, (), robot_radius=0.5)


def minimal_doc(**extra):
    doc = {
        "workspace": {"min": [0, 0], "max": [10, 10]},
        "start": {"x": 1, "y": 5, "theta": 0},
        "goal": {"x": 9, "y": 5, "theta": 0},
    }
    doc.update(extra)
    return doc


def write(tmp_path, doc):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return path


class TestPoseIsFree:
    def test_empty_world_interior(self):
        assert pose_is_free(EMPTY, 5, 5)

    def test_too_close_to_obstacle(self):
        world = World(0, 0, 10, 10, (Ball(Vec2(5, 5), 1.0),), robot_radius=0.5)
        # 0.9 * radius clearance from the obstacle boundary
        assert not pose_is_free(world, 5, 5 - 1.0 - 0.45)

    def test_exact_clearance_is_not_free(self):
        world = World(0, 0, 10, 10, (Ball(Vec2(5, 5), 1.0),), robot_radius=0.5)
        assert not pose_is_free(world, 5, 3.5)
        assert pose_is_free(world, 5, 3.5 - 1e-9)

    def test_workspace_margin(self):
        assert not pose_is_free(EMPTY, 0.25, 5)
        assert pose_is_free(EMPTY, 0.5, 5)

    def test_agrees_with_separation_threshold(self, rng):
        obstacles = (
            Ball(Vec2(3, 3), 1.0),
            convex_hull([Vec2(6, 6), Vec2(8, 6), Vec2(8, 8)]),
        )
        world = World(0, 0, 10, 10, obstacles, robot_radius=0.5)
        for _ in range(500):
            p = Vec2(rng.uniform(0, 10), rng.uniform(0, 10))
            by_parts = (
                0.5 <= p.x <= 9.5 and 0.5 <= p.y <= 9.5
                and all(separation(Ball(p, 0.0), ob) > 0.5 for ob in obstacles)
            )
            assert pose_is_free(world, p.x, p.y) == by_parts


class TestRegionIsFree:
    def test_empty_world(self):
        hull = convex_hull([Vec2(2, 2), Vec2(4, 2), Vec2(3, 4)])
        assert region_is_free(EMPTY, hull.points())

    def test_hull_overlapping_obstacle(self):
        world = World(0, 0, 10, 10, (Ball(Vec2(3, 3), 0.5),), robot_radius=0.5)
        hull = convex_hull([Vec2(2, 2), Vec2(4, 2), Vec2(3, 4)])
        assert not region_is_free(world, hull.points())

    def test_hull_within_half_radius(self):
        world = World(0, 0, 10, 10, (Ball(Vec2(5, 5), 1.0),), robot_radius=0.5)
        # hull edge passes 0.25 from the inflated obstacle
        hull = convex_hull([Vec2(2, 6.25), Vec2(8, 6.25), Vec2(5, 9)])
        assert not region_is_free(world, hull.points())
        clear = convex_hull([Vec2(2, 6.51), Vec2(8, 6.51), Vec2(5, 9)])
        assert region_is_free(world, clear.points())

    def test_closed_workspace_strict_obstacles(self):
        # a dilated hull may touch the workspace boundary but no obstacle
        seg = convex_hull([Vec2(0.0, 0.0), Vec2(2.0, 0.0)])
        walls = World(-2.5, -2.5, 2.5, 2.5, (), robot_radius=0.5)
        assert region_is_free(walls, seg.points())
        for ob in (Ball(Vec2(2.75, 0.0), 0.25),
                   convex_hull([Vec2(2.5, -1), Vec2(3, -1), Vec2(3, 1), Vec2(2.5, 1)])):
            world = World(-5, -5, 5, 5, (ob,), robot_radius=0.5)
            assert not region_is_free(world, seg.points())
            assert region_is_free(world, convex_hull([Vec2(0.0, 0.0), Vec2(1.75, 0.0)]).points())

    def test_hull_outside_workspace_margin(self):
        hull = convex_hull([Vec2(0.2, 5), Vec2(1, 4), Vec2(1, 6)])
        assert not region_is_free(EMPTY, hull.points())

    def test_implies_pose_free_inside(self, rng):
        world = World(0, 0, 10, 10, (Ball(Vec2(6, 6), 1.2),), robot_radius=0.5)
        hull = convex_hull([Vec2(1, 1), Vec2(4, 1), Vec2(4, 3.5), Vec2(1, 3.5)])
        assert region_is_free(world, hull.points())
        for _ in range(100):
            u, v = rng.uniform(0, 1, 2)
            p = Vec2(1 + 3 * u, 1 + 2.5 * v)
            assert pose_is_free(world, p.x, p.y)


class TestSampling:
    def test_goal_bias_one(self, rng):
        goal = Pose(2, 2, 0.5)
        for _ in range(20):
            assert sample_free_pose(EMPTY, rng, goal, 1.0) == (goal.x, goal.y, goal.theta)

    def test_determinism(self):
        goal = Pose(2, 2, 0.5)
        a = [sample_free_pose(EMPTY, np.random.default_rng(7), goal, 0.1)
             for _ in [0]]
        b = [sample_free_pose(EMPTY, np.random.default_rng(7), goal, 0.1)
             for _ in [0]]
        assert a == b
        r1, r2 = np.random.default_rng(7), np.random.default_rng(7)
        seq1 = [sample_free_pose(EMPTY, r1, goal, 0.05) for _ in range(50)]
        seq2 = [sample_free_pose(EMPTY, r2, goal, 0.05) for _ in range(50)]
        assert seq1 == seq2

    def test_uniformity_chi_squared(self, rng):
        # positions uniform over the free box (workspace inset by the robot
        # radius): chi-squared on a 4x4 grid over that box
        samples = [sample_free_pose(EMPTY, rng, Pose(5, 5, 0), 0.0)
                   for _ in range(10_000)]
        lo, hi = 0.5, 9.5
        width = (hi - lo) / 4
        counts = np.zeros((4, 4))
        for x, y, _ in samples:
            assert lo <= x <= hi and lo <= y <= hi
            counts[min(3, int((x - lo) / width)),
                   min(3, int((y - lo) / width))] += 1
        chi2 = ((counts - 625.0) ** 2 / 625.0).sum()
        p_value = stats.chi2.sf(chi2, df=15)
        assert p_value > 0.01
        # headings cover the circle uniformly as well
        th_counts = np.zeros(8)
        for _, _, theta in samples:
            th_counts[min(7, int((theta + math.pi) / (math.pi / 4)))] += 1
        chi2_th = ((th_counts - 1250.0) ** 2 / 1250.0).sum()
        assert stats.chi2.sf(chi2_th, df=7) > 0.01

    def test_rejection_cap(self, monkeypatch):
        # world with no free space: the ball covers everything reachable;
        # a smaller cap reaches the same error without 10**6 draws
        monkeypatch.setattr(world_module, "_REJECTION_CAP", 1000)
        blocked = World(0, 0, 2, 2, (Ball(Vec2(1, 1), 5.0),), robot_radius=0.5)
        with pytest.raises(ScenarioError, match="free space too small"):
            sample_free_pose(blocked, np.random.default_rng(0), Pose(1, 1, 0), 0.0)


class TestUniformDraws:
    @given(
        seed=st.integers(0, 2**63),
        block=st.integers(1, 8),
        calls=st.lists(st.one_of(
            st.none(),
            st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=2).map(sorted),
        ), max_size=40),
    )
    def test_equals_generator_uniform(self, seed, block, calls):
        # draw for draw, bit for bit, across block boundaries, with the
        # no-argument form interleaved with random bounds
        reference = np.random.default_rng(seed)
        buffered = UniformDraws(np.random.default_rng(seed), block)
        for bounds in calls:
            args = () if bounds is None else bounds
            assert buffered.uniform(*args).hex() == reference.uniform(*args).hex()

    def test_samplers_draw_the_same_poses(self):
        goal = Pose(2, 2, 0.5)
        world = World(0, 0, 10, 10, (Ball(Vec2(5, 5), 3.0),), robot_radius=0.5)
        reference = np.random.default_rng(3)
        buffered = UniformDraws(np.random.default_rng(3), 5)
        for _ in range(300):
            assert (sample_free_pose(world, buffered, goal, 0.2)
                    == sample_free_pose(world, reference, goal, 0.2))


class TestScenarioLoading:
    def test_minimal_defaults(self, tmp_path):
        problem = load_scenario(write(tmp_path, minimal_doc()))
        assert problem.world.robot_radius == 0.5
        assert problem.planner.samples == 3000
        assert problem.planner.objective == "dualhead"
        assert problem.control.headway == 0.25
        assert problem.start == Pose(1, 5, 0)

    def test_constraint_violation_named(self, tmp_path):
        for control, rule in [
            ({"headway": 0.4, "tailway": 0.4}, r"2\*headway \+ tailway < 1 \(got 1\.2\)"),
            ({"back_tailway": 0.4, "back_headway": 0.4},
             r"2\*back_tailway \+ back_headway < 1 \(got 1\.2\)"),
        ]:
            with pytest.raises(ScenarioError, match=rule):
                load_scenario(write(tmp_path, minimal_doc(control=control)))

    def test_kappa_range(self, tmp_path):
        doc = minimal_doc(planner={"kappa": 0.5})
        with pytest.raises(ScenarioError, match="kappa"):
            load_scenario(write(tmp_path, doc))

    def test_goal_bias_range(self, tmp_path):
        doc = minimal_doc(planner={"goal_bias": 1.5})
        with pytest.raises(ScenarioError, match="goal_bias"):
            load_scenario(write(tmp_path, doc))

    def test_start_in_collision(self, tmp_path):
        doc = minimal_doc(
            obstacles=[{"type": "ball", "center": [1, 5], "radius": 1.0}]
        )
        with pytest.raises(ScenarioError, match="start pose not free"):
            load_scenario(write(tmp_path, doc))

    def test_unknown_keys_rejected(self, tmp_path):
        doc = minimal_doc(extra_key=1)
        with pytest.raises(ScenarioError, match="unknown keys"):
            load_scenario(write(tmp_path, doc))
        doc = minimal_doc(planner={"n_samples": 10})
        with pytest.raises(ScenarioError, match="unknown keys"):
            load_scenario(write(tmp_path, doc))

    def test_missing_keys_rejected(self, tmp_path):
        doc = minimal_doc()
        del doc["goal"]
        with pytest.raises(ScenarioError, match="missing keys"):
            load_scenario(write(tmp_path, doc))

    def test_parse_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioError, match="not valid JSON"):
            load_scenario(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read"):
            load_scenario(tmp_path / "nope.json")

    def test_polygon_obstacles(self, tmp_path):
        doc = minimal_doc(obstacles=[
            {"type": "polygon", "vertices": [[4, 4], [6, 4], [6, 6], [4, 6]]},
        ])
        problem = load_scenario(write(tmp_path, doc))
        assert isinstance(problem.world.obstacles[0], ConvexPolygon)
        assert len(problem.world.obstacles[0].vertices) == 4

    def test_nonconvex_polygon_rejected(self, tmp_path):
        doc = minimal_doc(obstacles=[
            {"type": "polygon",
             "vertices": [[4, 4], [6, 4], [5, 4.5], [5, 6]]},
        ])
        with pytest.raises(ScenarioError, match="not convex"):
            load_scenario(write(tmp_path, doc))

    def test_roundtrip(self, tmp_path):
        doc = minimal_doc(obstacles=[
            {"type": "ball", "center": [5, 5], "radius": 1.0},
        ])
        problem = load_scenario(write(tmp_path, doc))
        again = scenario_from_dict(scenario_to_dict(problem))
        assert again == problem


# (value, a finite number, an integer) for each kind of value json.loads yields
JSON_VALUES = [
    (0, True, True), (-7, True, True), (10**400, False, True),
    (2.5, True, False), (1.0, True, False), (float("nan"), False, False),
    (float("inf"), False, False), (-float("inf"), False, False),
    (True, False, False), (False, False, False), (None, False, False),
    ("1", False, False), ([1], False, False), ({}, False, False),
]


class TestJsonNumbers:
    @pytest.mark.parametrize("value, number, integer", JSON_VALUES)
    def test_one_value(self, value, number, integer):
        assert json_numbers([value]) is number
        assert json_numbers([value], integer=True) is integer

    @pytest.mark.parametrize("value, number, integer", JSON_VALUES)
    def test_one_value_decides_the_list(self, value, number, integer):
        assert json_numbers([1, 2.5, value, -3]) is number
        assert json_numbers([1, value, -3], integer=True) is integer

    def test_empty_list_passes(self):
        assert json_numbers([]) and json_numbers([], integer=True)


class TestWithPlanner:
    def test_none_leaves_field(self):
        problem = scenario_from_dict(minimal_doc())
        assert with_planner(problem, seed=None, samples=None) is problem
        changed = with_planner(problem, seed=3, samples=None)
        assert changed == replace(problem, planner=replace(problem.planner, seed=3))

    def test_revalidates(self):
        with pytest.raises(ValueError, match="samples"):
            with_planner(scenario_from_dict(minimal_doc()), samples=-1)

    def test_experiments_reexport(self):
        from uniplan import experiments
        assert experiments.with_planner is with_planner
