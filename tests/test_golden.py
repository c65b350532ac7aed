"""Golden outputs: byte-exact artifacts of fixed runs.

The three_obstacles, sweep and simulate digests were recorded from the
implementation before the forward and backward controllers were folded into
one signed kernel; any change to the control law, the integration step, the
domain tests or the motion bounds that is not bit-exact changes at least one
of them. The objective, informed and distance-table digests were recorded
before the weighted distance scored both of its terms in one pass; they pin
every objective's edge costs and nearest queries. The empty_10x10 digest was
recorded before the rewire loop gained its array pre-filter and the tree
queries their cell index; its radius-6 neighbourhoods make many rewires.
The polygon digest was recorded before the safety test moved onto plain
floats; no shipped scenario has a polygon obstacle, so it alone pins the
polygon branch of the free-space check end to end. The informed
three_obstacles digests and the informed counter digest were recorded before
build_tree rejected samples outside the informed set ahead of its
neighbourhood query; they pin which samples each informed mode rejects.
The planner grid digests were recorded before the JSON number check, the
cost-to-goal walk and the goal-liveness rule each got one home; they pin
the tree, its counters and its per-iteration record for every objective and
informed mode on every shipped scenario.
"""

import hashlib
import json
import math
from pathlib import Path

from dataclasses import replace

import numpy as np
import pytest

from uniplan.cli import main
from uniplan.config import ControlParams
from uniplan.control import Pose, simulate
from uniplan.planner import build_tree
from uniplan.world import load_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

PLAN_SHA256 = {
    "graph.json": "3ed738127c3b48eb9725d3169ad3078f45d1aadaa7e351074c607caa5fc99568",
    "plan.svg": "ff41ae8b0b7ac823b251b513fcf2392412c48c1055784bd305a5d79d00db558c",
}
TRAJECTORY_SHA256 = "7251f8bbf7861f7cdebb57ddcfa45800f5ccf1506ebdaf2866d63c230f60e332"
SWEEP_SHA256 = "ee079db3805a5efc2ff24ac6aca5cf9e3a0dc68a0b7a76504820dd2671a4411f"
# graph.json of 400-sample seed-0 plans, by scenario and extra flags
OBJECTIVE_PLAN_SHA256 = {
    ("three_obstacles", "--objective", "euclidean"):
        "a08139bc8bbdaf42692f825e5971000597b0b1d1511864a74c1432369b55f6b4",
    ("three_obstacles", "--objective", "euccos"):
        "4c8ed6b2e3ca37267f82983fa1c05c7f34775156b728e24852bbd7b3183729d2",
    ("informed_corridor", "--informed", "euclidean"):
        "7502d550a7403109edc045b9410da49be8119daa8978be3037cb34f3acf2ed03",
}
# graph.json of 500-sample seed-0 informed plans on three_obstacles, by flags
INFORMED_PLAN_SHA256 = {
    ("--informed", "euclidean"):
        "77f34da994acc8d5c9d17612798a2b7e7e9a35e9dff6546d36fd418750cea326",
    ("--informed", "zero"):
        "425142a55eef1e1099b0db8b4a2fbefab2c43ee6cff7f2d58a9c8bd3afb467fb",
    ("--objective", "euccos", "--informed", "euclidean"):
        "39fa265fcaf993d7efdcb8e6893ff8694af4a53c205dc4f53c5a553bc8dce38b",
}
# repr of (rejected, iteration_costs, iteration_vertices) of seed-0 informed
# euclidean runs, by scenario and samples: the first of the plans above, and a
# corridor run where most samples are rejected and many are unsafe to their
# nearest vertex, which only the informed test may count
INFORMED_COUNTERS_SHA256 = {
    ("three_obstacles", 500):
        "e47a7fd53c00535283912f2afa4055e3088991f69bcca33a0eaa5f1444e8a1fb",
    ("informed_corridor", 1000):
        "4df3785f06ff5831664d2d48e707d9730328e4e3b60e477f9386623b695fb4c7",
}
DENSE_REWIRE_SHA256 = "4067efc713442f23143e99f0d74b97bca759e4f7cb9c19748afba72821847928"
# two polygons and a ball between the start and the goal
POLYGON_SCENARIO = {
    "workspace": {"min": [0, 0], "max": [10, 10]},
    "obstacles": [
        {"type": "polygon", "vertices": [[3, 2], [5, 2], [5, 4.6], [3, 4.6]]},
        {"type": "polygon", "vertices": [[6, 5.4], [8.2, 5.6], [7, 8.2]]},
        {"type": "ball", "center": [4.2, 7.4], "radius": 1.1},
    ],
    "robot_radius": 0.45,
    "start": {"x": 1, "y": 5, "theta": 0},
    "goal": {"x": 9, "y": 5, "theta": 0},
    "planner": {"goal_bias": 0.15, "neighbor_radius": 1.5, "neighbor_angle": 0.5,
                "step_radius": 1.0, "step_angle": 0.5},
}
POLYGON_PLAN_SHA256 = "5b783ae9180cb3b8edb1f906cbf059f9b00975580bc96228d6cd62c682fc1f04"
DISTANCES_SHA256 = "d01b16a4078ad33e447d1c72291eeb5aeadbceab9dd9dd72f54d65efb78cb176"
# repr of (to_dict(), rejected, iteration_costs, iteration_vertices) of
# 400-sample seed-0 build_tree runs, by scenario, objective and informed mode
PLANNER_GRID_SHA256 = {
    ("empty_10x10", "euclidean", "off"): "003947b7f50958f948b5796da5f6ad7419694ecf54f896dfb8c6dd0d0d33ddaf",
    ("empty_10x10", "euclidean", "zero"): "a24975f310ab83532ca9e60914661c04239f85c6cae6fe4a5f73366b76afc63b",
    ("empty_10x10", "euclidean", "euclidean"): "2544a014948067ed4bddb6b2efe2fece41551af2c4e54e8e16f8e2dcde864ec3",
    ("empty_10x10", "euccos", "off"): "4ea59c8248f15f7be3ba8464a64e90ea7a8871da188f2b52692e28cb74b065f3",
    ("empty_10x10", "euccos", "zero"): "2ed5d2504d58d55d7a456157eec18192fefb9c253f3a48687f202c5e0686c874",
    ("empty_10x10", "euccos", "euclidean"): "11fbb25bd8bec0838513df27b0d79ca3c15ea439db294a3d3aae7cb87c55a4fb",
    ("empty_10x10", "dualhead", "off"): "60df50ef525daed6172a2ccb0bfa3f2a7d6f25cf45cc07c7a200fdbcb4121440",
    ("empty_10x10", "dualhead", "zero"): "3690ad38b09231e22a657d4527ee5ba8cc24f932bac110184f347ea56a07c03b",
    ("empty_10x10", "dualhead", "euclidean"): "d8ffde395b8cc6ffa7fad700060bd698c9e3bac015d00896810f2bcc8f38b2d7",
    ("informed_corridor", "euclidean", "off"): "bab7140cbdd3f77e502ea7b378fe8a7e651e5569a0fd1a3f3352da2b1939b172",
    ("informed_corridor", "euclidean", "zero"): "ca2b802d88b49eb14ebd6f7c7237450a43946cc0ed0ba1a280ce7d7009fed3d3",
    ("informed_corridor", "euclidean", "euclidean"): "ca2b802d88b49eb14ebd6f7c7237450a43946cc0ed0ba1a280ce7d7009fed3d3",
    ("informed_corridor", "euccos", "off"): "8f66bc6ac5a8a347adf483062a1321f4f2fba7334311acdd3efdb6b6a4bfd16f",
    ("informed_corridor", "euccos", "zero"): "ca2b802d88b49eb14ebd6f7c7237450a43946cc0ed0ba1a280ce7d7009fed3d3",
    ("informed_corridor", "euccos", "euclidean"): "ca2b802d88b49eb14ebd6f7c7237450a43946cc0ed0ba1a280ce7d7009fed3d3",
    ("informed_corridor", "dualhead", "off"): "9609b4d627dd8363e086d9a690ed53ccd8ac78053fc624654f5f76a83c07e493",
    ("informed_corridor", "dualhead", "zero"): "0460b3aba1c185abf27f6ddf94996c43682ce72861d16d723c6fefffac487e8b",
    ("informed_corridor", "dualhead", "euclidean"): "e7afa808b9eb72ee4e955304983ae11158f7deefedefced31fae1899c2aa61d3",
    ("three_obstacles", "euclidean", "off"): "75e734707c15decc9f818c3a25dd340214a615d1065b7c1b772266d2041981f5",
    ("three_obstacles", "euclidean", "zero"): "ae2436c7d27a436884a08f3456ad581b4a7ad83582634af07677436058068f43",
    ("three_obstacles", "euclidean", "euclidean"): "892d6d12dffe2a5999cc60b661bf90a44fbd3fa9c3ae0767ef21a697dd533d34",
    ("three_obstacles", "euccos", "off"): "c539356c570f4941895db897cf099c2a141fbc9c23df67a6bdefad73f5ceb632",
    ("three_obstacles", "euccos", "zero"): "ec61dc51cee85b3c23d120acee8abd23275c6ca8485be647f88105a222bb6d90",
    ("three_obstacles", "euccos", "euclidean"): "b6aa47dd63e243b1d7ea151dd416dda69e10f401e75c40137a50b215bbe15f02",
    ("three_obstacles", "dualhead", "off"): "52302ede2d6dca8ecc3c31bf09eb9aa188e82181b7f5207a5fee1edb7effe0e9",
    ("three_obstacles", "dualhead", "zero"): "a7e21e329b0e3e514b8e4409130ed63828f5dcaa267c92458c66f77c26083e0d",
    ("three_obstacles", "dualhead", "euclidean"): "3d56e325399f4ef0f439eff797ccbee0fbbc5e0485e56c3e288b0056410e6e05",
    ("empty_10x10", "uniform", "off"): "f20d69ef41448b6894c733edecffe7b0b092c4b19ab7295fab3fdf4233f6728c",
    ("informed_corridor", "uniform", "off"): "9bbd4de54ff33fef3b57392ea5979407c755e14e0a44b3a36628ec9351053156",
    ("three_obstacles", "uniform", "off"): "35d91aa7e6038e766355adedb3a5877971c72ea854c9ddbae34a762192d34c59",
}
SIMULATE_SHA256 = {
    "forward": "65c1df1864a087cc1ab421c2e2c6e4217349d9552c265cd320e6dfba560b2ae8",
    "backward": "e5d2ece260b3e6caf521a4fe95ff0fb9e961ebed6b9d9b25a81e09be5b02ad53",
}


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_plan_and_execute_three_obstacles(tmp_path):
    scenario = str(SCENARIOS / "three_obstacles.json")
    out = tmp_path / "out"
    assert main(["plan", scenario, "--samples", "400", "--seed", "0",
                 "--out", str(out)]) == 0
    for name, digest in PLAN_SHA256.items():
        assert sha256(out / name) == digest, name
    assert main(["execute", scenario, str(out / "graph.json"), "--out", str(out)]) == 0
    assert sha256(out / "trajectory.csv") == TRAJECTORY_SHA256


@pytest.mark.parametrize("run", sorted(OBJECTIVE_PLAN_SHA256))
def test_plan_objectives(run, tmp_path):
    scenario, *flags = run
    assert main(["plan", str(SCENARIOS / f"{scenario}.json"), "--samples", "400",
                 "--seed", "0", *flags, "--out", str(tmp_path)]) == 0
    assert sha256(tmp_path / "graph.json") == OBJECTIVE_PLAN_SHA256[run]


@pytest.mark.parametrize("flags", sorted(INFORMED_PLAN_SHA256))
def test_plan_informed(flags, tmp_path):
    assert main(["plan", str(SCENARIOS / "three_obstacles.json"), "--samples", "500",
                 "--seed", "0", *flags, "--out", str(tmp_path)]) == 0
    assert sha256(tmp_path / "graph.json") == INFORMED_PLAN_SHA256[flags]


@pytest.mark.parametrize("run", sorted(INFORMED_COUNTERS_SHA256))
def test_informed_counters(run):
    scenario, samples = run
    problem = load_scenario(SCENARIOS / f"{scenario}.json")
    graph = build_tree(replace(problem, planner=replace(
        problem.planner, samples=samples, seed=0, informed="euclidean")))
    counters = (graph.rejected, graph.iteration_costs, graph.iteration_vertices)
    assert hashlib.sha256(repr(counters).encode()).hexdigest() == INFORMED_COUNTERS_SHA256[run]


@pytest.mark.parametrize("run", sorted(PLANNER_GRID_SHA256))
def test_planner_grid(run):
    scenario, objective, informed = run
    problem = load_scenario(SCENARIOS / f"{scenario}.json")
    graph = build_tree(replace(problem, planner=replace(
        problem.planner, samples=400, seed=0, objective=objective, informed=informed)))
    record = (graph.to_dict(), graph.rejected, graph.iteration_costs,
              graph.iteration_vertices)
    assert hashlib.sha256(repr(record).encode()).hexdigest() == PLANNER_GRID_SHA256[run]


def test_plan_dense_rewiring(tmp_path):
    assert main(["plan", str(SCENARIOS / "empty_10x10.json"), "--samples", "400",
                 "--seed", "0", "--out", str(tmp_path)]) == 0
    assert sha256(tmp_path / "graph.json") == DENSE_REWIRE_SHA256


def test_plan_polygon_obstacles(tmp_path):
    scenario = tmp_path / "polygons.json"
    scenario.write_text(json.dumps(POLYGON_SCENARIO))
    assert main(["plan", str(scenario), "--samples", "600", "--seed", "0",
                 "--out", str(tmp_path)]) == 0
    assert sha256(tmp_path / "graph.json") == POLYGON_PLAN_SHA256


def test_distances_table(capsys):
    assert main(["distances", "0", "0", "0", "1", "0", "1.5708"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DISTANCES_SHA256


def test_sweep_turning_grid_6(tmp_path):
    assert main(["sweep-turning", "--grid", "6", "--out", str(tmp_path)]) == 0
    assert sha256(tmp_path / "sweep.csv") == SWEEP_SHA256


@pytest.mark.parametrize("direction, start, goal", [
    ("forward", Pose(0.0, 0.0, 0.4), Pose(1.5, 0.7, -0.3)),
    ("backward", Pose(0.0, 0.0, math.pi - 0.4), Pose(1.5, 0.7, math.pi + 0.3)),
])
def test_simulate_trajectory(direction, start, goal):
    t = simulate(start, goal, ControlParams(), direction=direction)
    data = np.stack([t.t, t.x, t.y, t.theta, t.v, t.omega])
    h = hashlib.sha256(data.tobytes())
    h.update(repr((t.path_length, t.total_turning, t.duration)).encode())
    assert h.hexdigest() == SIMULATE_SHA256[direction]
