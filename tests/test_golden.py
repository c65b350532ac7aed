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
three_obstacles digests were recorded before build_tree rejected samples
outside the informed set ahead of its neighbourhood query; they pin which
samples each informed mode rejects.

The simulate digests, one closed loop per direction, were recorded from the
scalar simulate. They are computed from a two-vertex execute in an
obstacle-free world, whose rows and totals equal simulate's bit for bit, so
they now pin how execute steps one edge.

The informed counter and planner grid entries pin the tree, its
per-iteration record and its rejected count for every objective and
informed mode on every shipped scenario. Each is a pair: the sha256 of the
rejected-free record (to_dict(), iteration_costs, iteration_vertices),
recorded at commit b41c8db, before build_tree ran its informed floor test
ahead of the issafe gate, and rejected as an exact integer. The pair was
split so that reorder could be checked: it changes no tree, but rejected
then also counts floor-failing samples that are unsafe to their nearest
vertex, which the gate at b41c8db turned away uncounted. Every digest is
the one recorded at b41c8db; each rejected that moved is the b41c8db count
plus the samples of that run that the b41c8db gate turned away and that
fail the floor test.

The best_path.csv and execute.svg digests were recorded at commit 1c5ff9d,
before a Pose carried the cosine and sine of its heading; execute.svg draws
each waypoint as a triangle along its heading.

The corridor seed entries pin, in the same pair form, the 3,000-sample
informed_corridor plans of the benchmark's five seed-0 planner seeds
under both informed modes. They were recorded at commit 6ccc021, before
build_tree rejected draws a look-ahead block at a time, when every draw
still ran the scalar floor test.
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
from uniplan.control import Pose
from uniplan.executor import execute
from uniplan.metrics import objective_distance
from uniplan.planner import MotionGraph, build_tree
from uniplan.world import World, load_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

PLAN_SHA256 = {
    "graph.json": "3ed738127c3b48eb9725d3169ad3078f45d1aadaa7e351074c607caa5fc99568",
    "plan.svg": "ff41ae8b0b7ac823b251b513fcf2392412c48c1055784bd305a5d79d00db558c",
}
TRAJECTORY_SHA256 = "7251f8bbf7861f7cdebb57ddcfa45800f5ccf1506ebdaf2866d63c230f60e332"
# the plan's best_path.csv and the execute command's execute.svg
EXECUTE_SHA256 = {
    "best_path.csv": "d01fc067c152f2f3cdf23c80f47659cd3159c83e82fdd65e045283ad64007e42",
    "execute.svg": "e57f84373148efafc0b5d3b209d9dd579b76f0e19cbe758d7892c5a7e016455b",
}
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
# (sha256 of the repr of (to_dict(), iteration_costs, iteration_vertices),
# rejected) of seed-0 informed euclidean runs, by scenario and samples: the
# first of the plans above, and a corridor run where most samples are
# rejected and many are unsafe to their nearest vertex
INFORMED_COUNTERS = {
    ("informed_corridor", 1000):
        ("90747eed9e365fe909b356ea66d17e8a723a2acc08a8bab224cc60ffa1eec5bb", 996),
    ("three_obstacles", 500):
        ("73a73c44c053bcb85f19e64abb3de2fec55c1d3ff26dfd778883dbbc7c89bbe9", 35),
}
# (sha256 of the repr of (to_dict(), iteration_costs, iteration_vertices),
# rejected) of 3000-sample informed_corridor runs, by informed mode and seed
CORRIDOR_SEEDS = {
    ("euclidean", 0):
        ("d09a4ced17dc3cb209ab75edd329026aba255a61c6546507aac8db900ac31e6b", 2996),
    ("euclidean", 1):
        ("7f269be2888f681ad3f13ab69d1fae0373596effcd945cc4458edc0f71691b5a", 2996),
    ("euclidean", 2):
        ("78676c601ed47f316de7724305effa55374cd706924b35b92b95e5ceee2c2132", 2999),
    ("euclidean", 3):
        ("78676c601ed47f316de7724305effa55374cd706924b35b92b95e5ceee2c2132", 2999),
    ("euclidean", 4):
        ("8334a12cb1da7d2029626b14037a458e6e089124e1614e2587792c30734e4f4a", 2985),
    ("zero", 0):
        ("5a6897fb0cd9711c38b80d3745cea7b880abf5dafaa4fd1ba1c94de87511e52d", 2841),
    ("zero", 1):
        ("ee68232edadd9180b369f1d952ed1b9dba57f2fa3489be6e037d9052eb984a56", 2857),
    ("zero", 2):
        ("f9d9be5840a92ab5435248509b6c3b3074617f9974b8ebece5cfc4a315308d88", 2796),
    ("zero", 3):
        ("e59173fc45ba6b920c72dcc2d8a07b0e950d0fc87c76abbfc58f6b563e46525b", 2828),
    ("zero", 4):
        ("0ba152562385011380f07c75bc5e3b5a0cbfba44e341e2315aefc70fd6035cba", 2821),
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
# (sha256 of the repr of (to_dict(), iteration_costs, iteration_vertices),
# rejected) of 400-sample seed-0 build_tree runs, by scenario, objective and
# informed mode
PLANNER_GRID = {
    ("empty_10x10", "euclidean", "off"):
        ("f257f74510e24e26232302ef4511bd8f2081057161ededb528f090d62767f296", 0),
    ("empty_10x10", "euclidean", "zero"):
        ("a48aee5ec5fda5f71b0e9a76bf62f166c203742cd98ca6a553714dfecd7ff0a1", 93),
    ("empty_10x10", "euclidean", "euclidean"):
        ("06464f5421c829718dad57cde5d262a6da0e6ea4951e38f22451c16ed65931cb", 231),
    ("empty_10x10", "euccos", "off"):
        ("b93481f142fe96ee7b78836789c00b6a3c1a6e0fbdf4974fd3149a194a5e2176", 0),
    ("empty_10x10", "euccos", "zero"):
        ("14e75d17fbdac14d2dcdd912da813a676c13ec14f402a6844861c2bbad625f81", 88),
    ("empty_10x10", "euccos", "euclidean"):
        ("c716032fb82f43beecec527caa9cad626977a2fed09eec9461eb16ae64af06fe", 232),
    ("empty_10x10", "dualhead", "off"):
        ("6519a94c610562b075750e2e77f6b2accb679bba199e3c3e7acd8bcbf38d5342", 0),
    ("empty_10x10", "dualhead", "zero"):
        ("3e69596ada89bcb15ff23d0a756751c409874dc2af8e8d852b9d4144a91032e6", 103),
    ("empty_10x10", "dualhead", "euclidean"):
        ("7a9371cf0896602f533ee9a996b2076628bb87ba551ac65165e64e12d6906d76", 284),
    ("informed_corridor", "euclidean", "off"):
        ("ff9495fe45057090204abe99d6aeace5f35bfbb46c763f397ded0256bf6b11ea", 0),
    ("informed_corridor", "euclidean", "zero"):
        ("b6e132f833a7ee96bd0d94b895d9248b76fec6e3b96ec9471931e47f7cba1f4e", 318),
    ("informed_corridor", "euclidean", "euclidean"):
        ("b6e132f833a7ee96bd0d94b895d9248b76fec6e3b96ec9471931e47f7cba1f4e", 396),
    ("informed_corridor", "euccos", "off"):
        ("7751e255984939ee3d57e4aa90ba09e99583da58b96e6b6bc2d08ea2ad56ac3c", 0),
    ("informed_corridor", "euccos", "zero"):
        ("b6e132f833a7ee96bd0d94b895d9248b76fec6e3b96ec9471931e47f7cba1f4e", 318),
    ("informed_corridor", "euccos", "euclidean"):
        ("b6e132f833a7ee96bd0d94b895d9248b76fec6e3b96ec9471931e47f7cba1f4e", 396),
    ("informed_corridor", "dualhead", "off"):
        ("9f7c3096f086905c71fc1f87bb0af15ff90a51b0cfb745707234007de2e15dad", 0),
    ("informed_corridor", "dualhead", "zero"):
        ("ce90d3f2d920b389cb40573dc4efe4fcda3d275fd8f9103709a262b0212230d7", 342),
    ("informed_corridor", "dualhead", "euclidean"):
        ("b6e132f833a7ee96bd0d94b895d9248b76fec6e3b96ec9471931e47f7cba1f4e", 396),
    ("three_obstacles", "euclidean", "off"):
        ("40c0edf438f92d1000677c7b78e249f996cdabe3db094f82f20982da697d28d1", 0),
    ("three_obstacles", "euclidean", "zero"):
        ("05ef6b5afd40378125ce587421d82869002fd0cd2d24ce39f652ae751f91396c", 24),
    ("three_obstacles", "euclidean", "euclidean"):
        ("ea3dd0b12e571ab55189e4dcc26985265b5da5444c88d948debe2a34b0b482b4", 52),
    ("three_obstacles", "euccos", "off"):
        ("6eba9161d4146260c974c7b13d574da32bcc3fbf83cfe2bafa86659f85589128", 0),
    ("three_obstacles", "euccos", "zero"):
        ("16854e8536624f3b6df8e2de647d151d2c2c9ff4ef31b421b629035ef3a5d601", 22),
    ("three_obstacles", "euccos", "euclidean"):
        ("e7d064ea61b6677df48da4c4774cb9d3c0cb8b84d597f1ee5096728fbc283fe8", 48),
    ("three_obstacles", "dualhead", "off"):
        ("479d036a9a5bb58fe3840a977a64bf46344f09f8d2a9f16e3b27cce362f6168b", 0),
    ("three_obstacles", "dualhead", "zero"):
        ("775bb69994c6f90b331991c730e688af57af3cf2f1b409328d8934fb9658efe5", 9),
    ("three_obstacles", "dualhead", "euclidean"):
        ("6776fee3e95b6bd1206d25124dfb98c32e4a93dfd98fcb7ca04739898a8c48d9", 20),
    ("empty_10x10", "uniform", "off"):
        ("e74bed0910a444588ffeaf695e464f179d90a51c12f9e0a6ee54ef222e12b3af", 0),
    ("informed_corridor", "uniform", "off"):
        ("5b782b2ccbda2531f924ee839bac201a90256bc51e43ad26a440c2664791b31d", 0),
    ("three_obstacles", "uniform", "off"):
        ("9e66084980107d598169c8ac1b508b37a4cdff8b66e766b7a5cde62fdde0b64d", 0),
}
# (t, x, y, theta, v, omega) rows and totals of one closed loop per direction
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
    for name, digest in EXECUTE_SHA256.items():
        assert sha256(out / name) == digest, name


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


def plan_record(scenario, seed=0, **fields):
    """build_tree run: sha256 of its rejected-free record, and rejected."""
    problem = load_scenario(SCENARIOS / f"{scenario}.json")
    graph = build_tree(replace(problem, planner=replace(problem.planner, seed=seed, **fields)))
    record = (graph.to_dict(), graph.iteration_costs, graph.iteration_vertices)
    return hashlib.sha256(repr(record).encode()).hexdigest(), graph.rejected


@pytest.mark.parametrize("run", sorted(INFORMED_COUNTERS))
def test_informed_counters(run):
    scenario, samples = run
    got = plan_record(scenario, samples=samples, informed="euclidean")
    assert got == INFORMED_COUNTERS[run]


@pytest.mark.parametrize("run", sorted(CORRIDOR_SEEDS))
def test_corridor_seeds(run):
    informed, seed = run
    got = plan_record("informed_corridor", seed, samples=3000, informed=informed)
    assert got == CORRIDOR_SEEDS[run]


@pytest.mark.parametrize("run", sorted(PLANNER_GRID))
def test_planner_grid(run):
    scenario, objective, informed = run
    got = plan_record(scenario, samples=400, objective=objective, informed=informed)
    assert got == PLANNER_GRID[run]


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
    # issafe certifies the parametrized direction for each pair
    wd = objective_distance("dualhead", 1.0, 10.0, 1.0 / 3.0)
    graph = MotionGraph(start)
    graph.goal_index = graph.add_vertex(goal, 0, wd.value(start, goal))
    world = World(-20, -20, 20, 20, (), 0.1)
    t = execute(graph, start, world, wd, ControlParams())
    data = np.stack([t.t, t.x, t.y, t.theta, t.v, t.omega])
    h = hashlib.sha256(data.tobytes())
    h.update(repr((t.path_length, t.total_turning, t.duration)).encode())
    assert h.hexdigest() == SIMULATE_SHA256[direction]
