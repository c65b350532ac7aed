import copy
import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from uniplan import cli
from uniplan.cli import main, turning_sweep
from uniplan.config import ControlParams
from uniplan.geom import wrap_angle
from uniplan.world import load_scenario

SHIPPED = Path(__file__).resolve().parent.parent / "scenarios"

SCENARIO = {
    "workspace": {"min": [0, 0], "max": [10, 10]},
    "obstacles": [{"type": "ball", "center": [5, 6], "radius": 1.0}],
    "robot_radius": 0.4,
    "start": {"x": 1, "y": 5, "theta": 0},
    "goal": {"x": 9, "y": 5, "theta": 0},
    "planner": {"samples": 400, "seed": 0, "goal_bias": 0.15, "step_angle": 0.5},
}


@pytest.fixture
def scenario(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(SCENARIO))
    return path


@pytest.fixture(scope="module")
def planned(tmp_path_factory):
    """Scenario path and the graph document planned for it."""
    out = tmp_path_factory.mktemp("planned")
    path = out / "scenario.json"
    path.write_text(json.dumps(SCENARIO))
    assert main(["plan", str(path), "--out", str(out)]) == 0
    return path, json.loads((out / "graph.json").read_text())


def _no_vertices(doc):
    doc.update(vertices=[], edges=[])


def _only_empty_vertices(doc):
    doc.clear()
    doc["vertices"] = []


def _drop_edges(doc):
    del doc["edges"]


def _edge_out_of_range(doc):
    doc["edges"][0]["b"] = len(doc["vertices"])


def _goal_out_of_range(doc):
    doc["goal_index"] = len(doc["vertices"])


def _move_start(doc):
    doc["vertices"][0]["x"] += 0.5


def _turn_goal(doc):
    doc["vertices"][doc["goal_index"]]["theta"] = 0.5


def _off_path(doc):
    """Index of a vertex that the best path does not visit."""
    return max(set(range(len(doc["vertices"]))) - set(doc["best_path"]))


def _nan_off_path_vertex(doc):
    doc["vertices"][_off_path(doc)].update(x=math.nan, cost=math.nan)


def _inf_off_path_y(doc):
    doc["vertices"][_off_path(doc)]["y"] = math.inf


def _inf_off_path_theta(doc):
    doc["vertices"][_off_path(doc)]["theta"] = -math.inf


def _nan_off_path_edge_cost(doc):
    edge = next(e for e in doc["edges"] if e["b"] == _off_path(doc))
    edge["cost"] = math.nan


def _cycle_edge(doc):
    """A second edge into a vertex, with a cost that telescopes from vertex 0."""
    b = next(e["b"] for e in doc["edges"] if e["a"] != 0)
    doc["edges"].append({"a": 0, "b": b, "cost": doc["vertices"][b]["cost"]})


def _duplicate_edge(doc):
    doc["edges"].append(dict(doc["edges"][0]))


def _self_loop(doc):
    doc["edges"].append({"a": 0, "b": 0, "cost": 0.0})


def _fractional_goal_index(doc):
    doc["goal_index"] += 0.7


def _edge_from_start(doc):
    return next(e for e in doc["edges"] if e["a"] == 0)


def _fractional_edge_endpoint(doc):
    _edge_from_start(doc)["a"] = 0.9


def _bool_edge_endpoint(doc):
    _edge_from_start(doc)["a"] = False


def _string_off_path_x(doc):
    vertex = doc["vertices"][_off_path(doc)]
    vertex["x"] = str(vertex["x"])


def _huge_integer_off_path_x(doc):
    doc["vertices"][_off_path(doc)]["x"] = 10**400


def _string_off_path_edge_cost(doc):
    edge = next(e for e in doc["edges"] if e["b"] == _off_path(doc))
    edge["cost"] = str(edge["cost"])


MALFORMED_GRAPHS = {
    "no_vertices": _no_vertices,
    "only_empty_vertices": _only_empty_vertices,
    "missing_edges": _drop_edges,
    "edge_out_of_range": _edge_out_of_range,
    "goal_index_out_of_range": _goal_out_of_range,
    "vertex_0_not_start": _move_start,
    "goal_vertex_not_goal": _turn_goal,
    "nan_off_path_vertex": _nan_off_path_vertex,
    "inf_off_path_y": _inf_off_path_y,
    "inf_off_path_theta": _inf_off_path_theta,
    "nan_off_path_edge_cost": _nan_off_path_edge_cost,
    "cycle_edge": _cycle_edge,
    "duplicate_edge": _duplicate_edge,
    "self_loop": _self_loop,
    # values of the wrong JSON type, which int() or float() would convert
    "fractional_goal_index": _fractional_goal_index,
    "fractional_edge_endpoint": _fractional_edge_endpoint,
    "bool_edge_endpoint": _bool_edge_endpoint,
    "string_off_path_x": _string_off_path_x,
    "string_off_path_edge_cost": _string_off_path_edge_cost,
    # an integer beyond the float range, on which float() raises
    "huge_integer_off_path_x": _huge_integer_off_path_x,
}


# (section, key, value): scenario values of the wrong type; key 0 is the
# first obstacle
WRONG_TYPES = [
    ("planner", "samples", 10.5),
    ("planner", "samples", "10"),
    ("planner", "seed", 1.5),
    ("planner", "goal_bias", "x"),
    ("control", "headway", "0.2"),
    ("control", "gain", None),
    ("workspace", "min", [0]),
    ("start", "theta", None),
    ("obstacles", 0, {"type": "ball", "center": [5, None], "radius": 1.0}),
    ("obstacles", 0, {"type": "polygon", "vertices": [[1, 1], [2, None], [1, 2]]}),
]


# (section, key, value): NaN, infinite and float-overflowing numbers, all of
# which Python's json reads
NON_FINITE = [
    ("control", "gain", math.nan),
    ("control", "horizon", math.inf),
    ("planner", "neighbor_radius", math.nan),
    ("planner", "neighbor_radius", math.inf),
    ("planner", "step_radius", math.inf),
    ("planner", "alpha", math.inf),
    ("start", "theta", math.nan),
    ("start", "x", 10**400),
    ("goal", "theta", math.inf),
    ("workspace", "max", [10, math.inf]),
    ("obstacles", 0, {"type": "ball", "center": [5, math.nan], "radius": 1.0}),
    ("obstacles", 0, {"type": "ball", "center": [5, 6], "radius": math.nan}),
    ("obstacles", 0, {"type": "polygon", "vertices": [[4, 5], [5, math.inf], [4, 6]]}),
]


def _regular_file(tmp_path):
    """A regular file where an --out directory would go."""
    path = tmp_path / "afile"
    path.write_text("")
    return path


def _with_value(section, key, value):
    doc = copy.deepcopy(SCENARIO)
    doc.setdefault(section, {})[key] = value
    return doc


class TestPlanCommand:
    def test_writes_artifacts(self, scenario, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["plan", str(scenario), "--out", str(out), "--seed", "7"])
        assert code == 0
        doc = json.loads((out / "graph.json").read_text())
        assert doc["seed"] == 7
        assert doc["goal_index"] is not None
        assert doc["scenario"]["planner"]["seed"] == 7
        lines = (out / "best_path.csv").read_text().splitlines()
        assert lines[0] == "x,y,theta,cost"
        assert len(lines) == len(doc["best_path"]) + 1
        assert "cost=" in capsys.readouterr().out

    def test_zero_samples_exit_2(self, scenario, tmp_path):
        out = tmp_path / "out0"
        code = main(["plan", str(scenario), "--out", str(out), "--samples", "0"])
        assert code == 2
        doc = json.loads((out / "graph.json").read_text())
        assert len(doc["vertices"]) == 1
        assert doc["best_path"] == []

    def test_deterministic_bytes(self, scenario, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["plan", str(scenario), "--out", str(out1), "--seed", "3"]) == 0
        assert main(["plan", str(scenario), "--out", str(out2), "--seed", "3"]) == 0
        assert (out1 / "graph.json").read_bytes() == (out2 / "graph.json").read_bytes()
        assert (out1 / "plan.svg").read_bytes() == (out2 / "plan.svg").read_bytes()

    def test_svg_valid_and_counts_vertices(self, scenario, tmp_path):
        out = tmp_path / "svg"
        assert main(["plan", str(scenario), "--out", str(out)]) == 0
        doc = json.loads((out / "graph.json").read_text())
        root = ET.fromstring((out / "plan.svg").read_text())
        assert root.tag.endswith("svg")
        vertices = [
            el for el in root.iter()
            if el.attrib.get("class") == "vertex"
        ]
        assert len(vertices) == len(doc["vertices"])

    def test_input_error_exit_1(self, tmp_path):
        missing = tmp_path / "nope.json"
        assert main(["plan", str(missing), "--out", str(tmp_path / "x")]) == 1

    def test_unwritable_out_exit_1(self, scenario, tmp_path, capsys):
        code = main(["plan", str(scenario), "--samples", "10",
                     "--out", str(_regular_file(tmp_path) / "sub")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("section, key, value", WRONG_TYPES)
    def test_wrong_typed_value_exit_1(self, section, key, value, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(_with_value(section, key, value)))
        code = main(["plan", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("section, key, value", NON_FINITE,
                             ids=lambda v: "10**400" if v == 10**400 else None)
    def test_non_finite_value_exit_1(self, section, key, value, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(_with_value(section, key, value)))
        code = main(["plan", str(path), "--samples", "50", "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "finite" in err, err

    @pytest.mark.parametrize("flag", ["--alpha", "--beta"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_flag_exit_1(self, scenario, flag, value, tmp_path, capsys):
        code = main(["plan", str(scenario), flag, value, "--samples", "50",
                     "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_flag_overrides_file(self, scenario, tmp_path):
        out = tmp_path / "ovr"
        code = main(["plan", str(scenario), "--out", str(out),
                     "--objective", "euclidean", "--beta", "2"])
        assert code == 0
        doc = json.loads((out / "graph.json").read_text())
        assert doc["scenario"]["planner"]["objective"] == "euclidean"
        assert doc["scenario"]["planner"]["beta"] == 2


class TestExecuteCommand:
    @staticmethod
    def plan_then_execute(scenario, out, capsys):
        """Plan and execute through the CLI; the run must end at the goal."""
        assert main(["plan", str(scenario), "--out", str(out)]) == 0
        code = main(["execute", str(scenario), str(out / "graph.json"),
                     "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "path_length=" in printed and "total_turning=" in printed
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,x,y,theta,v,omega,segment"
        assert len(lines) > 10
        _, x, y, theta, *_ = map(float, lines[-1].split(","))
        problem = load_scenario(scenario)
        goal, params = problem.goal, problem.control
        assert math.hypot(x - goal.x, y - goal.y) <= params.goal_tol
        assert abs(wrap_angle(theta - goal.theta)) <= params.angle_tol
        root = ET.fromstring((out / "execute.svg").read_text())
        assert root.tag.endswith("svg")

    def test_plan_then_execute(self, scenario, tmp_path, capsys):
        self.plan_then_execute(scenario, tmp_path / "run", capsys)

    @pytest.mark.parametrize("name", [
        "empty_10x10",
        pytest.param("informed_corridor", marks=pytest.mark.xfail(
            strict=True, reason="ROADMAP item 1: execute exits 2, "
                                "'exceeded its 10 s budget'")),
        "three_obstacles",
    ])
    def test_plan_then_execute_shipped(self, name, tmp_path, capsys):
        self.plan_then_execute(SHIPPED / f"{name}.json", tmp_path / "run", capsys)

    def test_goalless_graph_exit_2(self, scenario, tmp_path):
        out = tmp_path / "run2"
        assert main(["plan", str(scenario), "--out", str(out),
                     "--samples", "0"]) == 2
        code = main(["execute", str(scenario), str(out / "graph.json"),
                     "--out", str(out)])
        assert code == 2


    @pytest.mark.parametrize("case", sorted(MALFORMED_GRAPHS))
    def test_malformed_graph_exit_1(self, planned, case, tmp_path, capsys):
        scenario, doc = planned
        doc = copy.deepcopy(doc)
        MALFORMED_GRAPHS[case](doc)
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(["execute", str(scenario), str(graph), "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_unwritable_out_exit_1(self, planned, tmp_path, capsys):
        scenario, doc = planned
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps(doc))
        code = main(["execute", str(scenario), str(graph),
                     "--out", str(_regular_file(tmp_path) / "sub")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("stride", ["0", "-5"])
    def test_stride_below_1_exit_1(self, planned, stride, tmp_path, capsys):
        scenario, doc = planned
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps(doc))
        code = main(["execute", str(scenario), str(graph), "--stride", stride,
                     "--out", str(tmp_path)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --stride") and captured.err.count("\n") == 1
        assert not (tmp_path / "trajectory.csv").exists()


class TestSweepCommand:
    def test_unwritable_out_exit_1(self, tmp_path, capsys):
        code = main(["sweep-turning", "--grid", "2", "--out", str(_regular_file(tmp_path))])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_small_grid(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = main(["sweep-turning", "--grid", "6", "--out", str(out)])
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "i,j,theta,theta_goal,direction,total_turning,dualhead_orient,cosine"
        assert len(lines) == 37
        directions = {line.split(",")[4] for line in lines[1:]}
        assert directions <= {"forward", "backward", "none", "timeout"}
        assert "forward" in directions and "backward" in directions

    def test_one_rollout_for_both_directions(self, monkeypatch):
        calls = []

        def counting(starts, goals, params, directions, *rest):
            calls.append(list(directions))
            return rollout(starts, goals, params, directions, *rest)

        rollout = cli.rollout_batch
        monkeypatch.setattr(cli, "rollout_batch", counting)
        cells = turning_sweep(6, ControlParams(), 1.0 / 3.0)
        assert len(calls) == 1
        assert len(calls[0]) == sum(c["direction"] != "none" for c in cells)
        assert set(calls[0]) == {"forward", "backward"}

    def test_aligned_cell_zero(self):
        cells = turning_sweep(4, ControlParams(), 1.0 / 3.0)
        aligned = [c for c in cells if c["theta"] == 0.0 and c["theta_goal"] == 0.0]
        assert len(aligned) == 1
        cell = aligned[0]
        assert cell["direction"] == "forward"
        assert cell["total_turning"] < 1e-6
        assert cell["dualhead_orient"] == pytest.approx(0.0, abs=1e-12)
        assert cell["cosine"] == pytest.approx(0.0, abs=1e-12)

    def test_reversed_cell_backward_zero_turning(self):
        cells = turning_sweep(2, ControlParams(), 1.0 / 3.0)
        rev = [c for c in cells if c["theta"] == -math.pi and c["theta_goal"] == -math.pi]
        assert rev[0]["direction"] == "backward"
        assert rev[0]["total_turning"] < 1e-6

    def test_positions_mode(self, tmp_path):
        out = tmp_path / "pos"
        code = main(["sweep-turning", "--grid", "5", "--mode", "positions",
                     "--out", str(out)])
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("i,j,x,y,")


BAD_KAPPAS = ["-1", "0", "0.5", "3.0", "nan"]


class TestDistancesCommand:
    def test_table_output(self, capsys):
        code = main(["distances", "0", "0", "0", "1", "0", "1.5707963267948966"])
        assert code == 0
        out = capsys.readouterr().out
        lines = dict(
            (line.split()[0], float(line.split()[-1]))
            for line in out.strip().splitlines()
        )
        assert lines["euclidean"] == pytest.approx(1.0)
        assert lines["cosine"] == pytest.approx(1.0)
        assert lines["euccos"] == pytest.approx(2.0)
        assert lines["dualhead_trans"] == pytest.approx((2 + math.sqrt(5)) / 3)
        assert lines["dualhead_orient"] == pytest.approx((math.sqrt(5) - 1) / 3)

    @pytest.mark.parametrize("kappa", BAD_KAPPAS)
    def test_kappa_out_of_range_exit_1(self, kappa, capsys):
        code = main(["distances", "0", "0", "0", "1", "0", "3.0", "--kappa", kappa])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --kappa") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("position", range(6))
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_pose_value_exit_1(self, position, value, capsys):
        values = ["0", "0", "0", "1", "0", "3.0"]
        values[position] = value
        code = main(["distances", *values])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "finite" in captured.err, captured.err

    @pytest.mark.parametrize("flag", ["--alpha", "--beta"])
    def test_infinite_weight_exit_1(self, flag, capsys):
        code = main(["distances", "0", "0", "0", "1", "0", "0", flag, "inf"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: weights") and captured.err.count("\n") == 1


class TestSweepKappa:
    @pytest.mark.parametrize("kappa", BAD_KAPPAS)
    def test_kappa_out_of_range_exit_1(self, kappa, tmp_path, capsys):
        code = main(["sweep-turning", "--grid", "2", "--kappa", kappa,
                     "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().out == ""
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("args", [
        ["--theta", "nan"], ["--theta", "inf"],
        ["--theta-goal", "nan"], ["--theta-goal=-inf"],
        ["--grid", "0"], ["--grid", "-3"],
    ])
    def test_bad_argument_exit_1(self, args, tmp_path, capsys):
        code = main(["sweep-turning", "--mode", "positions", "--grid", "2", *args,
                     "--out", str(tmp_path)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert not (tmp_path / "sweep.csv").exists()
