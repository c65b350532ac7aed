"""The scripts run on small inputs and print what uniplan.experiments returns."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from uniplan.config import ControlParams
from uniplan.executor import ExecutionHorizonError
from uniplan.experiments import (
    informed_comparison,
    plan_and_execute,
    turning_correlations,
    with_planner,
)
from uniplan.world import load_scenario, scenario_from_dict

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    # from the repository root, where the scripts' default scenario paths resolve
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("name, args", [
    ("compare_objectives.py", ["--seeds", "1", "--samples", "400"]),
])
def test_script_exits_0(name, args):
    result = run_script(name, *args)
    assert result.returncode == 0, result.stderr
    assert "seed 0" in result.stdout


def load_script(name):
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"),
                                                  ROOT / "scripts" / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_objectives_reports_a_failed_execution(monkeypatch, capsys):
    # an execution that stops short of the goal is reported for its seed,
    # and every objective's medians cover only the seeds all of them executed
    script = load_script("compare_objectives.py")

    def plan_and_execute(problem):
        pp = problem.planner
        if (pp.objective, pp.seed) == ("euccos", 1):
            raise ExecutionHorizonError("execution exceeded its 117 s budget")
        return None, SimpleNamespace(path_length=1.0 + pp.seed, total_turning=2.0)

    monkeypatch.setattr(script, "plan_and_execute", plan_and_execute)
    script.main([str(ROOT / "scenarios" / "three_obstacles.json"), "--seeds", "2"])
    out = capsys.readouterr().out
    assert "euccos seed 1: not executed: execution exceeded its 117 s budget\n" in out
    assert ("== euccos: median length 1.000 median turning 2.000 over 1 of 2 seeds"
            in out)
    assert ("== euclidean: median length 1.000 median turning 2.000 over 1 of 2 seeds"
            in out)
    assert ("== dualhead: median length 1.000 median turning 2.000 over 1 of 2 seeds"
            in out)


def test_turning_heatmap_prints_scipy_correlations(tmp_path):
    out = tmp_path / "heatmap.svg"
    result = run_script("turning_heatmap.py", "--grid", "6", "--out", str(out))
    assert result.returncode == 0, result.stderr
    assert out.exists()
    printed = dict(re.findall(r"spearman\(turning, (\w+)\) *= (\S+)", result.stdout))
    _, rho = turning_correlations(6, ControlParams(), 1.0 / 3.0)
    assert printed == {key: f"{value:.3f}" for key, value in rho.items()}


def test_informed_comparison_prints_the_function_result():
    result = run_script("informed_comparison.py", "--seeds", "1")
    assert result.returncode == 0, result.stderr
    problem = load_scenario(ROOT / "scenarios" / "informed_corridor.json")
    r = informed_comparison(with_planner(problem, seed=0), "euclidean")
    assert r["matched_at"] is not None
    assert (f"plain cost {r['plain_cost']:.4f} " in result.stdout
            and f"informed cost {r['informed_cost']:.4f} " in result.stdout
            and f"matched plain at {r['matched_at']} vertices" in result.stdout)


def test_informed_comparison_without_a_plain_path():
    # 5 samples find no path: both costs are inf, which match nothing
    problem = load_scenario(ROOT / "scenarios" / "three_obstacles.json")
    r = informed_comparison(with_planner(problem, samples=5, seed=0), "euclidean")
    assert r["plain_cost"] == r["informed_cost"] == float("inf")
    assert r["matched_at"] is None


def test_plan_and_execute_without_a_path():
    problem = scenario_from_dict({
        "workspace": {"min": [0, 0], "max": [10, 10]},
        "start": {"x": 1, "y": 5, "theta": 0},
        "goal": {"x": 9, "y": 5, "theta": 0},
        "planner": {"samples": 0},
    })
    graph, trajectory = plan_and_execute(problem)
    assert trajectory is None
    assert graph.goal_index is None and graph.alive_count == 1


def test_package_imports_without_scipy():
    # the runtime dependency is numpy alone; scipy comes with the test extra
    code = (f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
            "import uniplan, uniplan.cli, uniplan.experiments; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", code],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
