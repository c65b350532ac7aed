"""The names perfbench/tracing.py patches stay bound where it patches them.

The tracer replaces functions in the namespace of the module (or class)
that looks them up, so a module that stops importing one of them breaks
the benchmark's per-layer trace; this guard runs without the benchmark.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_bound():
    tracing = load_tracing()
    targets = list(tracing._targets(tracing.Tracer()))
    assert targets
    for owner, attr, _ in targets:
        assert attr in owner.__dict__, f"{owner.__name__}.{attr}"


def test_free_space_tests_are_traced():
    # a safe issafe ends on exactly one free hull and an unsafe one on none,
    # so the traced free-space tests account for every safe answer
    from dataclasses import replace

    from uniplan.executor import execute
    from uniplan.metrics import objective_distance
    from uniplan.planner import build_tree
    from uniplan.world import load_scenario

    tracing = load_tracing()
    problem = load_scenario(TRACING.parent.parent / "scenarios" / "three_obstacles.json")
    problem = replace(problem, planner=replace(problem.planner, samples=400, seed=0))
    pp = problem.planner
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        graph = build_tree(problem)
        execute(graph, problem.start, problem.world,
                objective_distance(pp.objective, pp.alpha, pp.beta, pp.kappa),
                problem.control, record_stride=100)
    counts, m = tracer.counts, tracing.layer_metrics(tracer)
    assert counts["world.region_is_free.free"] == (
        counts["prediction.issafe.planner.safe"] + counts["prediction.issafe.executor.safe"])
    issafe_calls = m["prediction.issafe.planner.calls"] + m["prediction.issafe.executor.calls"]
    assert 0 < m["world.region_is_free.calls"] <= 2 * issafe_calls
