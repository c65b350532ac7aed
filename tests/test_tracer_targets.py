"""The names perfbench/tracing.py patches stay bound where it patches them.

The tracer replaces functions in the namespace of the module (or class)
that looks them up, so a module that stops importing one of them breaks
the benchmark's per-layer trace; this guard runs without the benchmark.
"""

import ast
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
SRC = TRACING.parent.parent / "src" / "uniplan"


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


def unread_imports():
    """(module, name) for each name a uniplan module imports, from a sibling
    or from outside the package (the standard library, numpy), and never
    reads; a name listed in __all__ counts as read, and __future__ imports
    are not names."""
    unread = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported, read = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(alias.asname or alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                imported.update(alias.asname or alias.name.partition(".")[0]
                                for alias in node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                read.update(ast.literal_eval(node.value))
        unread.update((path.stem, name) for name in imported - read)
    return unread


def test_unread_imports_are_traced_names():
    # a name the tracer patches must stay bound even where no code reads
    # it; any other unread import is dead and should go
    tracing = load_tracing()
    patched = {(owner.__name__.rpartition(".")[2], attr)
               for owner, attr, _ in tracing._targets(tracing.Tracer())}
    unread = unread_imports()
    assert unread <= patched, sorted(unread - patched)


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
