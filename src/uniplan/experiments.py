"""The paper's three experiments, computed once for scripts/ and the acceptance suite.

with_planner is world.with_planner, re-exported for both.
"""

import numpy as np

from .cli import turning_sweep
from .executor import execute
from .metrics import objective_distance
from .planner import build_tree
from .world import with_planner


def plan_and_execute(problem):
    """(graph, trajectory executed at record stride 10), or (graph, None) with no path."""
    graph = build_tree(problem)
    if graph.goal_index is None:
        return graph, None
    pp = problem.planner
    wd = objective_distance(pp.objective, pp.alpha, pp.beta, pp.kappa)
    return graph, execute(graph, problem.start, problem.world, wd,
                          problem.control, record_stride=10)


def _goal_cost(graph):
    return np.inf if graph.goal_index is None else graph.cost_to_come(graph.goal_index)


def informed_comparison(problem, heuristic):
    """Plain and informed plans of one problem (Gammell et al., IROS 2014).

    Returns the graphs, their goal costs (inf when unsolved) and matched_at:
    the informed alive-vertex count when its goal cost first comes within
    1e-12 of the plain one, or None if it never does or the plain run
    found no path.
    """
    plain = build_tree(with_planner(problem, informed="off"))
    informed = build_tree(with_planner(problem, informed=heuristic))
    plain_cost = _goal_cost(plain)
    hit = np.flatnonzero(np.array(informed.iteration_costs) <= plain_cost + 1e-12)
    return {
        "plain": plain,
        "informed": informed,
        "plain_cost": plain_cost,
        "informed_cost": _goal_cost(informed),
        "matched_at": (int(informed.iteration_vertices[hit[0]])
                       if len(hit) and np.isfinite(plain_cost) else None),
    }


def turning_correlations(grid, params, kappa):
    """The turning sweep's cells, and each orientation distance's Spearman
    rank correlation (ties averaged) with total turning over converged cells.

    scipy comes from the test extra, so it is imported here, not with the package.
    """
    from scipy.stats import spearmanr

    cells = turning_sweep(grid, params, kappa)
    live = [c for c in cells if "total_turning" in c]
    turn = [c["total_turning"] for c in live]
    rho = {key: spearmanr(turn, [c[key] for c in live]).statistic
           for key in ("dualhead_orient", "cosine")}
    return cells, rho
