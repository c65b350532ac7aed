"""Scenario-driven command line front end.

Commands: plan (build a motion graph and artifacts), execute (run the graph
policy closed loop), sweep-turning (turning-effort grids over the reduced
start/goal space), distances (pose distance table for two poses).

Exit codes: 0 success, 1 input error or an output that cannot be written,
2 no solution found.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .config import ControlParams, INFORMED_MODES, OBJECTIVES, check_finite, check_kappa
from .control import Pose, rollout_batch, in_backward_domain, in_forward_domain
from .executor import (
    DisconnectedError,
    ExecutionHorizonError,
    execute,
    write_executed_csv,
)
from .metrics import (
    cosine,
    dualhead_distances,
    dualhead_orientation,
    euccos,
    euclidean,
    objective_distance,
)
from .planner import MotionGraph, PlanningError, build_tree
from .render import render_execution, render_plan
from .world import ScenarioError, load_scenario, scenario_to_dict, with_planner


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are input errors: exit 1
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common_plan_flags(p):
    p.add_argument("--seed", type=int, default=None, help="RNG seed override")
    p.add_argument("--samples", type=int, default=None, help="iteration count override")
    p.add_argument("--objective", choices=[o for o in OBJECTIVES if o != "uniform"],
                   default=None, help="cost objective override")
    p.add_argument("--alpha", type=float, default=None, help="translation weight")
    p.add_argument("--beta", type=float, default=None, help="orientation weight")
    p.add_argument("--informed", choices=list(INFORMED_MODES), default=None,
                   help="informed sampling/pruning heuristic")
    p.add_argument("--out", type=Path, default=Path("out"), help="output directory")


def _load(scenario_path, args):
    return with_planner(
        load_scenario(scenario_path),
        seed=args.seed, samples=args.samples, objective=args.objective,
        alpha=args.alpha, beta=args.beta, informed=args.informed,
    )


def _graph_document(problem, graph: MotionGraph) -> dict:
    doc = graph.to_dict()
    doc["seed"] = problem.planner.seed
    doc["scenario"] = scenario_to_dict(problem)
    return doc


def cmd_plan(args) -> int:
    problem = _load(args.scenario, args)
    graph = build_tree(problem)
    args.out.mkdir(parents=True, exist_ok=True)
    doc = _graph_document(problem, graph)
    (args.out / "graph.json").write_text(json.dumps(doc) + "\n")

    with open(args.out / "best_path.csv", "w") as f:
        f.write("x,y,theta,cost\n")
        if graph.goal_index is not None:
            for i in graph.path_indices(graph.goal_index):
                p = graph.poses[i]
                f.write(f"{p.x:.12g},{p.y:.12g},{p.theta:.12g},"
                        f"{graph.cost_to_come(i):.12g}\n")
    (args.out / "plan.svg").write_text(
        render_plan(problem.world, graph, problem.control)
    )
    if graph.goal_index is None:
        print("no path found", file=sys.stderr)
        return 2
    cost = graph.cost_to_come(graph.goal_index)
    print(f"vertices={graph.alive_count} cost={cost:.6g}")
    return 0


def cmd_execute(args) -> int:
    if args.stride < 1:
        raise ValueError(f"--stride must be >= 1 (got {args.stride})")
    problem = _load(args.scenario, args)
    try:
        doc = json.loads(Path(args.graph).read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise ScenarioError(f"cannot read graph file: {e}") from e
    try:
        graph = MotionGraph.from_dict(doc)
    except PlanningError as e:
        raise ScenarioError(f"invalid graph file: {e}") from e
    if graph.poses[0] != problem.start:
        raise ScenarioError("graph vertex 0 is not the scenario start")
    pp = problem.planner
    wd = objective_distance(pp.objective, pp.alpha, pp.beta, pp.kappa)
    if graph.goal_index is None:
        print("graph does not contain the goal", file=sys.stderr)
        return 2
    if graph.poses[graph.goal_index] != problem.goal:
        raise ScenarioError("graph goal vertex is not the scenario goal")
    try:
        trajectory = execute(graph, problem.start, problem.world, wd,
                             problem.control, record_stride=args.stride)
    except DisconnectedError as e:
        print(f"disconnected: {e}", file=sys.stderr)
        return 2
    except ExecutionHorizonError as e:
        print(f"did not reach the goal: {e}", file=sys.stderr)
        return 2
    args.out.mkdir(parents=True, exist_ok=True)
    write_executed_csv(trajectory, args.out / "trajectory.csv")
    (args.out / "execute.svg").write_text(
        render_execution(problem.world, graph, trajectory.x, trajectory.y)
    )
    print(f"path_length={trajectory.path_length:.6g} "
          f"total_turning={trajectory.total_turning:.6g}")
    return 0


def turning_sweep(grid: int, params: ControlParams, kappa: float,
                  mode: str = "angles", theta: float = 0.0,
                  theta_goal: float = 0.0):
    """Per-cell controller turning effort over the reduced start/goal space.

    The start position is fixed at (0,0) and the goal pose at (1,0). In
    "angles" mode the grid spans start and goal headings over [-pi, pi); in
    "positions" mode it spans start positions over [-2, 3] x [-2.5, 2.5]
    with fixed headings. Returns a list of per-cell dicts; cells in neither
    control domain carry direction "none" and no metrics.
    """
    cells = []
    if mode == "angles":
        values = -math.pi + 2 * math.pi * np.arange(grid) / grid
        for i, th in enumerate(values):
            for j, thg in enumerate(values):
                cells.append({"i": i, "j": j, "theta": th, "theta_goal": thg,
                              "pose": Pose(0.0, 0.0, th), "goal": Pose(1.0, 0.0, thg)})
    elif mode == "positions":
        xs = -2.0 + 5.0 * np.arange(grid) / grid
        ys = -2.5 + 5.0 * np.arange(grid) / grid
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                cells.append({"i": i, "j": j, "x": x, "y": y,
                              "pose": Pose(x, y, theta),
                              "goal": Pose(1.0, 0.0, theta_goal)})
    else:
        raise ValueError(f"unknown sweep mode {mode!r}")

    for cell in cells:
        pose, goal = cell["pose"], cell["goal"]
        if in_forward_domain(pose, goal, params):
            cell["direction"] = "forward"
        elif in_backward_domain(pose, goal, params):
            cell["direction"] = "backward"
        else:
            cell["direction"] = "none"
        if cell["direction"] != "none":
            cell["dualhead_orient"] = dualhead_orientation(pose, goal, kappa)
            cell["cosine"] = cosine(pose, goal)

    active = [c for c in cells if c["direction"] != "none"]
    starts = np.array([[c["pose"].x, c["pose"].y, c["pose"].theta]
                       for c in active]).reshape(-1, 3)
    goals = np.array([[c["goal"].x, c["goal"].y, c["goal"].theta]
                      for c in active]).reshape(-1, 3)
    result = rollout_batch(starts, goals, params, [c["direction"] for c in active])
    for c, turn, ok in zip(active, result.total_turning, result.converged):
        if ok:
            c["total_turning"] = float(turn)
        else:
            c["direction"] = "timeout"
    return cells


def cmd_sweep_turning(args) -> int:
    check_kappa(args.kappa, "--kappa")
    if args.grid < 1:
        raise ValueError(f"--grid must be >= 1 (got {args.grid})")
    check_finite(args.theta, "--theta")
    check_finite(args.theta_goal, "--theta-goal")
    params = ControlParams()
    cells = turning_sweep(args.grid, params, args.kappa, mode=args.mode,
                          theta=args.theta, theta_goal=args.theta_goal)
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / "sweep.csv"
    coord_names = ("theta", "theta_goal") if args.mode == "angles" else ("x", "y")
    with open(path, "w") as f:
        f.write(f"i,j,{coord_names[0]},{coord_names[1]},"
                "direction,total_turning,dualhead_orient,cosine\n")
        for c in cells:
            turning = c.get("total_turning")
            f.write(
                f"{c['i']},{c['j']},{c[coord_names[0]]:.12g},"
                f"{c[coord_names[1]]:.12g},{c['direction']},"
                f"{'' if turning is None else format(turning, '.12g')},"
                f"{'' if 'dualhead_orient' not in c else format(c['dualhead_orient'], '.12g')},"
                f"{'' if 'cosine' not in c else format(c['cosine'], '.12g')}\n"
            )
    print(f"wrote {path}")
    return 0


def cmd_distances(args) -> int:
    check_kappa(args.kappa, "--kappa")
    for name, value in zip(("x1", "y1", "theta1", "x2", "y2", "theta2"), args.values):
        check_finite(value, name)
    p = Pose(args.values[0], args.values[1], args.values[2])
    q = Pose(args.values[3], args.values[4], args.values[5])
    headtail, trans, orient = dualhead_distances(p, q, args.kappa)
    rows = [
        ("euclidean", euclidean(p, q)),
        ("cosine", cosine(p, q)),
        ("euccos", euccos(p, q)),
        ("dualhead_trans", trans),
        ("dualhead_orient", orient),
        ("headtail", headtail),
    ]
    wd = objective_distance("dualhead", args.alpha, args.beta, args.kappa)
    rows.append((f"weighted(a={args.alpha:g},b={args.beta:g})", wd.value(p, q)))
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name:<{width}}  {value:.12g}")
    return 0


def main(argv=None) -> int:
    parser = _Parser(prog="uniplan", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_plan = sub.add_parser("plan", help="build a motion graph for a scenario")
    p_plan.add_argument("scenario", type=Path)
    _add_common_plan_flags(p_plan)
    p_plan.set_defaults(func=cmd_plan)

    p_exec = sub.add_parser("execute", help="execute a planned graph closed loop")
    p_exec.add_argument("scenario", type=Path)
    p_exec.add_argument("graph", type=Path)
    p_exec.add_argument("--stride", type=int, default=10,
                        help="record every Nth integration step")
    _add_common_plan_flags(p_exec)
    p_exec.set_defaults(func=cmd_execute)

    p_sweep = sub.add_parser("sweep-turning",
                             help="grid sweep of turning effort and distances")
    p_sweep.add_argument("--grid", type=int, default=64)
    p_sweep.add_argument("--mode", choices=["angles", "positions"], default="angles")
    p_sweep.add_argument("--theta", type=float, default=0.0,
                         help="start heading for positions mode")
    p_sweep.add_argument("--theta-goal", type=float, default=0.0,
                         help="goal heading for positions mode")
    p_sweep.add_argument("--kappa", type=float, default=1.0 / 3.0)
    p_sweep.add_argument("--out", type=Path, default=Path("out"))
    p_sweep.set_defaults(func=cmd_sweep_turning)

    p_dist = sub.add_parser("distances", help="print the pose distance table")
    p_dist.add_argument("values", type=float, nargs=6, metavar="V",
                        help="x1 y1 theta1 x2 y2 theta2")
    p_dist.add_argument("--kappa", type=float, default=1.0 / 3.0)
    p_dist.add_argument("--alpha", type=float, default=1.0)
    p_dist.add_argument("--beta", type=float, default=10.0)
    p_dist.set_defaults(func=cmd_distances)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # bad input, or an OSError from writing an output (inputs that cannot
    # be read already raise ScenarioError)
    except (ScenarioError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
