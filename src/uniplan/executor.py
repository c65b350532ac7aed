"""Closed-loop plan execution over a motion graph.

At any pose, the executor picks the safely reachable graph vertex minimizing
local steering cost plus remaining travel cost over the tree, then tracks it
with the controller whose direction the safety test certified for it. Local
goals are re-selected at a fixed cadence and whenever one is reached,
composing the local policies into a global one whose remaining cost
decreases across switches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import ControlParams
from .control import Pose, aim_at, reached, rk4_step
# not called here (issafe certifies the direction); perfbench/tracing.py
# patches them in this module
from .control import in_backward_domain, in_forward_domain  # noqa: F401
# execute calls control.steer by this name, once per step: perfbench/tracing.py
# counts executor steps by patching it here
from .control import steer as _segment_control
from .geom import wrap_angle
from .metrics import WeightedDistance
from .planner import MotionGraph, cost_floor
from .prediction import issafe
from .world import World

REPLAN_PERIOD = 0.1  # s between local-goal re-selections


class DisconnectedError(Exception):
    """No graph vertex is safely reachable from the current pose."""


class ExecutionHorizonError(Exception):
    """Execution exceeded its time budget before reaching the global goal."""


@dataclass
class ExecutedTrajectory:
    """Executed samples up to the global goal, plus the active local-goal vertex per sample."""

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    theta: np.ndarray
    v: np.ndarray
    omega: np.ndarray
    segment: np.ndarray  # local-goal vertex index active at each sample
    path_length: float
    total_turning: float
    duration: float
    segments: list[tuple[int, float, float]] = field(default_factory=list)
    # per-segment (vertex index, path length, turning)

    @classmethod
    def from_rows(cls, rows, **totals) -> "ExecutedTrajectory":
        """The trajectory of (t, x, y, theta, v, omega, segment) rows and the other fields."""
        *columns, segment = np.array(rows, dtype=float).reshape(len(rows), 7).T
        return cls(*columns, segment=segment.astype(int), **totals)


def write_executed_csv(trajectory: ExecutedTrajectory, path) -> None:
    """CSV with the trajectory columns plus the active segment index."""
    with open(path, "w") as f:
        f.write("t,x,y,theta,v,omega,segment\n")
        for k in range(len(trajectory.t)):
            f.write(
                f"{trajectory.t[k]:.12g},{trajectory.x[k]:.12g},"
                f"{trajectory.y[k]:.12g},{trajectory.theta[k]:.12g},"
                f"{trajectory.v[k]:.12g},{trajectory.omega[k]:.12g},"
                f"{int(trajectory.segment[k])}\n"
            )


class _Policy:
    """Shared state for local-goal selection against one graph."""

    def __init__(self, graph: MotionGraph, world: World,
                 wd: WeightedDistance, params: ControlParams):
        if graph.goal_index is None:
            raise DisconnectedError("graph does not contain the goal pose")
        self.graph = graph
        self.world = world
        self.wd = wd
        self.params = params
        self.cost_to_goal = graph.costs_to(graph.goal_index)
        n = len(graph)
        self.xs = graph._xs[:n]
        self.ys = graph._ys[:n]

    def total_cost(self, pose: Pose, v: int) -> float:
        return self.wd.value(pose, self.graph.poses[v]) + float(self.cost_to_goal[v])

    def select(self, pose: Pose, best_known: float = math.inf,
               max_ctg: float = math.inf) -> tuple[int | None, float, str | None]:
        """Cheapest safely reachable vertex, its total cost and the direction
        issafe certified for it; ties by lowest index. Only totals up to
        best_known count; with none, (None, best_known, None) is returned.

        Candidates are scanned in order of a lower bound on their total
        (the planner's cost_floor of the Euclidean distance, padded for
        rounding, plus cost-to-goal), so the expensive safety test
        only runs until the bound passes the incumbent. Vertices closer
        than the goal tolerance are skipped: the controller is undefined
        there and they are never safe targets. max_ctg restricts candidates
        to strictly smaller remaining cost than the current local goal;
        without it, re-selection could cycle back to a just-reached vertex
        (the pose distances do not obey the triangle inequality).
        """
        eucl = np.hypot(self.xs - pose.x, self.ys - pose.y)
        lb = cost_floor(self.wd, eucl) + self.cost_to_goal
        # dead vertices have an infinite cost-to-goal, so the max_ctg test drops them
        admissible = (eucl > self.params.goal_tol) & (self.cost_to_goal < max_ctg)
        lb = np.where(admissible, lb, np.inf)
        best_idx = None
        best_val = best_known
        best_dir = None
        for j in np.argsort(lb, kind="stable"):
            if lb[j] > best_val or not np.isfinite(lb[j]):
                break
            total = self.total_cost(pose, int(j))
            if total > best_val or (total == best_val and best_idx is not None and j > best_idx):
                continue
            direction = issafe(pose, self.graph.poses[int(j)], self.world, self.params)
            if direction is not None:
                best_idx, best_val, best_dir = int(j), total, direction
        return best_idx, best_val, best_dir


def execute(graph: MotionGraph, start: Pose, world: World,
            wd: WeightedDistance, params: ControlParams,
            record_stride: int = 1) -> ExecutedTrajectory:
    """Integrate the graph policy from start until the global goal pose.

    The local goal is selected once at the start (the least total, which
    no re-selection there could beat), then every REPLAN_PERIOD seconds and
    upon being reached; between selections the current one is kept unless
    a strictly cheaper safe vertex exists (hysteresis by total cost). Each
    local goal is tracked in the direction issafe certified when it was
    selected; each step's RK4 update returns the cosine and sine of the
    new heading, which the next step's control law takes. The time budget
    is 10x the larger of the planned cost and the objective value from
    start to goal, over the reference gain; ExecutionHorizonError is raised
    when it runs out. Rows are kept every record_stride steps, plus the
    row at the goal; a stride below 1 raises ValueError.
    """
    if record_stride < 1:
        raise ValueError(f"record_stride must be >= 1 (got {record_stride})")
    policy = _Policy(graph, world, wd, params)
    goal_pose = graph.poses[graph.goal_index]
    h = params.step
    x, y, th = start.x, start.y, start.theta
    if reached(x, y, th, goal_pose, params):
        return ExecutedTrajectory.from_rows([], path_length=0.0, total_turning=0.0,
                                            duration=0.0)

    current, _, direction = policy.select(start)
    if current is None:
        raise DisconnectedError("no safely reachable graph vertex from the start pose")
    target = graph.poses[current]
    aim = aim_at(target, direction, params)
    budget = 10.0 * max(float(policy.cost_to_goal[0]), wd.value(start, goal_pose)) / params.gain
    nmax = int(math.ceil(budget / h))
    replan_every = max(1, int(round(REPLAN_PERIOD / h)))

    rows = []
    segments: list[tuple[int, float, float]] = []
    path_length = 0.0
    total_turning = 0.0
    seg_len = 0.0
    seg_turn = 0.0
    k = 0
    cth, sth = math.cos(th), math.sin(th)
    while not reached(x, y, th, goal_pose, params):
        if k >= nmax:
            raise ExecutionHorizonError(f"execution exceeded its {budget:.3g} s budget")

        # with the goal vertex as local goal, the test above already said no
        at_target = current != graph.goal_index and reached(x, y, th, target, params)
        if at_target or (k > 0 and k % replan_every == 0):
            # switches only ever move to vertices with strictly smaller
            # remaining cost, so the local-goal sequence cannot cycle
            pose = Pose(x, y, th)
            keep = math.inf if at_target else policy.total_cost(pose, current)
            nxt, val, direction = policy.select(
                pose, best_known=keep, max_ctg=float(policy.cost_to_goal[current]))
            if val < keep:
                segments.append((current, seg_len, seg_turn))
                seg_len, seg_turn = 0.0, 0.0
                current, target = nxt, graph.poses[nxt]
                aim = aim_at(target, direction, params)
            elif at_target:
                raise DisconnectedError("no safely reachable vertex after segment")

        v, w = _segment_control(x, y, cth, sth, aim)
        if k % record_stride == 0:
            rows.append((k * h, x, y, wrap_angle(th), v, w, current))
        hv, hw = h * v, h * w
        x, y, th, cth, sth = rk4_step(x, y, th, cth, sth, hv, hw)
        dl, dturn = abs(hv), abs(hw)
        path_length += dl
        total_turning += dturn
        seg_len += dl
        seg_turn += dturn
        k += 1

    rows.append((k * h, x, y, wrap_angle(th), 0.0, 0.0, current))
    segments.append((current, seg_len, seg_turn))
    return ExecutedTrajectory.from_rows(
        rows, path_length=path_length, total_turning=total_turning,
        duration=k * h, segments=segments,
    )
