"""Kinematic unicycle model and the signed dual-headway pose controller.

The robot state is a planar pose (x, y, theta) with controls (v, omega) and
no sideways motion. The forward controller steers a headway point placed
ahead of the robot toward a tailway point placed behind the goal; the
backward controller is the same construction mirrored, with a tailway point
behind the robot and a headway point ahead of the goal. Both are one signed
construction: with L the distance to the goal and (ea, eb) the coefficient
pair of the direction, the robot anchor is x + s ea L o(theta) and the goal
anchor x_g - s eb L o(theta_g), where s = +1 forward and s = -1 backward.
The anchor pair and the domain test (on which the controller keeps
sign-definite linear velocity and terminal alignment) are one kernel on
plain floats, which the safety test calls directly and the Pose/Vec2
functions wrap; the control law and the RK4 step are each written once and
use only arithmetic, so scalar simulation, the vectorized batch rollout and
the plan executor share them.

All control-law functions are pure; simulation owns its own state and runs
single threaded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import ControlParams
from .geom import Vec2, heading_vectors, wrap_angle


class DomainError(Exception):
    """Pose is not in the control domain required for the requested motion."""


class NotConverged(Exception):
    """Simulation horizon exceeded; carries the partial trajectory."""

    def __init__(self, message, trajectory):
        super().__init__(message)
        self.trajectory = trajectory


@dataclass(frozen=True)
class Pose:
    """Planar position (m) and heading angle wrapped into [-pi, pi)."""

    x: float
    y: float
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "theta", wrap_angle(self.theta))

    @property
    def position(self) -> Vec2:
        return Vec2(self.x, self.y)

    def heading(self) -> Vec2:
        return heading_vectors(self.theta)[0]

    def distance_to(self, other: "Pose") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


def direction_coefficients(
    params: ControlParams, direction: str
) -> tuple[float, float, float]:
    """(ea, eb, s) of a direction: robot and goal anchor coefficients, sign.

    Forward is (headway, tailway, +1); backward is (back_tailway,
    back_headway, -1). Raises ValueError for any other direction.
    """
    if direction == "forward":
        return params.headway, params.tailway, 1.0
    if direction == "backward":
        return params.back_tailway, params.back_headway, -1.0
    raise ValueError(f"unknown direction {direction!r}")


def anchor_points(
    pose: Pose, goal: Pose, ea: float, eb: float, s: float
) -> tuple[Vec2, Vec2]:
    """Robot anchor x + s ea L o(theta) and goal anchor x_g - s eb L o(theta_g).

    Both offsets scale with the current distance L to the goal, so they
    collapse onto the positions as the robot arrives.
    """
    ax, ay, bx, by, _ = domain_anchors(*_xy_cos_sin(pose), *_xy_cos_sin(goal), ea, eb, s)
    return Vec2(ax, ay), Vec2(bx, by)


def _xy_cos_sin(pose: Pose) -> tuple[float, float, float, float]:
    return pose.x, pose.y, math.cos(pose.theta), math.sin(pose.theta)


def domain_anchors(x, y, c, sn, gx, gy, gc, gs, ea, eb, s):
    """The anchor pair and the domain test on plain floats.

    (x, y) and (gx, gy) are the robot and goal positions, (c, sn) and
    (gc, gs) the cosine and sine of their headings, (ea, eb, s) the
    direction's coefficients. Returns (ax, ay, bx, by, inside): the robot
    anchor, the goal anchor, and whether the direction's controller keeps
    s v >= 0 and aligns at the goal. With d = goal anchor - robot anchor,
    inside means s d.o(theta) >= 0 and s d.o(theta_goal) > -|d|; a
    degenerate d = 0 belongs to neither restricted domain.
    """
    L = math.hypot(x - gx, y - gy)
    ax = x + s * ea * L * c
    ay = y + s * ea * L * sn
    bx = gx - s * eb * L * gc
    by = gy - s * eb * L * gs
    dx, dy = bx - ax, by - ay
    dn = math.hypot(dx, dy)
    inside = dn != 0.0 and s * (dx * c + dy * sn) >= 0.0 and s * (dx * gc + dy * gs) > -dn
    return ax, ay, bx, by, inside


def anchor_points_forward(
    pose: Pose, goal: Pose, headway: float, tailway: float
) -> tuple[Vec2, Vec2]:
    """Headway point ahead of the pose and tailway point behind the goal."""
    return anchor_points(pose, goal, headway, tailway, 1.0)


def anchor_points_backward(
    pose: Pose, goal: Pose, back_tailway: float, back_headway: float
) -> tuple[Vec2, Vec2]:
    """Tailway point behind the pose and headway point ahead of the goal."""
    return anchor_points(pose, goal, back_tailway, back_headway, -1.0)


def control_law(rx, ry, L, cth, sth, cg, sg, ea, eb, s, gain):
    """Signed dual-headway control values (v, omega) and the anchor gap (ex, ey).

    (rx, ry) is the position relative to the goal and L > 0 its norm;
    (cth, sth) and (cg, sg) are the cosine and sine of the robot and goal
    headings; (ea, eb, s) come from direction_coefficients(). The gap
    (ex, ey) is the robot anchor minus the goal anchor, which the law drives
    to zero with first-order feedback. Only + - * / are applied, so the
    arguments may be floats or numpy arrays alike.
    """
    ex = rx + s * L * (ea * cth + eb * cg)
    ey = ry + s * L * (ea * sth + eb * sg)
    denom = 1.0 + s * ea * (rx * cth + ry * sth) / L
    v = -gain * (ex * cth + ey * sth) / denom
    w = -s * gain * (ey * cth - ex * sth) / (ea * L)
    return v, w, ex, ey


def in_domain(
    pose: Pose, goal: Pose, params: ControlParams, direction: str
) -> tuple[Vec2, Vec2] | None:
    """The anchor pair of direction if its controller keeps s v >= 0 and
    aligns at the goal (see domain_anchors), else None.

    The pair is the one the motion bound is built from, so callers need not
    construct it again; None is falsy, so the result also reads as a
    membership test.
    """
    ea, eb, s = direction_coefficients(params, direction)
    ax, ay, bx, by, inside = domain_anchors(
        *_xy_cos_sin(pose), *_xy_cos_sin(goal), ea, eb, s)
    return (Vec2(ax, ay), Vec2(bx, by)) if inside else None


def in_forward_domain(
    pose: Pose, goal: Pose, params: ControlParams
) -> tuple[Vec2, Vec2] | None:
    """Headway/tailway pair if the forward controller keeps v >= 0 and
    aligns at the goal, else None."""
    return in_domain(pose, goal, params, "forward")


def in_backward_domain(
    pose: Pose, goal: Pose, params: ControlParams
) -> tuple[Vec2, Vec2] | None:
    """Tailway/headway pair if the backward controller keeps v <= 0 and
    aligns at the goal, else None."""
    return in_domain(pose, goal, params, "backward")


def reached(x: float, y: float, th: float, goal: Pose, params: ControlParams) -> bool:
    """Whether (x, y, th), th unwrapped or not, is within tolerance of goal."""
    return (math.hypot(x - goal.x, y - goal.y) <= params.goal_tol
            and abs(wrap_angle(th - goal.theta)) <= params.angle_tol)


def rk4_step(x, y, th, cth, sth, v, w, h, trig=math):
    """One classical RK4 step of xdot = v o(theta), thetadot = omega.

    v and omega are held constant over the step, so this is Simpson's rule
    on the constant-twist arc with O(h^5) local error. (cth, sth) are the
    cosine and sine of th; trig is math for floats and numpy for arrays.
    Returns the new (x, y, theta), theta unwrapped.
    """
    th2 = th + 0.5 * h * w
    th4 = th + h * w
    x = x + h * v * (cth + 4.0 * trig.cos(th2) + trig.cos(th4)) / 6.0
    y = y + h * v * (sth + 4.0 * trig.sin(th2) + trig.sin(th4)) / 6.0
    return x, y, th4


@dataclass
class Trajectory:
    """Closed-loop rollout sampled at the integration step (or a stride of it).

    Row k holds the state at time t[k] and the controls held over the
    following step; the final converged row carries zero controls. An
    immediately-converged run has zero rows.
    """

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    theta: np.ndarray
    v: np.ndarray
    omega: np.ndarray
    converged: bool
    path_length: float
    total_turning: float
    duration: float
    direction: str

    @classmethod
    def from_rows(cls, rows, **totals) -> "Trajectory":
        """The trajectory of (t, x, y, theta, v, omega) rows and the other fields."""
        return cls(*np.array(rows, dtype=float).reshape(len(rows), 6).T, **totals)

    def __len__(self):
        return len(self.t)

    def pose(self, k: int) -> Pose:
        return Pose(float(self.x[k]), float(self.y[k]), float(self.theta[k]))


def simulate(
    start: Pose,
    goal: Pose,
    params: ControlParams,
    direction: str = "auto",
    record_stride: int = 1,
) -> Trajectory:
    """Integrate the closed loop until the goal pose is reached.

    direction selects the forward or backward controller; "auto" picks the
    domain containing the start and raises DomainError if neither does.
    Terminates when both the position and orientation tolerances hold, or
    raises NotConverged (carrying the partial trajectory) at the horizon.
    """
    if reached(start.x, start.y, start.theta, goal, params):
        return Trajectory.from_rows([], converged=True, path_length=0.0, total_turning=0.0,
                                    duration=0.0, direction=direction)
    if direction == "auto":
        if in_forward_domain(start, goal, params):
            direction = "forward"
        elif in_backward_domain(start, goal, params):
            direction = "backward"
        else:
            raise DomainError("start pose is in neither control domain")
    elif not in_domain(start, goal, params, direction):
        raise DomainError(f"start pose is not in the {direction} domain")

    ea, eb, s = direction_coefficients(params, direction)
    gain, h = params.gain, params.step
    cg, sg = math.cos(goal.theta), math.sin(goal.theta)
    nmax = int(math.ceil(params.horizon / h))

    x, y, th = start.x, start.y, start.theta
    rows: list[tuple[float, float, float, float, float, float]] = []
    path_length = 0.0
    total_turning = 0.0
    k = 0
    converged = False
    while True:
        t = k * h
        if reached(x, y, th, goal, params):
            converged = True
            rows.append((t, x, y, wrap_angle(th), 0.0, 0.0))
            break
        if k >= nmax:
            break
        rx, ry = x - goal.x, y - goal.y
        cth, sth = math.cos(th), math.sin(th)
        v, w, _, _ = control_law(rx, ry, math.hypot(rx, ry), cth, sth, cg, sg, ea, eb, s, gain)
        if k % record_stride == 0:
            rows.append((t, x, y, wrap_angle(th), v, w))
        x, y, th = rk4_step(x, y, th, cth, sth, v, w, h)
        path_length += abs(v) * h
        total_turning += abs(w) * h
        k += 1

    trajectory = Trajectory.from_rows(
        rows, converged=converged, path_length=path_length,
        total_turning=total_turning, duration=k * h, direction=direction,
    )
    if not converged:
        raise NotConverged(
            f"no convergence within horizon {params.horizon:.6g} s", trajectory
        )
    return trajectory


@dataclass
class BatchRollout:
    """Vectorized rollout results with per-step convergence monitors.

    Each row runs its own direction's controller, and its monitors are
    measured on that controller's anchor pair (headway-tailway forward,
    tailway-headway backward). max_dist_rise and max_pair_rise are the
    largest single-step increases of the distance to goal and of the
    anchor-pair distance; both stay <= ~0 on the control domains.
    lemma_margin is the largest value of dist*(1 - ea - eb) - pair_dist,
    which the anchor construction keeps <= 0. align_drop is the largest
    single-step drop of the normalized pair alignment with the goal heading;
    monotone alignment keeps it <= ~0, up to normalization noise as the pair
    collapses near the goal. A row that reaches the horizon keeps converged
    False and reports its state and monitors at t_final = ceil(horizon/step)
    * step.
    """

    converged: np.ndarray
    t_final: np.ndarray
    x: np.ndarray
    y: np.ndarray
    theta: np.ndarray
    path_length: np.ndarray
    total_turning: np.ndarray
    max_dist_rise: np.ndarray
    max_pair_rise: np.ndarray
    lemma_margin: np.ndarray
    align_drop: np.ndarray
    records: list | None = None


# row state a finished row reports unchanged in the BatchRollout field of that name
_REPORTED = ("x", "y", "path_length", "total_turning", "max_dist_rise",
             "max_pair_rise", "lemma_margin", "align_drop")


def rollout_batch(starts, goals, params: ControlParams, directions,
                  record_stride: int = 0) -> BatchRollout:
    """Simulate many closed loops at once with the scalar stepping semantics.

    starts and goals are (n, 3) arrays of poses. directions is one direction
    for every row or a sequence of one per row; each row runs with the
    (ea, eb, s) that direction_coefficients() gives its direction, so an
    unknown direction raises ValueError. Domain membership is the caller's
    responsibility. With record_stride > 0, per-row state snapshots
    (t, x, y, theta) are kept every record_stride steps and end with the
    row's final state.

    Agrees with simulate() step for step, and a row's result does not depend
    on the other rows of its call; both are tested.
    """
    starts = np.asarray(starts, dtype=float)
    goals = np.broadcast_to(np.asarray(goals, dtype=float), starts.shape)
    n = starts.shape[0]
    per_row = np.broadcast_to(np.asarray(directions, dtype=object), (n,))
    ea, eb, s = np.array([direction_coefficients(params, d) for d in per_row],
                         dtype=float).reshape(n, 3).T.copy()
    gain, h = params.gain, params.step
    goal_tol, angle_tol = params.goal_tol, params.angle_tol
    nmax = int(math.ceil(params.horizon / h))

    x, y, th = starts.T.copy()
    gx, gy, gth = goals.T.copy()
    # one array per row quantity, compacted together as rows converge;
    # theta is unwrapped, and the prev_* start where the first step's rise
    # is -inf, so a row's monitors begin with its second step
    st = {
        "i": np.arange(n), "x": x, "y": y, "theta": th,
        "gx": gx, "gy": gy, "gth": gth, "cg": np.cos(gth), "sg": np.sin(gth),
        "ea": ea, "eb": eb, "s": s, "lemma_factor": 1.0 - ea - eb,
        "path_length": np.zeros(n), "total_turning": np.zeros(n),
        "max_dist_rise": np.full(n, -np.inf), "max_pair_rise": np.full(n, -np.inf),
        "lemma_margin": np.full(n, -np.inf), "align_drop": np.full(n, -np.inf),
        "prev_dist": np.full(n, np.inf), "prev_pair": np.full(n, np.inf),
        "prev_align": np.full(n, -np.inf),
    }
    res = {name: np.zeros(n) for name in ("t_final", "theta") + _REPORTED}
    res["converged"] = np.zeros(n, dtype=bool)
    records = [[] for _ in range(n)] if record_stride else None

    def record(rows, t):
        for i, x_i, y_i, th_i in zip(st["i"][rows], st["x"][rows],
                                     st["y"][rows], st["theta"][rows]):
            records[i].append((t, x_i, y_i, wrap_angle(th_i)))

    def finish(rows, t, converged):
        i = st["i"][rows]
        res["converged"][i] = converged
        res["t_final"][i] = t
        res["theta"][i] = [wrap_angle(th) for th in st["theta"][rows]]
        for name in _REPORTED:
            res[name][i] = st[name][rows]
        if records is not None:
            record(rows, t)

    for k in range(nmax + 1):
        if st["i"].size == 0:
            break
        t = k * h
        st["rx"], st["ry"] = st["x"] - st["gx"], st["y"] - st["gy"]
        st["L"] = np.hypot(st["rx"], st["ry"])
        dth = (st["theta"] - st["gth"] + np.pi) % (2 * np.pi) - np.pi
        done = (st["L"] <= goal_tol) & (np.abs(dth) <= angle_tol)
        if done.any():
            finish(done, t, True)
            st = {key: a[~done] for key, a in st.items()}
        if k == nmax:
            finish(slice(None), t, False)
            break
        L, s, cg, sg = st["L"], st["s"], st["cg"], st["sg"]
        cth, sth = np.cos(st["theta"]), np.sin(st["theta"])
        v, w, ex, ey = control_law(st["rx"], st["ry"], L, cth, sth, cg, sg,
                                   st["ea"], st["eb"], s, gain)
        pair = np.hypot(ex, ey)
        align = -s * (ex * cg + ey * sg) / pair

        st["lemma_margin"] = np.maximum(st["lemma_margin"], L * st["lemma_factor"] - pair)
        st["max_dist_rise"] = np.maximum(st["max_dist_rise"], L - st["prev_dist"])
        st["max_pair_rise"] = np.maximum(st["max_pair_rise"], pair - st["prev_pair"])
        st["align_drop"] = np.maximum(st["align_drop"], st["prev_align"] - align)
        st["prev_dist"], st["prev_pair"], st["prev_align"] = L, pair, align

        if records is not None and k % record_stride == 0:
            record(slice(None), t)

        st["x"], st["y"], st["theta"] = rk4_step(st["x"], st["y"], st["theta"],
                                                 cth, sth, v, w, h, np)
        st["path_length"] = st["path_length"] + np.abs(v) * h
        st["total_turning"] = st["total_turning"] + np.abs(w) * h

    if records is not None:
        records = [np.array(r, dtype=float).reshape(len(r), 4) for r in records]
    return BatchRollout(**res, records=records)
