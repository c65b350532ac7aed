"""Kinematic unicycle model and the signed dual-headway pose controller.

The robot state is a planar pose (x, y, theta) with controls (v, omega) and
no sideways motion. The forward controller steers a headway point placed
ahead of the robot toward a tailway point placed behind the goal; the
backward controller is the same construction mirrored, with a tailway point
behind the robot and a headway point ahead of the goal. Both are one signed
construction: with L the distance to the goal and (ea, eb) the coefficient
pair of the direction, the robot anchor is x + s ea L o(theta) and the goal
anchor x_g - s eb L o(theta_g), where s = +1 forward and s = -1 backward.
The anchor pair, the domain test (on which the controller keeps
sign-definite linear velocity and terminal alignment), the control law and
the RK4 step are each written once; the law and the step use only
arithmetic, so scalar simulation, the vectorized batch rollout and the plan
executor share them.

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
    L = pose.distance_to(goal)
    o = pose.heading()
    og = goal.heading()
    a = Vec2(pose.x + s * ea * L * o.x, pose.y + s * ea * L * o.y)
    b = Vec2(goal.x - s * eb * L * og.x, goal.y - s * eb * L * og.y)
    return a, b


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
    aligns at the goal, else None.

    The conditions are evaluated on the anchor gap d = goal anchor - robot
    anchor: s d.o(theta) >= 0 and s d.o(theta_goal) > -|d|. A degenerate
    d = 0 belongs to neither restricted domain. The pair is the one the
    motion bound is built from, so callers need not construct it again;
    None is falsy, so the result also reads as a membership test.
    """
    ea, eb, s = direction_coefficients(params, direction)
    a, b = anchor_points(pose, goal, ea, eb, s)
    d = b - a
    dn = d.norm()
    if dn == 0.0:
        return None
    o, _ = heading_vectors(pose.theta)
    og, _ = heading_vectors(goal.theta)
    if s * d.dot(o) >= 0.0 and s * d.dot(og) > -dn:
        return a, b
    return None


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

    def __len__(self):
        return len(self.t)

    def pose(self, k: int) -> Pose:
        return Pose(float(self.x[k]), float(self.y[k]), float(self.theta[k]))

    def final_pose(self) -> Pose:
        return self.pose(-1)


def write_trajectory_csv(trajectory: Trajectory, path) -> None:
    """Write a trajectory as CSV with columns t,x,y,theta,v,omega."""
    with open(path, "w") as f:
        f.write("t,x,y,theta,v,omega\n")
        for k in range(len(trajectory)):
            f.write(
                f"{trajectory.t[k]:.12g},{trajectory.x[k]:.12g},"
                f"{trajectory.y[k]:.12g},{trajectory.theta[k]:.12g},"
                f"{trajectory.v[k]:.12g},{trajectory.omega[k]:.12g}\n"
            )


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
    if (
        start.distance_to(goal) <= params.goal_tol
        and abs(wrap_angle(start.theta - goal.theta)) <= params.angle_tol
    ):
        empty = np.zeros((0, 6))
        return Trajectory(
            t=empty[:, 0], x=empty[:, 1], y=empty[:, 2], theta=empty[:, 3],
            v=empty[:, 4], omega=empty[:, 5], converged=True,
            path_length=0.0, total_turning=0.0, duration=0.0, direction=direction,
        )
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
    gx, gy, gth = goal.x, goal.y, goal.theta
    cg, sg = math.cos(gth), math.sin(gth)
    goal_tol, angle_tol = params.goal_tol, params.angle_tol
    nmax = int(math.ceil(params.horizon / h))

    x, y, th = start.x, start.y, start.theta
    rows: list[tuple[float, float, float, float, float, float]] = []
    path_length = 0.0
    total_turning = 0.0
    k = 0
    converged = False
    while True:
        t = k * h
        rx, ry = x - gx, y - gy
        L = math.hypot(rx, ry)
        if L <= goal_tol and abs(wrap_angle(th - gth)) <= angle_tol:
            converged = True
            if k > 0:
                rows.append((t, x, y, wrap_angle(th), 0.0, 0.0))
            break
        if k >= nmax:
            break
        cth, sth = math.cos(th), math.sin(th)
        v, w, _, _ = control_law(rx, ry, L, cth, sth, cg, sg, ea, eb, s, gain)
        if k % record_stride == 0:
            rows.append((t, x, y, wrap_angle(th), v, w))
        x, y, th = rk4_step(x, y, th, cth, sth, v, w, h)
        path_length += abs(v) * h
        total_turning += abs(w) * h
        k += 1

    data = np.array(rows, dtype=float).reshape(len(rows), 6)
    trajectory = Trajectory(
        t=data[:, 0], x=data[:, 1], y=data[:, 2], theta=data[:, 3],
        v=data[:, 4], omega=data[:, 5],
        converged=converged, path_length=path_length,
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

    max_dist_rise and max_pair_rise are the largest single-step increases of
    the distance to goal and of the anchor-pair distance (headway-tailway
    forward, tailway-headway backward); both stay <= ~0 on the control
    domains. lemma_margin is the largest value of
    dist*(1 - ea - eb) - pair_dist, which the anchor construction keeps <= 0.
    align_drop is the largest single-step drop of the normalized pair
    alignment with the goal heading; monotone alignment keeps it <= ~0,
    up to normalization noise as the pair collapses near the goal.
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


def rollout_batch(
    starts,
    goals,
    params: ControlParams,
    direction: str,
    record_stride: int = 0,
) -> BatchRollout:
    """Simulate many closed loops at once with the scalar stepping semantics.

    starts and goals are (n, 3) arrays of poses. All rows use the same
    controller, and an unknown direction raises ValueError; domain
    membership is the caller's responsibility. With record_stride > 0,
    per-row state snapshots (t, x, y, theta) are kept every record_stride
    steps and returned truncated at convergence.

    Agrees with simulate() step for step; tested against it.
    """
    starts = np.asarray(starts, dtype=float)
    goals = np.broadcast_to(np.asarray(goals, dtype=float), starts.shape).copy()
    n = starts.shape[0]
    ea, eb, s = direction_coefficients(params, direction)
    gain, h = params.gain, params.step
    goal_tol, angle_tol = params.goal_tol, params.angle_tol
    nmax = int(math.ceil(params.horizon / h))

    x = starts[:, 0].copy()
    y = starts[:, 1].copy()
    th = starts[:, 2].copy()
    gx, gy, gth = goals[:, 0].copy(), goals[:, 1].copy(), goals[:, 2].copy()
    cg, sg = np.cos(gth), np.sin(gth)
    idx = np.arange(n)

    out = BatchRollout(
        converged=np.zeros(n, dtype=bool),
        t_final=np.full(n, np.nan),
        x=starts[:, 0].copy(), y=starts[:, 1].copy(), theta=starts[:, 2].copy(),
        path_length=np.zeros(n), total_turning=np.zeros(n),
        max_dist_rise=np.full(n, -np.inf), max_pair_rise=np.full(n, -np.inf),
        lemma_margin=np.full(n, -np.inf), align_drop=np.full(n, -np.inf),
        records=[[] for _ in range(n)] if record_stride else None,
    )

    path_len = np.zeros(n)
    turning = np.zeros(n)
    dist_rise = np.full(n, -np.inf)
    pair_rise = np.full(n, -np.inf)
    lemma = np.full(n, -np.inf)
    align_drop = np.full(n, -np.inf)
    prev_dist = np.full(n, np.nan)
    prev_pair = np.full(n, np.nan)
    prev_align = np.full(n, np.nan)
    lemma_factor = 1.0 - ea - eb

    def finish(rows, t):
        out.converged[idx[rows]] = True
        out.t_final[idx[rows]] = t
        out.x[idx[rows]] = x[rows]
        out.y[idx[rows]] = y[rows]
        out.theta[idx[rows]] = (th[rows] + np.pi) % (2 * np.pi) - np.pi
        out.path_length[idx[rows]] = path_len[rows]
        out.total_turning[idx[rows]] = turning[rows]
        out.max_dist_rise[idx[rows]] = dist_rise[rows]
        out.max_pair_rise[idx[rows]] = pair_rise[rows]
        out.lemma_margin[idx[rows]] = lemma[rows]
        out.align_drop[idx[rows]] = align_drop[rows]
        if out.records is not None:
            for i, x_i, y_i, th_i in zip(idx[rows], x[rows], y[rows], th[rows]):
                out.records[i].append((t, x_i, y_i, wrap_angle(th_i)))

    for k in range(nmax + 1):
        t = k * h
        if x.size == 0:
            break
        rx, ry = x - gx, y - gy
        L = np.hypot(rx, ry)
        dth = (th - gth + np.pi) % (2 * np.pi) - np.pi
        done = (L <= goal_tol) & (np.abs(dth) <= angle_tol)
        if done.any():
            finish(done, t)
            keep = ~done
            x, y, th = x[keep], y[keep], th[keep]
            gx, gy, gth, cg, sg = gx[keep], gy[keep], gth[keep], cg[keep], sg[keep]
            idx = idx[keep]
            path_len, turning = path_len[keep], turning[keep]
            dist_rise, pair_rise = dist_rise[keep], pair_rise[keep]
            lemma, align_drop = lemma[keep], align_drop[keep]
            prev_dist, prev_pair = prev_dist[keep], prev_pair[keep]
            prev_align = prev_align[keep]
            rx, ry, L = rx[keep], ry[keep], L[keep]
            if x.size == 0:
                break
        if k >= nmax:
            break
        cth, sth = np.cos(th), np.sin(th)
        v, w, ex, ey = control_law(rx, ry, L, cth, sth, cg, sg, ea, eb, s, gain)
        pair = np.hypot(ex, ey)
        align = -s * (ex * cg + ey * sg) / pair

        lemma = np.maximum(lemma, L * lemma_factor - pair)
        dist_rise = np.where(np.isnan(prev_dist), dist_rise,
                             np.maximum(dist_rise, L - prev_dist))
        pair_rise = np.where(np.isnan(prev_pair), pair_rise,
                             np.maximum(pair_rise, pair - prev_pair))
        align_drop = np.where(np.isnan(prev_align), align_drop,
                              np.maximum(align_drop, prev_align - align))
        prev_dist, prev_pair, prev_align = L, pair, align

        if record_stride and k % record_stride == 0:
            for i, x_i, y_i, th_i in zip(idx, x, y, th):
                out.records[i].append((t, x_i, y_i, wrap_angle(th_i)))

        x, y, th = rk4_step(x, y, th, cth, sth, v, w, h, np)
        path_len = path_len + np.abs(v) * h
        turning = turning + np.abs(w) * h

    if x.size:  # horizon hit: report final states, converged stays False
        out.t_final[idx] = nmax * h
        out.x[idx] = x
        out.y[idx] = y
        out.theta[idx] = (th + np.pi) % (2 * np.pi) - np.pi
        out.path_length[idx] = path_len
        out.total_turning[idx] = turning
        out.max_dist_rise[idx] = dist_rise
        out.max_pair_rise[idx] = pair_rise
        out.lemma_margin[idx] = lemma
        out.align_drop[idx] = align_drop
    if out.records is not None:
        out.records = [np.array(r, dtype=float).reshape(len(r), 4) for r in out.records]
    return out
