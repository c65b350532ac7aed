"""Kinematic unicycle model and the signed dual-headway pose controller.

The robot state is a planar pose (x, y, theta) with controls (v, omega) and
no sideways motion. The forward controller steers a headway point placed
ahead of the robot toward a tailway point placed behind the goal; the
backward controller is the same construction mirrored, with a tailway point
behind the robot and a headway point ahead of the goal. Both are one signed
construction: with L the distance to the goal and (ea, eb) the coefficient
pair of the direction, the robot anchor is x + s ea L o(theta) and the goal
anchor x_g - s eb L o(theta_g), where s = +1 forward and s = -1 backward.
A Pose carries its heading vector o(theta) as cos and sin, computed once
when it is built, and every reader of a pose's heading takes them from
there. The anchor pair and the domain test (on which the controller keeps
sign-definite linear velocity and terminal alignment) are one kernel on
plain floats, which the safety test calls directly and the Pose/Vec2
functions wrap; the control law, its one-goal form steer and the RK4 step
are each written once, so the vectorized batch rollout and the plan
executor share them. The goal-side products of the law are computed once
per goal (goal_terms), and each RK4 step returns the cosine and sine of its
new heading for the next step's law.

All control-law functions are pure; a rollout owns its own state and runs
single threaded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import ControlParams
from .geom import Vec2, wrap_angle


class DomainError(Exception):
    """Pose is not in the control domain required for the requested motion."""


@dataclass(frozen=True, slots=True)
class Pose:
    """Planar position (m) and heading angle wrapped into [-pi, pi).

    cos and sin are math.cos and math.sin of the wrapped theta, computed
    once at construction: the heading vector o(theta) every reader of the
    pose takes. They are not constructor arguments and take no part in
    repr, equality or hashing. The five fields live in slots, so a Pose
    keeps no instance dictionary.
    """

    x: float
    y: float
    theta: float
    cos: float = field(init=False, repr=False, compare=False)
    sin: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        theta = wrap_angle(self.theta)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "cos", math.cos(theta))
        object.__setattr__(self, "sin", math.sin(theta))

    @property
    def position(self) -> Vec2:
        return Vec2(self.x, self.y)

    def heading(self) -> Vec2:
        return Vec2(self.cos, self.sin)

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


def _pose_anchors(pose: Pose, goal: Pose, ea: float, eb: float,
                  s: float) -> tuple[Vec2, Vec2, bool]:
    """domain_anchors of two Poses: the anchor pair as Vec2 and the inside flag."""
    ax, ay, bx, by, inside = domain_anchors(
        pose.x, pose.y, pose.cos, pose.sin, goal.x, goal.y, goal.cos, goal.sin, ea, eb, s)
    return Vec2(ax, ay), Vec2(bx, by), inside


def anchor_points_forward(
    pose: Pose, goal: Pose, headway: float, tailway: float
) -> tuple[Vec2, Vec2]:
    """Headway point ahead of the pose and tailway point behind the goal."""
    return _pose_anchors(pose, goal, headway, tailway, 1.0)[:2]


def anchor_points_backward(
    pose: Pose, goal: Pose, back_tailway: float, back_headway: float
) -> tuple[Vec2, Vec2]:
    """Tailway point behind the pose and headway point ahead of the goal."""
    return _pose_anchors(pose, goal, back_tailway, back_headway, -1.0)[:2]


def goal_terms(cg, sg, ea, eb, s, gain):
    """The goal-side factors of control_law, computed once per goal.

    (cg, sg) are the cosine and sine of the goal heading and (ea, eb, s) the
    direction's coefficients. Returns (s, ea, eb cg, eb sg, s ea, -s gain,
    -gain), the arguments control_law takes after the heading; floats or
    numpy arrays alike.
    """
    return s, ea, eb * cg, eb * sg, s * ea, -s * gain, -gain


def control_law(rx, ry, L, cth, sth, s, ea, ebc, ebs, sea, nsg, ngain):
    """Signed dual-headway control values (v, omega).

    (rx, ry) is the position relative to the goal and L > 0 its norm;
    (cth, sth) are the cosine and sine of the robot heading, and the rest
    are the goal's goal_terms(). The law drives the gap (ex, ey), the robot
    anchor minus the goal anchor, to zero with first-order feedback.
    Only + - * / are applied, so the arguments may be floats or numpy arrays
    alike.
    """
    sL = s * L
    ex = rx + sL * (ea * cth + ebc)
    ey = ry + sL * (ea * sth + ebs)
    denom = 1.0 + sea * (rx * cth + ry * sth) / L
    v = ngain * (ex * cth + ey * sth) / denom
    w = nsg * (ey * cth - ex * sth) / (ea * L)
    return v, w


def aim_at(target: Pose, direction: str, params: ControlParams) -> tuple:
    """(x, y, goal_terms) of target for the controller of direction: what
    steer needs of a goal, computed once when the goal is chosen."""
    return target.x, target.y, goal_terms(
        target.cos, target.sin, *direction_coefficients(params, direction), params.gain)


def steer(x: float, y: float, cth: float, sth: float, aim: tuple) -> tuple[float, float]:
    """Control (v, omega) at (x, y) toward the goal of aim (see aim_at).

    (cth, sth) are the cosine and sine of the heading, which the caller
    carries from its last RK4 step. No domain test runs here: the caller
    checked the domain (or the safety hull) once, when it chose the goal.
    """
    gx, gy, terms = aim
    rx, ry = x - gx, y - gy
    return control_law(rx, ry, math.hypot(rx, ry), cth, sth, *terms)


def in_forward_domain(
    pose: Pose, goal: Pose, params: ControlParams
) -> tuple[Vec2, Vec2] | None:
    """Headway/tailway pair if the forward controller keeps v >= 0 and
    aligns at the goal, else None."""
    a, b, inside = _pose_anchors(pose, goal, *direction_coefficients(params, "forward"))
    return (a, b) if inside else None


def in_backward_domain(
    pose: Pose, goal: Pose, params: ControlParams
) -> tuple[Vec2, Vec2] | None:
    """Tailway/headway pair if the backward controller keeps v <= 0 and
    aligns at the goal, else None."""
    a, b, inside = _pose_anchors(pose, goal, *direction_coefficients(params, "backward"))
    return (a, b) if inside else None


def reached(x: float, y: float, th: float, goal: Pose, params: ControlParams) -> bool:
    """Whether (x, y, th), th unwrapped or not, is within tolerance of goal."""
    return (math.hypot(x - goal.x, y - goal.y) <= params.goal_tol
            and abs(wrap_angle(th - goal.theta)) <= params.angle_tol)


def rk4_step(x, y, th, cth, sth, hv, hw, trig=math):
    """One classical RK4 step of xdot = v o(theta), thetadot = omega.

    v and omega are held constant over the step h, so this is Simpson's
    rule on the constant-twist arc with O(h^5) local error. (cth, sth) are
    the cosine and sine of th, hv = h v and hw = h omega; trig is math for
    floats and numpy for arrays. Returns the new (x, y, theta), theta
    unwrapped, and the cosine and sine of that theta, which the next step's
    control law takes as its own.
    """
    th2 = th + 0.5 * hw
    th4 = th + hw
    c4, s4 = trig.cos(th4), trig.sin(th4)
    x = x + hv * (cth + 4.0 * trig.cos(th2) + c4) / 6.0
    y = y + hv * (sth + 4.0 * trig.sin(th2) + s4) / 6.0
    return x, y, th4, c4, s4


@dataclass
class BatchRollout:
    """Vectorized rollout results: each row's final state, path and turning.

    x, y and theta (wrapped) are a row's final pose, path_length and
    total_turning the sums of |v| h and |omega| h over its steps. A row that
    reaches the horizon keeps converged False and reports its state at
    t_final = ceil(horizon/step) * step.
    """

    converged: np.ndarray
    t_final: np.ndarray
    x: np.ndarray
    y: np.ndarray
    theta: np.ndarray
    path_length: np.ndarray
    total_turning: np.ndarray
    records: list | None = None


# row state a finished row reports unchanged in the BatchRollout field of that name
_REPORTED = ("x", "y", "path_length", "total_turning")


def rollout_batch(starts, goals, params: ControlParams, directions,
                  record_stride: int = 0) -> BatchRollout:
    """Simulate many closed loops at once with the scalar stepping semantics.

    starts and goals are (n, 3) arrays of poses. directions is one direction
    for every row or a sequence of one per row; each row runs with the
    (ea, eb, s) that direction_coefficients() gives its direction, so an
    unknown direction raises ValueError. Domain membership is the caller's
    responsibility. With record_stride > 0, per-row state snapshots
    (t, x, y, theta) are kept every record_stride steps and end with the
    row's final state; 0 keeps none, and a stride below 0 raises ValueError.

    Each row's goal_terms are computed once, and each step's RK4 cosine and
    sine feed the next step's control law. The heading half of the
    tolerance test (the wrapped heading error) runs only on steps where
    some row is within goal_tol; the rows it finishes are the same.

    Follows the scalar closed loop of execute() on a one-edge graph step
    for step, and a row's result does not depend on the other rows of its
    call; both are tested.
    """
    if record_stride < 0:
        raise ValueError(f"record_stride must be >= 0 (got {record_stride})")
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
    cg, sg = np.cos(gth), np.sin(gth)
    s, ea, ebc, ebs, sea, nsg, ngain = goal_terms(cg, sg, ea, eb, s, gain)
    # one array per row quantity, compacted together as rows converge;
    # theta is unwrapped and (cth, sth) are its cosine and sine
    st = {
        "i": np.arange(n), "x": x, "y": y, "theta": th,
        "cth": np.cos(th), "sth": np.sin(th), "gx": gx, "gy": gy, "gth": gth,
        "s": s, "ea": ea, "ebc": ebc, "ebs": ebs, "sea": sea, "nsg": nsg,
        "path_length": np.zeros(n), "total_turning": np.zeros(n),
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
        near = st["L"] <= goal_tol
        if near.any():
            dth = (st["theta"] - st["gth"] + np.pi) % (2 * np.pi) - np.pi
            done = near & (np.abs(dth) <= angle_tol)
            if done.any():
                finish(done, t, True)
                st = {key: a[~done] for key, a in st.items()}
        if k == nmax:
            finish(slice(None), t, False)
            break
        L, cth, sth = st["L"], st["cth"], st["sth"]
        v, w = control_law(st["rx"], st["ry"], L, cth, sth, st["s"], st["ea"],
                           st["ebc"], st["ebs"], st["sea"], st["nsg"], ngain)

        if records is not None and k % record_stride == 0:
            record(slice(None), t)

        hv, hw = h * v, h * w
        st["x"], st["y"], st["theta"], st["cth"], st["sth"] = rk4_step(
            st["x"], st["y"], st["theta"], cth, sth, hv, hw, np)
        st["path_length"] = st["path_length"] + np.abs(hv)
        st["total_turning"] = st["total_turning"] + np.abs(hw)

    if records is not None:
        records = [np.array(r, dtype=float).reshape(len(r), 4) for r in records]
    return BatchRollout(**res, records=records)
