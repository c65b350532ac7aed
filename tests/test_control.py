import math
from dataclasses import fields

import numpy as np
import pytest

from uniplan.config import ControlParams
from uniplan.control import (
    BatchRollout,
    DomainError,
    NotConverged,
    Pose,
    Trajectory,
    anchor_points_backward,
    anchor_points_forward,
    control_law,
    direction_coefficients,
    in_backward_domain,
    in_forward_domain,
    rk4_step,
    rollout_batch,
    simulate,
)

PARAMS = ControlParams()
PI = math.pi


def law(pose, goal, params, direction):
    """(v, omega) of the signed control law at a pose, on floats."""
    rx, ry = pose.x - goal.x, pose.y - goal.y
    v, w, _, _ = control_law(
        rx, ry, math.hypot(rx, ry), math.cos(pose.theta), math.sin(pose.theta),
        math.cos(goal.theta), math.sin(goal.theta),
        *direction_coefficients(params, direction), params.gain,
    )
    return v, w


def random_domain_starts(rng, goal, n, direction, box=4.0):
    check = in_forward_domain if direction == "forward" else in_backward_domain
    out = []
    while len(out) < n:
        s = Pose(rng.uniform(-box, box), rng.uniform(-box, box),
                 rng.uniform(-PI, PI))
        if s.distance_to(goal) > 10 * PARAMS.goal_tol and check(s, goal, PARAMS):
            out.append(s)
    return out


class TestAnchors:
    def test_forward_aligned(self):
        head, tail_g = anchor_points_forward(Pose(0, 0, 0), Pose(1, 0, 0), 0.25, 0.25)
        assert (head.x, head.y) == pytest.approx((0.25, 0.0))
        assert (tail_g.x, tail_g.y) == pytest.approx((0.75, 0.0))

    def test_forward_vertical(self):
        head, tail_g = anchor_points_forward(
            Pose(0, 0, PI / 2), Pose(0, 2, PI / 2), 0.25, 0.25
        )
        assert (head.x, head.y) == pytest.approx((0.0, 0.5), abs=1e-15)
        assert (tail_g.x, tail_g.y) == pytest.approx((0.0, 1.5), abs=1e-15)

    def test_forward_degenerate(self):
        head, tail_g = anchor_points_forward(Pose(2, 3, 1), Pose(2, 3, -1), 0.25, 0.25)
        assert (head.x, head.y) == (2.0, 3.0)
        assert (tail_g.x, tail_g.y) == (2.0, 3.0)

    def test_backward_reversed(self):
        tail, head_g = anchor_points_backward(Pose(0, 0, PI), Pose(1, 0, PI), 0.25, 0.25)
        assert (tail.x, tail.y) == pytest.approx((0.25, 0.0), abs=1e-15)
        assert (head_g.x, head_g.y) == pytest.approx((0.75, 0.0), abs=1e-15)

    def test_backward_aligned_forward_heading(self):
        tail, head_g = anchor_points_backward(Pose(0, 0, 0), Pose(1, 0, 0), 0.25, 0.25)
        assert (tail.x, tail.y) == pytest.approx((-0.25, 0.0))
        assert (head_g.x, head_g.y) == pytest.approx((1.25, 0.0))

    def test_backward_degenerate(self):
        tail, head_g = anchor_points_backward(Pose(1, 1, 0), Pose(1, 1, 1), 0.25, 0.25)
        assert (tail.x, tail.y) == (1.0, 1.0)
        assert (head_g.x, head_g.y) == (1.0, 1.0)


class TestControlLaws:
    def test_forward_aligned_v(self):
        v, w = law(Pose(0, 0, 0), Pose(1, 0, 0), PARAMS, "forward")
        assert v == pytest.approx(2.0 / 3.0)
        assert w == pytest.approx(0.0, abs=1e-15)

    def test_forward_left_turn(self):
        _, w = law(Pose(0, 0, 0), Pose(0, 1, PI / 2), PARAMS, "forward")
        assert w == pytest.approx(3.0)

    def test_backward_reverses_straight(self):
        v, w = law(Pose(0, 0, PI), Pose(1, 0, PI), PARAMS, "backward")
        assert v == pytest.approx(-2.0 / 3.0)
        assert w == pytest.approx(0.0, abs=1e-12)

    def test_backward_mirror_identity(self, rng):
        # flipping both headings by pi maps the backward law onto (-v, omega)
        # of the forward law when the coefficient pairs coincide
        for _ in range(300):
            x, y, gx, gy = rng.uniform(-3, 3, 4)
            th, gth = rng.uniform(-PI, PI, 2)
            if math.hypot(x - gx, y - gy) < 1e-2:
                continue
            vf, wf = law(Pose(x, y, th), Pose(gx, gy, gth), PARAMS, "forward")
            vb, wb = law(Pose(x, y, th + PI), Pose(gx, gy, gth + PI), PARAMS,
                         "backward")
            assert vb == pytest.approx(-vf, abs=1e-12)
            assert wb == pytest.approx(wf, abs=1e-12)

    def test_forward_domain_examples(self):
        assert in_forward_domain(Pose(0, 0, 0), Pose(1, 0, 0), PARAMS)
        assert not in_forward_domain(Pose(0, 0, PI), Pose(1, 0, 0), PARAMS)
        assert not in_forward_domain(Pose(0, 0, 0), Pose(-1, 0, 0), PARAMS)

    def test_backward_domain_examples(self):
        assert in_backward_domain(Pose(0, 0, PI), Pose(1, 0, PI), PARAMS)
        assert not in_backward_domain(Pose(0, 0, 0), Pose(1, 0, 0), PARAMS)

    def test_domains_nearly_disjoint_ahead(self):
        # goal straight ahead, aligned approach: forward yes, backward no
        pose, goal = Pose(0, 0, 0), Pose(2, 0, 0)
        assert in_forward_domain(pose, goal, PARAMS)
        assert not in_backward_domain(pose, goal, PARAMS)

    def test_degenerate_pair_in_neither_domain(self):
        pose = Pose(0, 0, 0)
        assert not in_forward_domain(pose, pose, PARAMS)
        assert not in_backward_domain(pose, pose, PARAMS)

    def test_sign_equivalences(self, rng):
        # three equivalent characterizations of non-negative linear velocity
        n = 100_000
        x, y = rng.uniform(-5, 5, n), rng.uniform(-5, 5, n)
        th, gth = rng.uniform(-PI, PI, n), rng.uniform(-PI, PI, n)
        gx, gy = rng.uniform(-5, 5, n), rng.uniform(-5, 5, n)
        L = np.hypot(x - gx, y - gy)
        ok = L > 1e-9
        ea, eb = PARAMS.headway, PARAMS.tailway
        cth, sth = np.cos(th), np.sin(th)
        cg, sg = np.cos(gth), np.sin(gth)
        ex = (x - gx) + L * (ea * cth + eb * cg)
        ey = (y - gy) + L * (ea * sth + eb * sg)
        denom = 1.0 + ea * ((x - gx) * cth + (y - gy) * sth) / L
        v = -(ex * cth + ey * sth) / denom
        a = v >= 0
        b = -(ex * cth + ey * sth) >= 0
        c = ((gx - x) * cth + (gy - y) * sth) / L >= ea + eb * (cg * cth + sg * sth)
        assert np.array_equal(a[ok], b[ok])
        assert np.array_equal(b[ok], c[ok])


class TestIntegrateStep:
    def test_straight_line(self):
        p = rk4_step(0.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.1)
        assert p == pytest.approx((0.1, 0.0, 0.0))

    def test_pure_rotation(self):
        x, y, th = rk4_step(2.0, 3.0, 0.5, math.cos(0.5), math.sin(0.5), 0.0, 1.0, PI)
        assert (x, y) == (2.0, 3.0)
        # the heading is returned unwrapped
        assert th == pytest.approx(0.5 + PI)

    def test_matches_constant_twist_arc(self):
        # exact solution for v=1, omega=1 from theta=0 is (sin h, 1-cos h, h)
        for h in (0.2, 0.1, 0.05, 0.02):
            x, y, th = rk4_step(0.0, 0.0, 0.0, 1.0, 0.0, 1.0, 1.0, h)
            assert abs(x - math.sin(h)) < 2 * h**5
            assert abs(y - (1 - math.cos(h))) < 2 * h**5
            assert th == pytest.approx(h)


class TestSimulate:
    def test_aligned_colinear(self):
        t = simulate(Pose(0, 0, 0), Pose(1, 0, 0), PARAMS)
        assert t.converged
        assert abs(t.path_length - 1.0) <= 1e-3
        assert t.total_turning < 1e-6
        assert np.all(np.abs(t.omega) < 1e-12)

    def test_start_at_goal_is_empty(self):
        t = simulate(Pose(1, 2, 0.5), Pose(1, 2, 0.5), PARAMS)
        assert t.converged and len(t) == 0
        assert t.duration == 0.0

    def test_domain_error_outside_both(self):
        # the error names every direction tried, and only those
        with pytest.raises(DomainError, match="not in the forward or backward domain$"):
            simulate(Pose(0, 0, PI), Pose(1, 0, 0), PARAMS, direction="auto")
        with pytest.raises(DomainError, match="not in the backward domain$"):
            simulate(Pose(0, 0, PI), Pose(1, 0, 0), PARAMS, direction="backward")

    def test_horizon_error_carries_partial(self):
        short = ControlParams(horizon=0.01)
        with pytest.raises(NotConverged) as e:
            simulate(Pose(0, 0, 0), Pose(1, 0, 0), short)
        partial = e.value.trajectory
        assert isinstance(partial, Trajectory)
        assert not partial.converged and len(partial) > 0

    def test_monte_carlo_forward_convergence(self, rng):
        goal = Pose(0.5, -0.25, 0.3)
        starts = random_domain_starts(rng, goal, 100, "forward")
        arr = np.array([[s.x, s.y, s.theta] for s in starts])
        res = rollout_batch(arr, np.array([[goal.x, goal.y, goal.theta]]),
                            PARAMS, "forward")
        assert res.converged.all()
        final_err = np.hypot(res.x - goal.x, res.y - goal.y)
        assert (final_err < PARAMS.goal_tol).all()

    def test_record_stride(self):
        full = simulate(Pose(0, 0, 0), Pose(1, 0, 0), PARAMS)
        strided = simulate(Pose(0, 0, 0), Pose(1, 0, 0), PARAMS, record_stride=100)
        assert len(strided) == pytest.approx(len(full) / 100, rel=0.05)
        assert strided.path_length == full.path_length
        np.testing.assert_allclose(strided.x[:-1], full.x[:-1:100])


class TestBatchAgainstScalar:
    def test_unknown_direction_rejected(self):
        start = np.array([[0.0, 0.0, 0.0]])
        goal = np.array([[1.0, 0.0, 0.0]])
        for bad in ("forwards", "auto", ""):
            with pytest.raises(ValueError, match="unknown direction"):
                rollout_batch(start, goal, PARAMS, bad)
        with pytest.raises(ValueError, match="unknown direction"):
            simulate(Pose(0, 0, 0), Pose(1, 0, 0), PARAMS, direction="forwards")

    def test_law_same_on_floats_and_arrays(self, rng):
        # the one law serves scalar simulation, the executor and the batch
        # rollout: given the same L it must agree bit for bit
        n = 500
        rx, ry = rng.uniform(-3, 3, n), rng.uniform(-3, 3, n)
        L = np.hypot(rx, ry)
        th, gth = rng.uniform(-PI, PI, n), rng.uniform(-PI, PI, n)
        cth, sth, cg, sg = np.cos(th), np.sin(th), np.cos(gth), np.sin(gth)
        for direction in ("forward", "backward"):
            coeffs = direction_coefficients(PARAMS, direction)
            arrays = control_law(rx, ry, L, cth, sth, cg, sg, *coeffs, PARAMS.gain)
            for i in range(n):
                floats = control_law(float(rx[i]), float(ry[i]), float(L[i]),
                                     float(cth[i]), float(sth[i]), float(cg[i]),
                                     float(sg[i]), *coeffs, PARAMS.gain)
                assert floats == tuple(a[i] for a in arrays)

    def test_exact_agreement(self, rng):
        goal = Pose(0, 0, 0)
        for direction in ("forward", "backward"):
            starts = random_domain_starts(rng, goal, 10, direction, box=3.0)
            arr = np.array([[s.x, s.y, s.theta] for s in starts])
            res = rollout_batch(arr, np.array([[0.0, 0.0, 0.0]]), PARAMS, direction)
            for i, s in enumerate(starts):
                t = simulate(s, goal, PARAMS, direction=direction)
                assert res.converged[i]
                assert res.t_final[i] == pytest.approx(t.duration, abs=1e-12)
                fp = t.pose(-1)
                assert res.x[i] == pytest.approx(fp.x, abs=1e-12)
                assert res.y[i] == pytest.approx(fp.y, abs=1e-12)
                assert res.path_length[i] == pytest.approx(t.path_length, abs=1e-12)
                assert res.total_turning[i] == pytest.approx(t.total_turning, abs=1e-12)

    def test_mixed_directions_equal_single_calls(self, rng):
        # a row's result does not depend on the rows that share its call:
        # one call over interleaved forward and backward rows gives each row
        # exactly what its direction's own call gives it
        goal = [0.5, -0.25, 0.3]
        single = {}
        for direction in ("forward", "backward"):
            starts = random_domain_starts(rng, Pose(*goal), 8, direction, box=3.0)
            arr = np.array([[s.x, s.y, s.theta] for s in starts])
            single[direction] = arr, rollout_batch(arr, goal, PARAMS, direction,
                                                   record_stride=97)
        rows = [(d, i) for i in range(8) for d in ("backward", "forward")]
        mixed = rollout_batch(np.array([single[d][0][i] for d, i in rows]), goal,
                              PARAMS, [d for d, _ in rows], record_stride=97)
        assert mixed.converged.all()
        for field in fields(BatchRollout):
            got = getattr(mixed, field.name)
            for j, (d, i) in enumerate(rows):
                np.testing.assert_array_equal(
                    got[j], getattr(single[d][1], field.name)[i], err_msg=field.name)

    def test_rows_at_the_horizon(self):
        # rows still moving at the horizon keep converged False and report
        # the state, path, monitors and last record of step ceil(horizon/step)
        short = ControlParams(horizon=0.05)
        goal = Pose(1.0, 0.0, 0.0)
        starts = [Pose(0.0, 0.0, 0.0), Pose(1.0, 0.0, 0.0), Pose(2.0, 0.5, 0.2)]
        directions = ["forward", "forward", "backward"]
        assert in_backward_domain(starts[2], goal, short)
        res = rollout_batch([[s.x, s.y, s.theta] for s in starts],
                            [goal.x, goal.y, goal.theta], short, directions,
                            record_stride=1)
        t_end = math.ceil(short.horizon / short.step) * short.step
        assert res.converged.tolist() == [False, True, False]
        assert res.t_final[1] == 0.0 and res.path_length[1] == 0.0
        assert res.records[1].tolist() == [[0.0, 1.0, 0.0, 0.0]]
        for i in (0, 2):
            with pytest.raises(NotConverged) as e:
                simulate(starts[i], goal, short, direction=directions[i])
            partial = e.value.trajectory
            assert res.t_final[i] == t_end
            assert partial.duration == pytest.approx(t_end, abs=1e-12)
            assert res.path_length[i] == pytest.approx(partial.path_length, abs=1e-12)
            assert res.total_turning[i] == pytest.approx(partial.total_turning,
                                                         abs=1e-12)
            for name in ("max_dist_rise", "max_pair_rise", "lemma_margin",
                         "align_drop"):
                value = getattr(res, name)[i]
                assert np.isfinite(value) and value <= 1e-8, (name, value)
            rec = res.records[i]
            assert len(rec) == len(partial) + 1
            np.testing.assert_allclose(
                rec[:-1], np.column_stack([partial.t, partial.x, partial.y,
                                           partial.theta]), rtol=0, atol=1e-12)
            assert rec[-1].tolist() == [res.t_final[i], res.x[i], res.y[i],
                                        res.theta[i]]


class TestClosedLoopInvariants:
    """Numerical checks of the controller's monotone quantities."""

    def test_forward_monotone_and_bounded(self, rng):
        goal = Pose(0, 0, 0)
        starts = random_domain_starts(rng, goal, 200, "forward")
        arr = np.array([[s.x, s.y, s.theta] for s in starts])
        res = rollout_batch(arr, np.array([[0.0, 0.0, 0.0]]), PARAMS, "forward")
        assert res.converged.all()
        # headway-tailway distance strictly decreasing between samples
        assert res.max_pair_rise.max() <= 1e-8
        # distance to goal non-increasing under forward motion
        assert res.max_dist_rise.max() <= 1e-8
        # triangle-inequality bound of the anchor construction
        assert res.lemma_margin.max() <= 1e-12
        # alignment with the goal heading non-decreasing (normalization noise
        # grows as the anchor pair collapses near the goal, hence the scale)
        assert res.align_drop.max() <= 1e-5

    def test_backward_monotone_and_bounded(self, rng):
        goal = Pose(0, 0, 0)
        starts = random_domain_starts(rng, goal, 200, "backward")
        arr = np.array([[s.x, s.y, s.theta] for s in starts])
        res = rollout_batch(arr, np.array([[0.0, 0.0, 0.0]]), PARAMS, "backward")
        assert res.converged.all()
        assert res.max_pair_rise.max() <= 1e-8
        assert res.max_dist_rise.max() <= 1e-8
        assert res.lemma_margin.max() <= 1e-12
        assert res.align_drop.max() <= 1e-5

    def test_transient_backward_motion_turns_forward(self, rng):
        # from a pose with negative initial v (but not the symmetric case),
        # the unrestricted law reaches v >= 0 in finite time
        goal = Pose(0, 0, 0)
        found = 0
        for _ in range(2000):
            pose = Pose(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-PI, PI))
            if pose.distance_to(goal) < 0.5:
                continue
            head, tail_g = anchor_points_forward(pose, goal, PARAMS.headway, PARAMS.tailway)
            d = tail_g - head
            o = pose.heading()
            if not (-d.norm() < d.dot(o) < 0):
                continue
            found += 1
            t, became_forward = 0.0, False
            while t < PARAMS.horizon:
                v, w = law(pose, goal, PARAMS, "forward")
                if v >= 0:
                    became_forward = True
                    break
                th = pose.theta
                pose = Pose(*rk4_step(pose.x, pose.y, th, math.cos(th), math.sin(th),
                                      v, w, PARAMS.step))
                t += PARAMS.step
            assert became_forward, f"still reversing from {pose}"
            if found >= 50:
                break
        assert found >= 50

    def test_anchor_reference_dynamics_identity(self, rng):
        # the laws are constructed so the active anchor point moves with
        # first-order error feedback toward its opposing anchor: substituting
        # (v, omega) into the anchor velocity must give exactly
        # -gain * (anchor - opposing anchor), at any state away from the goal
        param_sets = [
            PARAMS,
            ControlParams(gain=2.5, headway=0.2, tailway=0.3,
                          back_tailway=0.2, back_headway=0.3),
        ]
        for trial in range(500):
            pose = Pose(rng.uniform(-4, 4), rng.uniform(-4, 4), rng.uniform(-PI, PI))
            goal = Pose(rng.uniform(-4, 4), rng.uniform(-4, 4), rng.uniform(-PI, PI))
            L = pose.distance_to(goal)
            if L < 1e-2:
                continue
            o = pose.heading()
            n = Pose(0, 0, pose.theta + PI / 2).heading()
            r_dot_o = ((pose.x - goal.x) * o.x + (pose.y - goal.y) * o.y) / L
            params = param_sets[trial % 2]

            v, w = law(pose, goal, params, "forward")
            head, tail_g = anchor_points_forward(pose, goal, params.headway,
                                                 params.tailway)
            scale = (1.0 + params.headway * r_dot_o) * v
            head_dot = (scale * o.x + params.headway * L * w * n.x,
                        scale * o.y + params.headway * L * w * n.y)
            assert head_dot[0] == pytest.approx(-params.gain * (head.x - tail_g.x), abs=1e-9)
            assert head_dot[1] == pytest.approx(-params.gain * (head.y - tail_g.y), abs=1e-9)

            v, w = law(pose, goal, params, "backward")
            tail, head_g = anchor_points_backward(pose, goal, params.back_tailway,
                                                  params.back_headway)
            scale = (1.0 - params.back_tailway * r_dot_o) * v
            tail_dot = (scale * o.x - params.back_tailway * L * w * n.x,
                        scale * o.y - params.back_tailway * L * w * n.y)
            assert tail_dot[0] == pytest.approx(-params.gain * (tail.x - head_g.x), abs=1e-9)
            assert tail_dot[1] == pytest.approx(-params.gain * (tail.y - head_g.y), abs=1e-9)

    def test_distance_decay_needs_forward_motion(self, rng):
        # spot-check Prop-5 style decay directly on the law: v > 0 at a
        # sample implies the instantaneous distance derivative is negative
        n = 50_000
        x, y = rng.uniform(-5, 5, n), rng.uniform(-5, 5, n)
        th, gth = rng.uniform(-PI, PI, n), rng.uniform(-PI, PI, n)
        L = np.hypot(x, y)
        ok = L > 1e-6
        cth, sth = np.cos(th), np.sin(th)
        cg, sg = np.cos(gth), np.sin(gth)
        ea, eb = PARAMS.headway, PARAMS.tailway
        ex = x + L * (ea * cth + eb * cg)
        ey = y + L * (ea * sth + eb * sg)
        denom = 1.0 + ea * (x * cth + y * sth) / L
        v = -(ex * cth + ey * sth) / denom
        ddist = (x * cth + y * sth) * v  # d/dt |x-g|^2 / 2 with g at origin
        mask = ok & (v > 1e-12)
        assert (ddist[mask] < 0).all()
