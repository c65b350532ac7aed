"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Heavy artifacts (planner runs, executions) are shared
through session fixtures. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from uniplan.cli import main as cli_main
from uniplan.config import ControlParams
from uniplan.control import (
    Pose,
    anchor_points_backward,
    anchor_points_forward,
    in_backward_domain,
    in_forward_domain,
    rollout_batch,
)
from uniplan.experiments import (
    informed_comparison,
    plan_and_execute,
    turning_correlations,
    with_planner,
)
from uniplan.geom import Ball, convex_hull, hull_contains_points
from uniplan.metrics import (
    dualhead_orientation,
    dualhead_translation,
    euccos,
    headtail,
    kappa_anchors,
    objective_distance,
)
from uniplan.planner import build_tree
from uniplan.world import load_scenario

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
PARAMS = ControlParams()
KAPPA = 1.0 / 3.0
PI = math.pi
SEEDS = range(10)


def report(criterion: int, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def domain_conditioned_starts(rng, goal, n, direction, box=4.0):
    check = in_forward_domain if direction == "forward" else in_backward_domain
    out = []
    while len(out) < n:
        pose = Pose(rng.uniform(-box, box), rng.uniform(-box, box),
                    rng.uniform(-PI, PI))
        if check(pose, goal, PARAMS):
            out.append((pose.x, pose.y, pose.theta))
    return np.array(out)


@pytest.fixture(scope="session")
def empty_world_runs():
    runs = []
    for seed in SEEDS:
        problem = with_planner(load_scenario(SCENARIOS / "empty_10x10.json"), seed=seed)
        runs.append((problem, build_tree(problem)))
    return runs


@pytest.fixture(scope="session")
def slalom_runs():
    """Plans and executions on the three-obstacle scenario, both objectives."""
    runs = {}
    for objective in ("dualhead", "euclidean"):
        per_seed = []
        for seed in SEEDS:
            problem = with_planner(load_scenario(SCENARIOS / "three_obstacles.json"),
                                   objective=objective, seed=seed)
            graph, trajectory = plan_and_execute(problem)
            assert trajectory is not None, f"no path for {objective} seed {seed}"
            per_seed.append((problem, graph, trajectory))
        runs[objective] = per_seed
    return runs


@pytest.fixture(scope="session")
def informed_runs():
    problem = load_scenario(SCENARIOS / "informed_corridor.json")
    return [informed_comparison(with_planner(problem, seed=seed), "euclidean")
            for seed in SEEDS]


class TestCriterion1:
    def test_controller_convergence(self, rng):
        results = {}
        for direction in ("forward", "backward"):
            goal = Pose(0.0, 0.0, 0.0)
            starts = domain_conditioned_starts(rng, goal, 1000, direction)
            res = rollout_batch(starts, np.array([[0.0, 0.0, 0.0]]),
                                PARAMS, direction)
            final_pos = np.hypot(res.x, res.y)
            final_ang = np.abs((res.theta + PI) % (2 * PI) - PI)
            results[direction] = (
                res.converged.all()
                and (final_pos < 1e-3).all()
                and (final_ang < 1e-2).all()
                and res.max_pair_rise.max() <= 1e-8
                and res.max_dist_rise.max() <= 1e-8
                and res.lemma_margin.max() <= 1e-12
            )
        ok = all(results.values())
        report(1, ok, "1000 forward + 1000 backward random domain starts all "
                      "converge with monotone anchor-pair and goal distances "
                      f"(forward={results['forward']}, backward={results['backward']})")


class TestCriterion2:
    def test_sign_equivalences(self, rng):
        n = 100_000
        x, y = rng.uniform(-5, 5, n), rng.uniform(-5, 5, n)
        th = rng.uniform(-PI, PI, n)
        gx, gy = rng.uniform(-5, 5, n), rng.uniform(-5, 5, n)
        gth = rng.uniform(-PI, PI, n)
        L = np.hypot(x - gx, y - gy)
        valid = L > 1e-9
        ea, eb = PARAMS.headway, PARAMS.tailway
        cth, sth = np.cos(th), np.sin(th)
        cg, sg = np.cos(gth), np.sin(gth)
        # the control law's v sign, the anchor-gap sign, and the explicit
        # threshold form, all three evaluated independently
        ex = (x - gx) + L * (ea * cth + eb * cg)
        ey = (y - gy) + L * (ea * sth + eb * sg)
        denom = 1.0 + ea * ((x - gx) * cth + (y - gy) * sth) / L
        v = -PARAMS.gain * (ex * cth + ey * sth) / denom
        a = v >= 0
        b = (-ex * cth - ey * sth) >= 0
        c = ((gx - x) * cth + (gy - y) * sth) / L >= ea + eb * (cg * cth + sg * sth)
        mismatches = int((a[valid] != b[valid]).sum() + (b[valid] != c[valid]).sum())
        report(2, mismatches == 0,
               f"three-way velocity-sign equivalence on {valid.sum()} random "
               f"states, {mismatches} violations")


class TestCriterion3:
    def _bound_points(self, x, y, th, gx, gy, gth, direction):
        pose, goal = Pose(x, y, th), Pose(gx, gy, gth)
        if direction == "forward":
            a, b = anchor_points_forward(pose, goal, PARAMS.headway, PARAMS.tailway)
        else:
            a, b = anchor_points_backward(pose, goal, PARAMS.back_tailway,
                                          PARAMS.back_headway)
        return [pose.position, a, b, goal.position]

    def test_prediction_soundness_and_inclusion(self, rng):
        violations = 0
        checked_pairs = 0
        for direction in ("forward", "backward"):
            goals = []
            starts = []
            while len(starts) < 100:
                gth = rng.uniform(-PI, PI)
                goal = Pose(0.0, 0.0, gth)
                pose = Pose(rng.uniform(-4, 4), rng.uniform(-4, 4),
                            rng.uniform(-PI, PI))
                check = in_forward_domain if direction == "forward" else in_backward_domain
                if pose.distance_to(goal) > 0.2 and check(pose, goal, PARAMS):
                    starts.append([pose.x, pose.y, pose.theta])
                    goals.append([0.0, 0.0, gth])
            res = rollout_batch(np.array(starts), np.array(goals), PARAMS,
                                direction, record_stride=50)
            assert res.converged.all()
            for row, rec in enumerate(res.records):
                gx, gy, gth = goals[row]
                K = len(rec)
                dist = np.hypot(rec[:, 1] - gx, rec[:, 2] - gy)
                run_min = np.minimum.accumulate(dist)
                # ball soundness: later positions inside every earlier ball
                if np.any(dist[1:] > run_min[:-1] + 1e-6):
                    violations += 1
                hulls = []
                for k in range(K):
                    if dist[k] <= PARAMS.goal_tol:
                        break
                    hulls.append(
                        (k, convex_hull(self._bound_points(
                            rec[k, 1], rec[k, 2], rec[k, 3], gx, gy, gth,
                            direction)))
                    )
                vert_x = [np.array([v.x for v in h.vertices]) for _, h in hulls]
                vert_y = [np.array([v.y for v in h.vertices]) for _, h in hulls]
                for idx, (k, hull) in enumerate(hulls):
                    xs = rec[k + 1:, 1]
                    ys = rec[k + 1:, 2]
                    if not hull_contains_points(hull, xs, ys, 1e-6).all():
                        violations += 1
                    later_x = vert_x[idx + 1:]
                    if later_x:
                        lx = np.concatenate(later_x)
                        ly = np.concatenate(vert_y[idx + 1:])
                        if not hull_contains_points(hull, lx, ly, 1e-6).all():
                            violations += 1
                    checked_pairs += len(xs)
        report(3, violations == 0,
               f"200 trajectories, {checked_pairs} sample-in-earlier-bound "
               f"checks plus hull nesting, {violations} violations")


class TestCriterion4:
    def test_distance_identities(self, rng):
        n = 100_000
        poses = rng.uniform(-8, 8, (n, 2))
        hats = rng.uniform(-8, 8, (n, 2))
        th = rng.uniform(-PI, PI, n)
        hth = rng.uniform(-PI, PI, n)
        bad_identity = bad_sym = bad_bounds = bad_paths = 0
        for i in range(n):
            p = Pose(poses[i, 0], poses[i, 1], th[i])
            q = Pose(hats[i, 0], hats[i, 1], hth[i])
            L = p.distance_to(q)
            if L < 1e-9:
                continue
            ht = headtail(p, q, KAPPA)
            do = dualhead_orientation(p, q, KAPPA)
            dt = dualhead_translation(p, q, KAPPA)
            ec = euccos(p, q)
            if abs(ht / L - 1 + 2 * KAPPA - do) > 1e-12:
                bad_identity += 1
            if (
                abs(dt - dualhead_translation(q, p, KAPPA)) > 1e-12
                or abs(do - dualhead_orientation(q, p, KAPPA)) > 1e-12
                or abs(ht - headtail(q, p, KAPPA)) > 1e-12
            ):
                bad_sym += 1
            m = ht / L
            if not (
                L - 1e-12 <= ec <= 3 * L + 1e-12
                and 1 - 1e-12 <= dt / L <= 1 + 4 * KAPPA + 1e-12
                and -1e-12 <= do <= 4 * KAPPA + 1e-12
                and 1 - 2 * KAPPA - 1e-12 <= m <= 1 + 2 * KAPPA + 1e-12
                and L <= dt + 1e-12
            ):
                bad_bounds += 1
            head_p, tail_p, head_q, tail_q = kappa_anchors(p, q, KAPPA)
            pp, qq = p.position, q.position
            via_head = ((pp - head_p).norm() + (head_p - tail_q).norm()
                        + (tail_q - qq).norm())
            via_tail = ((pp - tail_p).norm() + (tail_p - head_q).norm()
                        + (head_q - qq).norm())
            if abs(dt - min(via_head, via_tail)) > 1e-12:
                bad_paths += 1
        ok = bad_identity == bad_sym == bad_bounds == bad_paths == 0
        report(4, ok,
               f"{n} random pairs: orientation identity ({bad_identity} bad), "
               f"symmetry ({bad_sym} bad), range bounds ({bad_bounds} bad), "
               f"two-path minimum ({bad_paths} bad)")


class TestCriterion5:
    def test_planner_optimality(self, empty_world_runs):
        wd = objective_distance("dualhead", 1.0, 10.0, KAPPA)
        bound = 1.05 * wd.value(Pose(1, 5, 0), Pose(9, 5, 0))
        costs = []
        monotone = True
        for problem, graph in empty_world_runs:
            assert graph.goal_index is not None
            costs.append(graph.cost_to_come(graph.goal_index))
            series = np.array(graph.iteration_costs)
            finite = np.isfinite(series)
            monotone &= bool(np.all(np.diff(series[finite]) <= 1e-12))
        ok = max(costs) <= bound and monotone
        report(5, ok,
               f"10 seeds, worst cost {max(costs):.3f} <= {bound:.3f} "
               f"(1.05x direct weighted distance), goal cost monotone={monotone}")


class TestCriterion6:
    def test_objective_comparison(self, slalom_runs):
        turning = {
            obj: np.median([t.total_turning for _, _, t in runs])
            for obj, runs in slalom_runs.items()
        }
        length = {
            obj: np.median([t.path_length for _, _, t in runs])
            for obj, runs in slalom_runs.items()
        }
        ratio = max(length.values()) / min(length.values())
        ok = turning["dualhead"] < turning["euclidean"] and ratio <= 1.15
        report(6, ok,
               f"median executed turning dualhead {turning['dualhead']:.2f} < "
               f"euclidean+cosine {turning['euclidean']:.2f}; median lengths "
               f"{length['dualhead']:.2f} vs {length['euclidean']:.2f} "
               f"(ratio {ratio:.3f} <= 1.15)")


class TestCriterion7:
    def test_turning_sweep_correlation(self):
        cells, rho = turning_correlations(64, PARAMS, KAPPA)
        live = sum("total_turning" in c for c in cells)
        rho_dh, rho_cos = rho["dualhead_orient"], rho["cosine"]
        ok = rho_dh >= rho_cos + 0.1
        report(7, ok,
               f"64x64 sweep ({live} domain cells): spearman "
               f"dualhead_orient {rho_dh:.3f} vs cosine {rho_cos:.3f} "
               f"(gap {rho_dh - rho_cos:.3f} >= 0.1)")


class TestCriterion8:
    def test_informed_sampling_and_pruning(self, informed_runs):
        worst_frac = 0.0
        never_worse = True
        for r in informed_runs:
            assert math.isfinite(r["plain_cost"]) and math.isfinite(r["informed_cost"])
            never_worse &= r["informed_cost"] <= r["plain_cost"] + 1e-12
            frac = (r["matched_at"] / r["plain"].iteration_vertices[-1]
                    if r["matched_at"] is not None else math.inf)
            worst_frac = max(worst_frac, frac)
        # pruning safety is asserted inside prune() at every insertion of
        # every informed run; reaching this point means no assert fired
        ok = never_worse and worst_frac <= 0.70
        report(8, ok,
               f"10 seeds: informed-euclidean matches the uninformed final "
               f"cost using at worst {worst_frac:.1%} of its accepted "
               f"vertices (<= 70%), never worse={never_worse}, pruning "
               f"never removed a best-path vertex (asserted per insertion)")


class TestCriterion9:
    def test_executed_clearance(self, slalom_runs):
        worst = math.inf
        samples = 0
        for runs in slalom_runs.values():
            for problem, _, trajectory in runs:
                rho = problem.world.robot_radius
                for ob in problem.world.obstacles:
                    assert isinstance(ob, Ball)
                    d = np.hypot(trajectory.x - ob.center.x,
                                 trajectory.y - ob.center.y) - ob.radius
                    worst = min(worst, float(d.min()))
                    samples += len(trajectory.x)
        ok = worst > rho - 1e-6
        report(9, ok,
               f"{samples} executed samples across 20 runs keep clearance "
               f"{worst:.4f} > robot radius {rho} - 1e-6")


class TestCriterion10:
    def test_plan_determinism(self, tmp_path):
        scenario = SCENARIOS / "three_obstacles.json"
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = cli_main(["plan", str(scenario), "--seed", "123",
                             "--out", str(out)])
            assert code == 0
            outs.append((out / "graph.json").read_bytes())
        ok = outs[0] == outs[1]
        report(10, ok, f"two plan runs with seed 123 produce byte-identical "
                       f"graph dumps ({len(outs[0])} bytes)")
