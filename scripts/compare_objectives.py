"""Compare executed motion quality across cost objectives on one scenario.

For each seed and objective, builds a motion graph and executes it closed
loop, then reports per-seed and median path length and total turning. A
seed that finds no path, or whose execution stops short of the goal, is
reported; the medians cover only the seeds that every objective executed,
so each objective is summarised over the same seeds.

Usage: python scripts/compare_objectives.py [scenario] [--seeds N] [--samples N]
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from uniplan.executor import DisconnectedError, ExecutionHorizonError
from uniplan.experiments import plan_and_execute, with_planner
from uniplan.world import load_scenario


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("scenario", nargs="?",
                        default="scenarios/three_obstacles.json")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--samples", type=int, default=None)
    args = parser.parse_args(argv)

    problem = with_planner(load_scenario(args.scenario), samples=args.samples)
    objectives = ("euclidean", "euccos", "dualhead")
    results = {}  # objective -> {seed: (path length, total turning)}
    for objective in objectives:
        results[objective] = executed = {}
        for seed in range(args.seeds):
            try:
                _, trajectory = plan_and_execute(
                    with_planner(problem, objective=objective, seed=seed))
            except (DisconnectedError, ExecutionHorizonError) as e:
                print(f"{objective} seed {seed}: not executed: {e}")
                continue
            if trajectory is None:
                print(f"{objective} seed {seed}: no path")
                continue
            executed[seed] = trajectory.path_length, trajectory.total_turning
            print(f"{objective} seed {seed}: length {trajectory.path_length:.3f} "
                  f"turning {trajectory.total_turning:.3f}")
    common = sorted(set.intersection(*map(set, results.values())))
    if not common:
        print("== no seed was executed by every objective")
        return
    for objective in objectives:
        lengths, turnings = zip(*(results[objective][seed] for seed in common))
        print(f"== {objective}: median length {np.median(lengths):.3f} "
              f"median turning {np.median(turnings):.3f} "
              f"over {len(common)} of {args.seeds} seeds")


if __name__ == "__main__":
    main()
