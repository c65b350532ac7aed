"""Compare executed motion quality across cost objectives on one scenario.

For each seed and objective, builds a motion graph and executes it closed
loop, then reports per-seed and median path length and total turning. A
seed that finds no path, or whose execution stops short of the goal, is
reported and left out of the medians.

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
    for objective in ("euclidean", "euccos", "dualhead"):
        lengths, turnings = [], []
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
            lengths.append(trajectory.path_length)
            turnings.append(trajectory.total_turning)
            print(f"{objective} seed {seed}: length {lengths[-1]:.3f} "
                  f"turning {turnings[-1]:.3f}")
        if lengths:
            print(f"== {objective}: median length {np.median(lengths):.3f} "
                  f"median turning {np.median(turnings):.3f} "
                  f"over {len(lengths)} of {args.seeds} seeds\n")


if __name__ == "__main__":
    main()
