"""Benchmark informed sampling and pruning against the plain planner.

Runs both modes with identical seeds and reports final costs, accepted
vertex counts, and the vertex count at which the informed run first matched
the plain run's final cost.

Usage: python scripts/informed_comparison.py [scenario] [--seeds N]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from uniplan.experiments import informed_comparison, with_planner
from uniplan.world import load_scenario


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("scenario", nargs="?",
                        default="scenarios/informed_corridor.json")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--heuristic", choices=["zero", "euclidean"],
                        default="euclidean")
    args = parser.parse_args()

    problem = load_scenario(args.scenario)
    for seed in range(args.seeds):
        r = informed_comparison(with_planner(problem, seed=seed), args.heuristic)
        off, inf = r["plain"], r["informed"]
        print(f"seed {seed}: plain cost {r['plain_cost']:.4f} ({off.alive_count} vertices) | "
              f"informed cost {r['informed_cost']:.4f} ({inf.alive_count} vertices, "
              f"{inf.rejected} rejected, matched plain at {r['matched_at']} vertices)")


if __name__ == "__main__":
    main()
