"""uniplan benchmark: plan, execute and sweep end to end, per-layer when traced.

Run every workload, each in its own process:

    python3 perfbench/run.py

or one workload:

    python3 perfbench/run.py --workload cluttered_10k --seed 0 --seconds 25 --trace 0

With --trace 0 the run repeats rounds of the workload in a closed loop (one
process, one thread, each operation after the previous one) until the next
round would pass --seconds, and reports the end-to-end metrics. With
--trace 1 it runs one untraced and one traced round and reports the
per-layer metrics. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import (
    FULL_SIZE,
    SCENARIOS,
    SMOKE_SIZE,
    WORKLOADS,
    check,
    load_references,
    planner_seeds,
    round_ops,
    run_op,
    warmup_ops,
)

# one BLAS thread; set before numpy is first imported, which is in main()
PINNED_THREADS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(PINNED_THREADS)

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
YARDSTICK_REPEATS = 25  # about 1 s per yardstick sample
SELF_TIME_TOLERANCE = 1e-3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS,
                   help="run one workload in this process (default: all, one process each)")
    p.add_argument("--seed", type=int, default=0,
                   help="workload seed; picks the planner seeds (default 0)")
    p.add_argument("--seconds", type=float, default=25.0,
                   help="measuring time of a --trace 0 run (at least one round runs)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="reduced sizes (200 or 400 samples, grid 6) for the benchmark's own tests")
    return p.parse_args(argv)


def run_all(args) -> int:
    """Each workload in a child process, so memory and set-up are its own."""
    status = 0
    for workload in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {workload}", flush=True)
        status |= subprocess.run(argv + (["--smoke"] if args.smoke else [])).returncode
    return status


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None, "note": "not a git checkout"}
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30, check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                                "--untracked-files=no"], capture_output=True, text=True,
                               timeout=30, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError) as e:
        return {"sha": None, "dirty": None, "note": f"git failed: {e}"}
    return {"sha": sha, "dirty": bool(dirty)}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_info(workload: str, seed: int) -> dict:
    import numpy

    return {
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git": git_state(),
        "run_seed": seed,
        "planner_seeds": planner_seeds(workload, seed),
        "pinned_threads": PINNED_THREADS,
        "scenario_sha256": {rel: file_sha256(ROOT / rel) for rel in sorted(SCENARIOS.values())},
    }


def median(values):
    return statistics.median(values) if values else None


class Round:
    """One round's operations, timed as a whole and one by one."""

    def __init__(self, ops, work, cli_main, expected, problem, tracer=None):
        c0 = time.process_time()
        t0 = time.perf_counter()
        self.results = [run_op(op, ROOT, work, cli_main, tracer) for op in ops]
        self.wall_s = time.perf_counter() - t0
        self.cpu_s = time.process_time() - c0
        for r in self.results:  # checks run outside the timed region
            check(r, work, expected.get(r.op.key), problem.goal if problem else None,
                  problem.control if problem else None)


def op_summary(results) -> dict:
    """Per-operation figures: medians over successful operations, with counts."""
    ok = [r for r in results if not r.failed]
    out = {}
    for kind in ("plan", "execute", "sweep"):
        rs = [r for r in ok if r.op.kind == kind]
        if rs:
            out[f"{kind}_s"] = (median([r.wall_s for r in rs]), "s", len(rs))
            if kind != "sweep":
                out[f"{kind}_cpu_s"] = (median([r.cpu_s for r in rs]), "s", len(rs))
    for key in ("plan_cost", "path_length", "total_turning"):
        vals = [r.values[key] for r in ok if key in r.values]
        if vals:
            out[key] = (median(vals), "1", len(vals))
    failed = sum(r.failed for r in results)
    out["ops_failed"] = (failed / len(results), "share", len(results))
    return out


def yardstick_s() -> float:
    """Wall time of a fixed mix of scalar Python and numpy work that runs no
    uniplan code. It tracks the host's speed, not the program's: on a shared
    host that speed drifts by a quarter or more over minutes, and task_rel
    divides it out."""
    import numpy as np

    t = time.perf_counter()
    acc = 0.0
    for _ in range(YARDSTICK_REPEATS):
        for i in range(30000):
            x = i * 1e-4
            acc += math.hypot(math.cos(x), math.sin(x)) * (1.0 if i % 3 else -0.5)
        a = np.linspace(-3.0, 3.0, 576)
        b = np.linspace(0.0, 1.0, 10000)
        for _ in range(200):
            a = np.cos(a) * 0.5 + np.hypot(a, 0.25)
            acc += float(np.minimum(np.hypot(b - a[0], b), 2.0).sum())
    return time.perf_counter() - t


def set_up(workload: str, work: Path):
    """Import uniplan from the checkout, then load the scenario and run a
    warm-up round SETUP_REPEATS times. Returns the CLI entry point, the
    scenario's Problem (None for the sweep) and setup_s."""
    t = time.perf_counter()
    import uniplan
    from uniplan.cli import main as cli_main
    from uniplan.world import load_scenario
    import_s = time.perf_counter() - t
    if Path(uniplan.__file__).resolve().parent != ROOT / "src" / "uniplan":
        raise ImportError(f"imported uniplan from {uniplan.__file__}, not from {ROOT / 'src'}")
    setups = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        scenario = SCENARIOS.get(workload)
        problem = load_scenario(ROOT / scenario) if scenario else None
        for op in warmup_ops(workload):
            run_op(op, ROOT, work / "warmup", cli_main)
        setups.append(time.perf_counter() - t)
    return cli_main, problem, import_s + median(setups)


def traced_metrics(untraced: Round, run_round, path: Path):
    """Per-layer metrics of one traced round, and any accounting problem."""
    from tracing import Tracer, layer_metrics, traced

    tracer = Tracer()
    with traced(tracer):
        traced_round = run_round(tracer)
    tracer.save(path)
    metrics = layer_metrics(tracer)
    metrics["trace_overhead"] = traced_round.wall_s / untraced.wall_s
    own_sum = float(tracer.arrays()[4].sum())
    op_wall = sum(r.wall_s for r in traced_round.results)
    problems = []
    if abs(own_sum - op_wall) > SELF_TIME_TOLERANCE * op_wall:
        problems.append(f"self times add up to {own_sum:.6f} s, traced operations "
                        f"took {op_wall:.6f} s")
    return traced_round, metrics, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload is None:
        return run_all(args)

    missing = [p for p in [ROOT / "src" / "uniplan" / "__init__.py"]
               + [ROOT / s for s in SCENARIOS.values()] if not p.is_file()]
    if missing:
        print(f"error: not a uniplan checkout, missing {missing[0]}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = load_references()["smoke" if args.smoke else "full"]
    work = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    OUT.mkdir(exist_ok=True)
    cli_main, problem, setup_s = set_up(args.workload, work)

    ops = round_ops(args.workload, args.seed, SMOKE_SIZE if args.smoke else FULL_SIZE)

    def run_round(tracer=None):
        return Round(ops, work, cli_main, expected, problem, tracer)

    rounds = []
    yardsticks = [yardstick_s()]
    began = time.perf_counter()
    while True:
        rounds.append(run_round())
        yardsticks.append(yardstick_s())
        elapsed = time.perf_counter() - began
        if args.trace or elapsed + median([r.wall_s for r in rounds]) > args.seconds:
            break

    results = [r for rnd in rounds for r in rnd.results]
    problems = []
    if args.trace:
        traced_round, values, problems = traced_metrics(
            rounds[0], run_round, OUT / f"spans-{args.workload}-seed{args.seed}.npz")
        results += traced_round.results
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": setup_s,
            # each round over the mean of the yardstick samples either side of it
            "task_rel": median([r.wall_s * 2.0 / (yardsticks[k] + yardsticks[k + 1])
                                for k, r in enumerate(rounds)]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        wanted = spec["end_to_end"]
    if sorted(values) != sorted(m["name"] for m in wanted):
        raise RuntimeError("emitted metrics do not match BENCHMARK.json")

    failed = [r for r in results if r.failed]
    for r in failed:
        print(f"op-failed {r.op.key}: {'; '.join(r.reasons())}")
    problems += [f"unexpected result of {r.op.key}" for r in results if r.unexpected]
    for p in problems:
        print(f"incorrect: {p}")

    summary = op_summary(results)
    summary["task_s"] = (median([r.wall_s for r in rounds]), "s", len(rounds))
    summary["task_cpu_s"] = (median([r.cpu_s for r in rounds]), "s", len(rounds))
    summary["yardstick_s"] = (median(yardsticks), "s", len(yardsticks))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(rounds)} untraced round(s){', 1 traced' if args.trace else ''}")
    for name, (value, unit, n) in summary.items():
        print(f"  {name} {value:.6g} {unit} (n={n})")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "seconds": args.seconds, "host": host_info(args.workload, args.seed),
        "rounds": [{"wall_s": r.wall_s, "cpu_s": r.cpu_s} for r in rounds],
        "yardstick_s": yardsticks,
        "operations": summary, "metrics": metrics, "problems": problems,
        "checks": [{"op": r.op.key, "exit": r.exit, "wall_s": r.wall_s, "cpu_s": r.cpu_s,
                    "checks": r.checks, "values": r.values} for r in results],
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({"correct": not problems, "attempted": len(results),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
