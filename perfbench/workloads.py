"""Workload definitions, the operations of one round, and output checks.

A round is the unit of work a workload repeats: `plan` then `execute` for
the planner workloads (five seeds of both for informed_corridor), or one
`sweep-turning` grid. Every operation runs in-process through
`uniplan.cli.main`, the entry point users call, and its outputs are checked
against references stored in `references.json` next to this file.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"

# The run seed picks the planner seeds from a pool of this many, so that
# every operation has a stored reference output to be checked against.
SEED_POOL = 10
INFORMED_SEEDS_PER_ROUND = 5

SCENARIOS = {
    "dense_empty": "scenarios/empty_10x10.json",
    "cluttered_10k": "scenarios/three_obstacles.json",
    "informed_corridor": "scenarios/informed_corridor.json",
}

WORKLOADS = ("dense_empty", "cluttered_10k", "informed_corridor", "sweep_turning")

# Size flags per workload; a workload absent from a table runs as shipped.
FULL_SIZE = {"cluttered_10k": ("--samples", "10000"), "sweep_turning": ("--grid", "24")}
SMOKE_SIZE = {
    "dense_empty": ("--samples", "200"),
    "cluttered_10k": ("--samples", "400"),  # 200 finds no path for seed 0
    "informed_corridor": ("--samples", "200"),
    "sweep_turning": ("--grid", "6"),
}
# Set-up warms up on smoke sizes, but on one cell for the sweep: a sweep
# runs until its slowest cell converges, so grid 6 already takes ~5 s.
WARMUP_SIZE = dict(SMOKE_SIZE, sweep_turning=("--grid", "1"))


@dataclass(frozen=True)
class Op:
    """One CLI invocation. `pair` names the output directory a plan shares
    with the execute that runs on its graph."""

    kind: str  # "plan", "execute" or "sweep"
    flags: tuple[str, ...]
    scenario: str | None = None
    seed: int | None = None
    pair: str = "sweep"

    @property
    def key(self) -> str:
        """Reference key: the invocation without its output paths."""
        parts = [self.kind]
        if self.scenario:
            parts.append(self.scenario)
        if self.seed is not None:
            parts.append(f"--seed {self.seed}")
        parts.extend(self.flags)
        return " ".join(parts)

    def argv(self, root: Path, work: Path) -> list[str]:
        out = work / self.pair
        if self.kind == "sweep":
            return ["sweep-turning", *self.flags, "--out", str(out)]
        argv = [self.kind, str(root / self.scenario)]
        if self.kind == "execute":
            argv.append(str(out / "graph.json"))
        return argv + ["--seed", str(self.seed), *self.flags, "--out", str(out)]


def planner_seeds(workload: str, seed: int) -> list[int]:
    """The planner seeds one round of the workload uses for a run seed."""
    base = seed % SEED_POOL
    if workload == "informed_corridor":
        n = INFORMED_SEEDS_PER_ROUND
        return list(range(n * base, n * base + n))
    if workload == "sweep_turning":
        return []
    return [base]


def round_ops(workload: str, seed: int, sizes: dict = FULL_SIZE) -> list[Op]:
    """The operations of one round, in the order they run."""
    size = sizes.get(workload, ())
    if workload == "sweep_turning":
        return [Op("sweep", size)]
    flags = size + (("--informed", "euclidean") if workload == "informed_corridor" else ())
    scenario = SCENARIOS[workload]
    ops = []
    for s in planner_seeds(workload, seed):
        pair = f"seed{s}"
        ops.append(Op("plan", flags, scenario, s, pair))
        ops.append(Op("execute", flags, scenario, s, pair))
    return ops


def warmup_ops(workload: str) -> list[Op]:
    """The first plan and execute (or the sweep) of a reduced-size round,
    run during set-up."""
    return round_ops(workload, 0, WARMUP_SIZE)[:2]


@dataclass
class OpResult:
    op: Op
    exit: int | None
    wall_s: float
    cpu_s: float
    stdout: str
    stderr: str
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    values: dict[str, float] = field(default_factory=dict)
    unexpected: bool = False  # a wrong output or a new failure: correct=false

    @property
    def failed(self) -> bool:
        return self.exit != 0 or not all(ok for _, ok, _ in self.checks)

    def reasons(self) -> list[str]:
        out = [] if self.exit == 0 else [f"exit {self.exit}: {self.stderr.strip()}"]
        return out + [f"{name}: {why}" for name, ok, why in self.checks if not ok]


def run_op(op: Op, root: Path, work: Path, cli_main, tracer=None) -> OpResult:
    """Run one operation through the CLI; time it with wall and CPU clocks."""
    argv = op.argv(root, work)
    out, err = io.StringIO(), io.StringIO()
    span = None
    with redirect_stdout(out), redirect_stderr(err):
        c0 = time.process_time()
        t0 = time.perf_counter()
        if tracer is not None:
            span = tracer.open(tracer.name_id(f"cli.{argv[0].replace('-', '_')}"))
        try:
            code = cli_main(argv)
        except Exception:  # a traceback is a failed operation, not a dead run
            code = None
            err.write(traceback.format_exc())
        finally:
            if span is not None:
                tracer.close(span)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
    return OpResult(op, code, wall, cpu, out.getvalue(), err.getvalue())


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check(result: OpResult, work: Path, ref: dict | None, goal, control) -> None:
    """Fill in result.checks and result.values; never raises.

    A non-zero exit is a failed operation. It is unexpected (and the run
    incorrect) unless the reference records the same exit for this
    operation, as it does for a known defect. Any failed output check is
    unexpected.
    """
    op = result.op
    out = work / op.pair
    if ref is None:
        result.checks.append(("reference", False, f"no reference for {op.key!r}"))
        result.unexpected = True
        return
    result.checks.append(("exit", result.exit in (0, ref["exit"]),
                          f"exit {result.exit}, reference {ref['exit']}"))
    if result.exit != 0:
        result.unexpected = not result.checks[-1][1]
        return
    try:
        if op.kind == "plan":
            _check_plan(result, out, ref)
        elif op.kind == "execute":
            _check_execute(result, out, goal, control)
        else:
            digest = _sha256(out / "sweep.csv")
            result.checks.append(("sweep_sha256", digest == ref["sweep_sha256"],
                                  f"{digest} != {ref['sweep_sha256']}"))
    except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
        result.checks.append(("outputs", False, f"{type(e).__name__}: {e}"))
    result.unexpected = not all(ok for _, ok, _ in result.checks)


def _check_plan(result: OpResult, out: Path, ref: dict) -> None:
    path = out / "graph.json"
    digest = _sha256(path)
    result.checks.append(("graph_sha256", digest == ref["graph_sha256"],
                          f"{digest} != {ref['graph_sha256']}"))
    doc = json.loads(path.read_text())
    cost = doc["vertices"][doc["goal_index"]]["cost"]
    result.checks.append(("best_path_cost", cost == ref["cost"],
                          f"{cost!r} != {ref['cost']!r}"))
    result.values["plan_cost"] = cost


def _check_execute(result: OpResult, out: Path, goal, control) -> None:
    lines = (out / "trajectory.csv").read_text().splitlines()
    x, y, theta = (float(v) for v in lines[-1].split(",")[1:4])
    dist = math.hypot(x - goal.x, y - goal.y)
    dth = abs((theta - goal.theta + math.pi) % (2 * math.pi) - math.pi)
    result.checks.append((
        "reached_goal",
        len(lines) > 1 and dist <= control.goal_tol and dth <= control.angle_tol,
        f"last row {dist:.3g} m and {dth:.3g} rad from the goal "
        f"(tolerance {control.goal_tol:g} m, {control.angle_tol:g} rad)",
    ))
    fields = dict(item.split("=") for item in result.stdout.split())
    result.values["path_length"] = float(fields["path_length"])
    result.values["total_turning"] = float(fields["total_turning"])


def reference_record(result: OpResult, work: Path) -> dict:
    """The reference entry an operation's outputs would be checked against."""
    out = work / result.op.pair
    rec = {"exit": result.exit}
    if result.exit != 0:
        rec["stderr"] = result.stderr.strip()
    elif result.op.kind == "plan":
        doc = json.loads((out / "graph.json").read_text())
        rec["graph_sha256"] = _sha256(out / "graph.json")
        rec["cost"] = doc["vertices"][doc["goal_index"]]["cost"]
    elif result.op.kind == "sweep":
        rec["sweep_sha256"] = _sha256(out / "sweep.csv")
    return rec


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())
