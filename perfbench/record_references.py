"""Record the reference outputs the benchmark checks operations against.

    python3 perfbench/record_references.py [workload ...]

Runs every operation of every workload once, for each planner seed of the
seed pool, at full and at smoke size, and writes references.json. Run it
only when a change alters planner or sweep output on purpose, and say why.
"""

import json
import sys
from pathlib import Path

from workloads import (
    FULL_SIZE,
    REFERENCES,
    SEED_POOL,
    SMOKE_SIZE,
    WORKLOADS,
    reference_record,
    round_ops,
    run_op,
)

ROOT = Path(__file__).resolve().parent.parent


def main(argv) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from uniplan.cli import main as cli_main

    refs = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    work = ROOT / ".perfbench_out" / "references"
    for workload in argv or WORKLOADS:
        for size, sizes in (("smoke", SMOKE_SIZE), ("full", FULL_SIZE)):
            table = refs.setdefault(size, {})
            seeds = [0] if workload == "sweep_turning" else range(SEED_POOL)
            for seed in seeds:
                for op in round_ops(workload, seed, sizes):
                    result = run_op(op, ROOT, work, cli_main)
                    table[op.key] = reference_record(result, work)
                    print(f"{size} {op.key}: {table[op.key]}", flush=True)
            REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
