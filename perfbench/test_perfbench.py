"""Tests of the benchmark itself, on reduced sizes.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, Op, OpResult, check  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXPECTED_CHECKS = {
    "plan": {"exit", "graph_sha256", "best_path_cost"},
    "execute": {"exit", "reached_goal"},
    "sweep": {"exit", "sweep_sha256"},
}


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_metric_and_runs_every_check(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "0", "--seconds", "0",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())

    # the known defect: every informed_corridor execute exits 2
    expect_failed = result["attempted"] // 2 if workload == "informed_corridor" else 0
    assert result["failed"] == expect_failed

    record = json.loads((ROOT / ".perfbench_out" /
                         f"result-{workload}-seed0-trace{trace}.json").read_text())
    for op in record["checks"]:
        kind = op["op"].split()[0]
        ran = {name for name, ok, _ in op["checks"]}
        assert ran == (EXPECTED_CHECKS[kind] if op["exit"] == 0 else {"exit"}), op
        assert all(ok for _, ok, _ in op["checks"]), op


def test_traced_calls_repeat_and_self_times_add_up():
    runs = [run_bench("--workload", "cluttered_10k", "--smoke", "--trace", "1")
            for _ in range(2)]
    metrics = [json.loads(p.stdout.splitlines()[-1])["metrics"] for p in runs]
    calls = [{k: v["value"] for k, v in m.items() if k.endswith(".calls")} for m in metrics]
    assert calls[0] == calls[1]
    assert calls[0]["planner.nearest_index.calls"] == int(workloads.SMOKE_SIZE["cluttered_10k"][1])
    assert calls[0]["prediction.issafe.executor.calls"] > 0
    assert all("incorrect" not in p.stdout for p in runs)


def _result(tmp_path, kind, exit_code, files):
    op = Op(kind, (), "scenarios/x.json", 0, "pair")
    (tmp_path / "pair").mkdir()
    for name, text in files.items():
        (tmp_path / "pair" / name).write_text(text)
    return OpResult(op, exit_code, 0.1, 0.1, "", "")


def test_wrong_digest_is_a_failed_check_not_an_abort(tmp_path):
    graph = {"vertices": [{"cost": 0.0}, {"cost": 1.5}], "goal_index": 1}
    r = _result(tmp_path, "plan", 0, {"graph.json": json.dumps(graph)})
    check(r, tmp_path, {"exit": 0, "graph_sha256": "0" * 64, "cost": 1.5}, None, None)
    assert r.failed and r.unexpected
    assert [name for name, ok, _ in r.checks if not ok] == ["graph_sha256"]


def test_missing_output_is_a_failed_check(tmp_path):
    r = _result(tmp_path, "sweep", 0, {})
    check(r, tmp_path, {"exit": 0, "sweep_sha256": "0" * 64}, None, None)
    assert r.failed and r.unexpected
    assert r.checks[-1][0] == "outputs"


def test_known_failure_counts_but_is_not_incorrect(tmp_path):
    r = _result(tmp_path, "execute", 2, {})
    check(r, tmp_path, {"exit": 2}, None, None)
    assert r.failed and not r.unexpected
    regressed = OpResult(r.op, 2, 0.1, 0.1, "", "")
    check(regressed, tmp_path, {"exit": 0}, None, None)
    assert regressed.failed and regressed.unexpected


def test_every_operation_has_a_reference():
    refs = workloads.load_references()
    for size, sizes in (("full", workloads.FULL_SIZE), ("smoke", workloads.SMOKE_SIZE)):
        for workload in WORKLOADS:
            for seed in range(workloads.SEED_POOL):
                for op in workloads.round_ops(workload, seed, sizes):
                    assert op.key in refs[size], (size, op.key)


def test_patches_are_restored():
    import uniplan.executor
    import uniplan.planner
    from uniplan.planner import MotionGraph

    before = (uniplan.planner.issafe, uniplan.executor.issafe,
              MotionGraph.__dict__["nearest_index"])
    with tracing.traced(tracing.Tracer()):
        assert uniplan.planner.issafe is not before[0]
    after = (uniplan.planner.issafe, uniplan.executor.issafe,
             MotionGraph.__dict__["nearest_index"])
    assert after == before


def test_self_time_excludes_children():
    t = tracing.Tracer()
    a = t.open(t.name_id("a"))
    b = t.open(t.name_id("b"))
    t.close(b)
    c = t.open(t.name_id("c"))
    t.close(c)
    t.close(a)
    names, start, end, parent, own = t.arrays()
    assert list(parent) == [-1, 0, 0]
    assert own.sum() == pytest.approx(end[0] - start[0], rel=1e-12)
    assert own[0] == pytest.approx((end[0] - start[0]) - (end[1] - start[1]) - (end[2] - start[2]))


def test_exits_without_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("--workload", "dense_empty", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
