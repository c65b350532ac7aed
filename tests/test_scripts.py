"""The analysis scripts under scripts/ run to completion on small inputs."""

import re
import subprocess
import sys
from pathlib import Path

import pytest
from scipy import stats

from uniplan.cli import turning_sweep
from uniplan.config import ControlParams

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    # from the repository root, where the scripts' default scenario paths resolve
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("name, args", [
    ("compare_objectives.py", ["--seeds", "1", "--samples", "400"]),
    ("informed_comparison.py", ["--seeds", "1"]),
])
def test_script_exits_0(name, args):
    result = run_script(name, *args)
    assert result.returncode == 0, result.stderr
    assert "seed 0" in result.stdout


def test_turning_heatmap_prints_scipy_correlations(tmp_path):
    out = tmp_path / "heatmap.svg"
    result = run_script("turning_heatmap.py", "--grid", "6", "--out", str(out))
    assert result.returncode == 0, result.stderr
    assert out.exists()
    printed = dict(re.findall(r"spearman\(turning, (\w+)\) *= (\S+)", result.stdout))
    live = [c for c in turning_sweep(6, ControlParams(), 1.0 / 3.0)
            if "total_turning" in c]
    turn = [c["total_turning"] for c in live]
    for key in ("dualhead_orient", "cosine"):
        rho = stats.spearmanr(turn, [c[key] for c in live]).statistic
        assert printed[key] == f"{rho:.3f}", key
