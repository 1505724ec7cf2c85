"""Smoke test of `tools/profile_run.py`, the profiler behind `make profile`.

Each mode runs as a subprocess, the way a developer runs it: the functional
run or the planning pass, on the production path or (``--reference``) on
its oracle — the per-block kernel engine or the scalar tile sweeps — and
the fleet replay, which has no oracle.
"""

import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "profile_run.py"


@pytest.mark.parametrize("reference", [False, True], ids=["fast", "reference"])
@pytest.mark.parametrize("what", ["plan", "run"])
def test_profile_run_modes(what, reference):
    argv = [sys.executable, str(TOOL), "mobilenet_v1", "--what", what, "--top", "1"]
    if reference:
        argv.append("--reference")
    proc = subprocess.run(argv, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    summary = proc.stdout.strip().splitlines()[-1]
    assert "function calls" in proc.stdout  # the cProfile tables printed
    if what == "plan":
        planner = "ScalarPlanner" if reference else "FusePlanner"
        assert summary == f"26 plan steps for mobilenet_v1 on RTX [{planner}]"
    else:
        engine = "reference" if reference else "fast"
        assert summary.startswith("mobilenet_v1 on RTX (fp32): ")
        assert summary.endswith(f"26 kernel launches  [engine={engine}]")


def test_profile_replay_mode():
    argv = [sys.executable, str(TOOL), "mobilenet_v1", "--what", "replay", "--top", "1"]
    proc = subprocess.run(argv, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "function calls" in proc.stdout
    summary = proc.stdout.strip().splitlines()[-1]
    assert summary.startswith(
        "fleet[RTX+RTX+RTX+RTX] policy=affinity (fp32): 2000 reqs of mobilenet_v1 @ 6000 rps"
    )
    assert summary.endswith("0 on the critical path)")  # every plan preplanned
    # A replay has no oracle: --reference with it is a usage error.
    proc = subprocess.run(argv + ["--reference"], capture_output=True, text=True)
    assert proc.returncode == 2
    assert "--reference" in proc.stderr
