"""The benchmark's own tests: tiny runs of every workload.

    python3 -m pytest perfbench/selftest.py -q

A tiny run emits every declared metric with its unit and passes its checks,
two tiny runs of one seed give bit-identical simulated metrics, a traced run
emits every per-layer metric and times the layers its workload drives, and
a directory without the program fails without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

#: per-layer call counts each workload must drive (nonzero in a traced run)
DRIVES = {
    "paper_sweep": ("planner.plan_calls", "baselines.tvm_compile_calls",
                    "runtime.materialize_calls"),
    "serve_replay": ("serve.route_calls", "serve.step_calls", "serve.admission_calls",
                     "runtime.analytic_batch_calls", "runtime.report_latency_calls"),
    "chaos_replay": ("faults.process_calls", "serve.route_calls"),
    "functional": ("kernels.PwDirectKernel.simulate_batch_calls", "runtime.glue_calls",
                   "baselines.cudnn_run_calls"),
}


def bench(workload: str, *, seed: int = 1, trace: int = 0, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, proc.stdout
    return res


def units(res: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in res["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_runs_emit_every_metric_and_repeat_the_simulation(workload):
    first, second = result(bench(workload)), result(bench(workload))
    declared = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    for res in (first, second):
        assert units(res) == declared
        assert all(m["value"] > 0 for m in res["metrics"].values())

    def sim(res):
        return {n: m["value"] for n, m in res["metrics"].items() if n.startswith("sim_")}

    assert sim(first) == sim(second)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_run_emits_every_layer_metric(workload):
    res = result(bench(workload, trace=1))
    assert units(res) == {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    for name in DRIVES[workload]:
        assert res["metrics"][name]["value"] > 0, name


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
