"""Plan and execute a full MobileNetV1 inference, ours vs the TVM baseline.

Shows the whole pipeline the paper evaluates end to end (Fig. 10/11): build
the model DAG, run FusePlanner, execute the fused plan functionally on the
simulated GPU, compile/execute the TVM baseline on the same weights, and
compare latency / energy / traffic.

Run:  python examples/plan_mobilenet.py [gpu]     (gpu: GTX | RTX | Orin)
"""

import sys

import numpy as np

from repro import DType, gpu_by_name
from repro.baselines import TvmCompiler
from repro.experiments.reporting import format_table
from repro.models import build_model
from repro.planner import FusePlanner
from repro.runtime import InferenceSession, TvmSession, materialize_network


def main(gpu_name: str = "RTX") -> None:
    gpu = gpu_by_name(gpu_name)
    graph = build_model("mobilenet_v1")

    plan = FusePlanner(gpu).plan(graph)
    print(plan.describe())
    print()

    params = materialize_network(graph, DType.FP32, seed=0)
    x = np.random.default_rng(0).standard_normal((3, 224, 224)).astype(np.float32)

    ours = InferenceSession(graph, plan, params).run(x)
    tvm_plan = TvmCompiler(gpu).compile(graph)
    tvm = TvmSession(graph, tvm_plan, params).run(x)

    assert np.allclose(ours.output, tvm.output, rtol=1e-3, atol=1e-4), \
        "both runtimes must compute the same network"

    print("ours:", ours.describe())
    print("tvm :", tvm.describe())
    print(
        f"vs TVM: speedup {tvm.latency_s / ours.latency_s:.2f}x, "
        f"energy {ours.energy_j / tvm.energy_j:.2f}, "
        f"GMA {ours.total_gma_bytes / tvm.total_gma_bytes:.2f}"
    )
    print()
    heaviest = sorted(ours.records, key=lambda r: r.time_s, reverse=True)[:8]
    print(format_table(
        ["step", "kind", "time us", "GMA KB", "bound"],
        [[r.name, r.kind, f"{r.time_s * 1e6:.1f}",
          f"{r.counters.total_bytes / 1024:.1f}", r.bound] for r in heaviest],
    ))


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "RTX")
