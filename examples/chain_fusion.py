"""Chain fusion walkthrough: pairwise FCMs vs arbitrary-length fused chains.

Plans MobileNetV2 twice — ``max_chain=2`` (the paper's pairwise modules,
reproduced bit-for-bit) and ``max_chain=3`` (whole PW->DW->PW
inverted-residual runs fused by the interval-DP planner) — executes both
analytically, and runs one fused chain functionally to show the three-stage
kernel is numerically exact.

Run:  python examples/chain_fusion.py [gpu]     (gpu: GTX | RTX | Orin)
"""

import sys

import numpy as np

from repro import DType, gpu_by_name
from repro.experiments import compare_chain_planning
from repro.kernels import build_chain_kernel, build_lbl_kernel, make_layer_params
from repro.kernels.params import chain_quant
from repro.models import build_model
from repro.planner import FusePlanner, best_lbl_tiling


def main(gpu_name: str = "RTX") -> None:
    gpu = gpu_by_name(gpu_name)

    # 1. Whole-model comparison: pairwise vs chain plans.
    cmp = compare_chain_planning("mobilenet_v2", gpu, DType.INT8, max_chain=3)
    print(
        f"MobileNetV2 int8 on {gpu.name}: pairwise GMA {cmp.pairwise_gma_bytes} B, "
        f"chain GMA {cmp.chain_gma_bytes} B ({cmp.gma_saving:.1%} saved, "
        f"{cmp.chain_count} chains of length >= 3, {cmp.speedup_vs_pairwise:.2f}x)"
    )

    # 2. One fused chain, functionally: the planner's longest pick.
    graph = build_model("mobilenet_v2", DType.FP32)
    plan = FusePlanner(gpu, max_chain=3).plan(graph)
    step = max(plan.fcm_steps, key=lambda s: s.length)
    print(f"\nlongest chain: {'+'.join(step.layer_names)} tiles={step.tiling}")

    params = [make_layer_params(step.specs[0], seed=0)]
    for spec in step.specs[1:]:
        params.append(chain_quant(params[-1], spec, seed=0))
    kernel = build_chain_kernel(params, step.tiling)
    x = np.random.default_rng(0).standard_normal(step.specs[0].ifm.shape).astype(np.float32)
    fused = kernel.simulate(x, gpu)

    ref, ref_bytes = x, 0
    for p in params:
        res = build_lbl_kernel(p, best_lbl_tiling(p.spec, gpu).tiling).simulate(ref, gpu)
        ref, ref_bytes = res.output, ref_bytes + res.counters.total_bytes
    assert np.allclose(fused.output, ref, rtol=1e-4, atol=1e-5)
    print(
        f"fused == layer-by-layer; traffic {fused.counters.total_bytes} B vs "
        f"{ref_bytes} B unfused "
        f"({1 - fused.counters.total_bytes / ref_bytes:.0%} saved), "
        f"redundant MACs {fused.counters.redundancy_ratio:.1%}"
    )


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "RTX")
