"""Quickstart: fuse one depthwise-separable block and measure the gains.

Builds a MobileNet-style DSC pair (DW3x3 + PW1x1), runs it layer-by-layer
and as a fused FCM on the simulated RTX A4000, verifies the outputs are
identical, and prints the traffic/latency/energy comparison.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.gpu import RTX_A4000
from repro.ir import ConvKind, ConvSpec
from repro.kernels import build_chain_kernel, build_lbl_kernel, chain_quant, make_layer_params
from repro.planner import FusePlanner


def main() -> None:
    # 1. Describe the two layers (a MobileNetV1 block at 56x56).
    dw = ConvSpec("block_dw", ConvKind.DEPTHWISE, 128, 128, 56, 56,
                  kernel=3, stride=1, padding=1)
    pw = ConvSpec("block_pw", ConvKind.POINTWISE, 128, 128, 56, 56)

    # 2. Let FusePlanner pick the module type and tile sizes for this GPU.
    planner = FusePlanner(RTX_A4000)
    decision = planner.evaluate_chain((dw, pw))
    assert decision is not None, "no feasible FCM for this pair on this GPU"
    print(f"FusePlanner suggests {decision.fcm_type.name} with tiles {decision.result.tiling}")
    print(f"  estimated GMA: fused {decision.result.gma_bytes / 1e6:.2f} MB vs "
          f"LBL {decision.lbl_gma_bytes / 1e6:.2f} MB")

    # 3. Materialize weights and an input, then execute both ways.
    p_dw = make_layer_params(dw, seed=42)
    p_pw = chain_quant(p_dw, pw, seed=42)
    x = np.random.default_rng(0).standard_normal(dw.ifm.shape).astype(np.float32)

    lbl_dw = build_lbl_kernel(p_dw, planner.lbl_plan(dw).tiling).simulate(x, RTX_A4000)
    lbl_pw = build_lbl_kernel(p_pw, planner.lbl_plan(pw).tiling).simulate(
        lbl_dw.output, RTX_A4000
    )
    fused = build_chain_kernel([p_dw, p_pw], decision.result.tiling).simulate(x, RTX_A4000)

    # 4. Same numbers, fewer bytes, fewer kernels.
    np.testing.assert_allclose(fused.output, lbl_pw.output, rtol=1e-4, atol=1e-4)
    lbl_bytes = lbl_dw.counters.total_bytes + lbl_pw.counters.total_bytes
    lbl_time = lbl_dw.timing().t_total_s + lbl_pw.timing().t_total_s
    t_fused = fused.timing()
    print(f"outputs identical: True")
    print(f"global traffic : LBL {lbl_bytes / 1e6:6.2f} MB   "
          f"FCM {fused.counters.total_bytes / 1e6:6.2f} MB "
          f"({1 - fused.counters.total_bytes / lbl_bytes:.0%} saved)")
    print(f"latency        : LBL {lbl_time * 1e6:6.1f} us   "
          f"FCM {t_fused.t_total_s * 1e6:6.1f} us "
          f"({lbl_time / t_fused.t_total_s:.2f}x speedup)")
    e_lbl = lbl_dw.energy().total_j + lbl_pw.energy().total_j
    print(f"energy         : LBL {e_lbl * 1e6:6.1f} uJ   "
          f"FCM {fused.energy().total_j * 1e6:6.1f} uJ")


if __name__ == "__main__":
    main()
