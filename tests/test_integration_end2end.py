"""End-to-end integration: fused plans must be numerically faithful.

The strongest whole-system check: run a real (small) network functionally
under (a) an all-LBL plan and (b) FusePlanner's fused plan, on the simulated
GPU, and require identical outputs — bit-exact for INT8.  Also verifies that
the planner's GMA estimates equal the functional execution's metered bytes
end to end (the measured-convention contract at system scale).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dtypes import DType
from repro.gpu.specs import GTX1660, ORIN
from repro.ir.blocks import dsc_block, inverted_residual_block, standard_conv
from repro.ir.graph import GlueSpec, ModelGraph
from repro.planner.plan import ChainStep, ExecutionPlan, GlueStep, LblStep, StdStep
from repro.planner.planner import FusePlanner
from repro.runtime.network_params import materialize_network
from repro.runtime.session import InferenceSession


def _small_net(dtype=DType.FP32) -> ModelGraph:
    g = ModelGraph("small")
    first = standard_conv(g, "stem", 3, 16, 32, 32, stride=2, dtype=dtype)
    last = dsc_block(g, "b1", 16, 32, 16, 16, after=first, dtype=dtype)
    last = inverted_residual_block(
        g, "ir1", 32, 32, 16, 16, expansion=2, after=last, dtype=dtype
    )
    last = dsc_block(g, "b2", 32, 48, 16, 16, stride=2, after=last, dtype=dtype)
    g.add(GlueSpec("gap", "gap", 48), after=last)
    g.validate()
    return g


def _unfused_plan(fused: ExecutionPlan, planner: FusePlanner) -> ExecutionPlan:
    """Rewrite a plan with every FCM step split back into two LBL steps."""
    out = ExecutionPlan(fused.model_name, fused.gpu, fused.dtype)
    for step in fused.steps:
        if isinstance(step, ChainStep):
            for spec in (step.first, step.second):
                lbl = planner.lbl_plan(spec)
                out.steps.append(
                    LblStep(spec=spec, tiling=lbl.tiling, est_gma_bytes=lbl.gma_bytes)
                )
        else:
            out.steps.append(step)
    return out


@pytest.mark.parametrize("dtype", [DType.FP32, DType.INT8])
def test_fused_equals_unfused_end_to_end(dtype, rng):
    g = _small_net(dtype)
    planner = FusePlanner(ORIN)
    fused_plan = planner.plan(g)
    assert fused_plan.fcm_steps, "expected the planner to fuse something"
    unfused_plan = _unfused_plan(fused_plan, planner)
    net = materialize_network(g, dtype)
    x = (
        rng.integers(-128, 128, (3, 32, 32)).astype(np.int8)
        if dtype is DType.INT8
        else rng.standard_normal((3, 32, 32)).astype(np.float32)
    )
    out_fused = InferenceSession(g, fused_plan, net).run(x)
    out_unfused = InferenceSession(g, unfused_plan, net).run(x)
    if dtype is DType.INT8:
        np.testing.assert_array_equal(out_fused.output, out_unfused.output)
    else:
        np.testing.assert_allclose(
            out_fused.output, out_unfused.output, rtol=1e-4, atol=1e-5
        )
    # Fusion must strictly reduce end-to-end global traffic and launches.
    assert out_fused.total_gma_bytes < out_unfused.total_gma_bytes
    assert out_fused.kernel_launches < out_unfused.kernel_launches


def test_plan_estimates_equal_metered_execution(rng):
    """Sum of per-step estimates == functional session's metered GMA."""
    g = _small_net()
    planner = FusePlanner(GTX1660, convention="measured")
    plan = planner.plan(g)
    net = materialize_network(g, DType.FP32)
    rep = InferenceSession(g, plan, net).run(
        rng.standard_normal((3, 32, 32)).astype(np.float32)
    )
    metered = {
        r.name: r.counters.total_bytes
        for r in rep.records
        if r.kind in ("fcm", "lbl")
    }
    for step in plan.steps:
        if isinstance(step, ChainStep):
            assert metered["+".join(step.layer_names)] == step.est_gma_bytes
        elif isinstance(step, LblStep):
            assert metered[step.spec.name] == step.est_gma_bytes


def test_plans_feasible_on_every_paper_gpu(rng):
    """The planner's choices must always survive kernel capacity checks."""
    from repro.gpu.specs import ALL_GPUS

    for gpu in ALL_GPUS:
        g = _small_net()
        plan = FusePlanner(gpu).plan(g)
        net = materialize_network(g, DType.FP32)
        rep = InferenceSession(g, plan, net).run(
            rng.standard_normal((3, 32, 32)).astype(np.float32)
        )
        assert rep.output is not None


def test_std_and_glue_steps_preserved():
    g = _small_net()
    plan = FusePlanner(GTX1660).plan(g)
    assert any(isinstance(s, StdStep) for s in plan.steps)
    assert any(
        isinstance(s, GlueStep) and s.spec.op == "add" for s in plan.steps
    )
