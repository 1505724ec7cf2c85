"""End-to-end integration: fused plans must be numerically faithful.

The strongest whole-system check: run a real (small) network functionally
under (a) an all-LBL plan and (b) FusePlanner's fused plan, on the simulated
GPU, and require identical outputs — bit-exact for INT8.  Also verifies that
each plan's analytic run, priced by the measured-convention counters, equals
the functional execution's metered traffic end to end.
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers import assert_records_match
from repro.core.dtypes import DType
from repro.gpu.specs import ALL_GPUS, GTX1660, ORIN
from repro.ir.blocks import dsc_block, inverted_residual_block, standard_conv
from repro.ir.graph import GlueSpec, ModelGraph
from repro.planner.plan import ChainStep, ExecutionPlan, GlueStep, LblStep, StdStep
from repro.planner.planner import FusePlanner
from repro.runtime.network_params import materialize_network
from repro.runtime.session import InferenceSession, seeded_input


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
    # Fused and layer-by-layer steps run the same stage passes, so even FP32
    # outputs are the same bytes.
    assert out_fused.output.tobytes() == out_unfused.output.tobytes()
    # Fusion must strictly reduce end-to-end global traffic and launches.
    assert out_fused.total_gma_bytes < out_unfused.total_gma_bytes
    assert out_fused.kernel_launches < out_unfused.kernel_launches


def test_plan_estimates_equal_metered_execution():
    """Every plan's analytic run (the measured-convention counters) equals
    its functional run's metered bytes, MACs and redundant MACs, step by
    step, on every GPU, at both precisions and chain caps 2 and 3."""
    for dtype in (DType.FP32, DType.INT8):
        g = _small_net(dtype)
        x = seeded_input(g, dtype)
        for gpu in ALL_GPUS:
            for max_chain in (2, 3):
                plan = FusePlanner(gpu, max_chain=max_chain).plan(g)
                session = InferenceSession(g, plan, materialize_network(g, dtype))
                assert_records_match(session.run(x), session.run_analytic())


def test_plans_feasible_on_every_paper_gpu(rng):
    """The planner's choices must always survive kernel capacity checks."""
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
