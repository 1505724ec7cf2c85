"""Tile search and whole-model planning tests."""

from __future__ import annotations

import hashlib

import pytest

from helpers import dw_spec, pw_spec
from repro.core.chain import FusedChain
from repro.core.dtypes import DType
from repro.core.fcm import FcmType
from repro.core.tiling import DwTiling, PwTiling
from repro.errors import PlanError
from repro.gpu.specs import ALL_GPUS, GTX1660, ORIN, RTX_A4000, GpuSpec
from repro.ir.blocks import dsc_block, inverted_residual_block, standard_conv
from repro.ir.graph import ModelGraph
from repro.models.zoo import build_model, model_names
from repro.planner.chain_costs import FCM_TILING_KEYS, chain_feasible
from repro.planner.costs import dw_feasible, pw_feasible
from repro.planner.plan import GlueStep, LblStep, StdStep
from repro.planner.planner import FusePlanner
from repro.planner.search import best_chain_tiling, best_lbl_tiling


class TestLblSearch:
    def test_pw_result_feasible_and_warp_aligned(self):
        spec = pw_spec(c_in=32, c_out=64, h=56, w=56)
        r = best_lbl_tiling(spec, RTX_A4000)
        t = PwTiling(r.tiling["tile_m"], r.tiling["tile_hw"])
        assert pw_feasible(spec, t, RTX_A4000)
        assert (r.tiling["tile_m"] * r.tiling["tile_hw"]) % RTX_A4000.warp_size == 0

    def test_dw_result_feasible(self):
        spec = dw_spec(c=32, h=56, w=56)
        r = best_lbl_tiling(spec, GTX1660)
        t = DwTiling(r.tiling["tile_c"], r.tiling["tile_h"], r.tiling["tile_w"])
        assert dw_feasible(spec, t, GTX1660)

    def test_search_minimizes(self):
        """No candidate in the same vocabulary beats the winner."""
        from repro.planner.costs import pw_gma

        spec = pw_spec(c_in=16, c_out=64, h=28, w=28)
        r = best_lbl_tiling(spec, ORIN)
        for tm in (8, 16, 32, 64):
            for thw in (32, 64, 196, 784):
                t = PwTiling(tm, thw)
                if not pw_feasible(spec, t, ORIN):
                    continue
                if (tm * thw) % ORIN.warp_size != 0:
                    continue
                assert pw_gma(spec, t).total_bytes >= r.gma_bytes

    def test_standard_conv_rejected(self):
        from repro.ir.layers import ConvKind, ConvSpec

        std = ConvSpec("s", ConvKind.STANDARD, 3, 8, 16, 16, kernel=3, padding=1)
        with pytest.raises(PlanError):
            best_lbl_tiling(std, RTX_A4000)

    def test_infeasible_layer_raises(self):
        gpu = GpuSpec(
            name="nano", compute_capability="0", sm_count=100000, cuda_cores=200000,
            l1_kb=1, shared_kb=1, l2_mb=0.1, dram="X", dram_bw_gbps=1, clock_ghz=1,
        )
        with pytest.raises(PlanError):
            best_lbl_tiling(pw_spec(), gpu)


class TestFcmSearch:
    def test_result_feasible(self):
        chain = FusedChain((pw_spec(c_in=16, c_out=64, h=56, w=56), dw_spec(c=64, h=56, w=56)))
        r = best_chain_tiling(chain, FCM_TILING_KEYS[FcmType.PWDW_R], RTX_A4000)
        assert r is not None
        assert chain_feasible(chain, r.tiling, RTX_A4000)
        assert 0 <= r.redundancy_ratio < 1

    def test_infeasible_returns_none(self, tiny_gpu):
        chain = FusedChain((pw_spec(c_in=64, c_out=512, h=64, w=64), dw_spec(c=512, h=64, w=64)))
        assert best_chain_tiling(chain, FCM_TILING_KEYS[FcmType.PWDW], tiny_gpu) is None


class TestFusePlanner:
    def _graph(self, dtype=DType.FP32):
        g = ModelGraph("m")
        standard_conv(g, "stem", 3, 32, 112, 112, stride=2, dtype=dtype)
        dsc_block(g, "b1", 32, 64, 56, 56, dtype=dtype)
        dsc_block(g, "b2", 64, 64, 56, 56, dtype=dtype)
        return g

    def test_plan_structure(self):
        plan = FusePlanner(GTX1660).plan(self._graph())
        kinds = [type(s) for s in plan.steps]
        assert StdStep in kinds  # stem preserved
        # Every DW/PW layer appears exactly once across steps.
        names = [n for s in plan.steps for n in getattr(s, "layer_names", ())]
        assert sorted(names) == sorted(
            ["b1_dw", "b1_pw", "b2_dw", "b2_pw"]
        )

    def test_fcm_steps_save_traffic(self):
        plan = FusePlanner(GTX1660).plan(self._graph())
        for s in plan.fcm_steps:
            assert s.est_savings_bytes > 0
            assert s.est_gma_bytes < s.est_lbl_gma_bytes

    def test_layers_join_at_most_one_fcm(self):
        plan = FusePlanner(ORIN).plan(self._graph())
        fused = [n for s in plan.fcm_steps for n in s.layer_names]
        assert len(fused) == len(set(fused))

    def test_retype_on_the_fly(self):
        plan = FusePlanner(GTX1660).plan(self._graph(), dtype=DType.INT8)
        assert plan.dtype is DType.INT8
        for s in plan.steps:
            if isinstance(s, LblStep):
                assert s.spec.dtype is DType.INT8

    def test_fused_fraction_bounds(self):
        plan = FusePlanner(ORIN).plan(self._graph())
        assert 0.0 <= plan.fused_layer_fraction <= 1.0

    def test_describe_runs(self):
        plan = FusePlanner(GTX1660).plan(self._graph())
        text = plan.describe()
        assert "ExecutionPlan" in text and "GMA" in text

    def test_residual_graph_planned(self):
        g = ModelGraph("ir")
        first = standard_conv(g, "stem", 3, 16, 56, 56, stride=1)
        last = inverted_residual_block(g, "ir1", 16, 16, 56, 56, after=first)
        inverted_residual_block(g, "ir2", 16, 24, 56, 56, stride=2, after=last)
        plan = FusePlanner(GTX1660).plan(g)
        glue = [s for s in plan.steps if isinstance(s, GlueStep)]
        assert any(s.spec.op == "add" for s in glue)
        # All conv layers accounted for.
        conv_names = {c.name for c in g.conv_layers()}
        planned = {n for s in plan.steps for n in getattr(s, "layer_names", ())}
        planned |= {s.spec.name for s in plan.steps if isinstance(s, StdStep)}
        assert planned == conv_names

    def test_matching_prefers_higher_savings(self):
        """When two candidates share a layer the better one must win."""
        g = ModelGraph("m")
        dsc_block(g, "b1", 16, 96, 56, 56)  # b1_pw is shared by two candidates
        dsc_block(g, "b2", 96, 96, 56, 56)
        plan = FusePlanner(ORIN).plan(g)
        chosen = {tuple(s.layer_names): s for s in plan.fcm_steps}
        assert chosen  # fused something
        planner = FusePlanner(ORIN)
        total = sum(s.est_savings_bytes for s in plan.fcm_steps)
        # Compare against the two mutually exclusive single-pair alternatives.
        for pair in (("b1_dw", "b1_pw"), ("b1_pw", "b2_dw"), ("b2_dw", "b2_pw")):
            first = g.spec(pair[0])
            second = g.spec(pair[1])
            d = planner.evaluate_chain((first, second))
            if d is not None:
                assert total >= d.savings_bytes or tuple(pair) in chosen


class TestPinnedPlans:
    """Regression guard: every zoo plan and every candidate behind it, pinned.

    ``last_candidates`` holds the search of every fusable pair and chain,
    chosen or not, so a change to any FCM or chain search shows here even
    where the plan keeps its steps.  A change that means to move plans
    re-pins the digest and says so; any other change must leave it as it is.
    """

    #: SHA-256 over every plan step and candidate report below, in sweep order.
    DIGEST = "4a158f4645e16c3227c444b251b35ff29d8ac20974d24ddb34bde73f160ce242"

    def test_plans_and_candidates_are_pinned(self):
        h = hashlib.sha256()
        for model in model_names():
            for dtype in (DType.FP32, DType.INT8):
                graph = build_model(model, dtype)
                for gpu in ALL_GPUS:
                    for max_chain in (1, 2, 3):
                        planner = FusePlanner(gpu, max_chain=max_chain)
                        plan = planner.plan(graph)
                        h.update(f"{model}/{gpu.name}/{dtype}/{max_chain}".encode())
                        for item in (*plan.steps, *planner.last_candidates):
                            h.update(repr(item).encode())
        assert h.hexdigest() == self.DIGEST
