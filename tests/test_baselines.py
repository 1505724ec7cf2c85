"""Baseline tests: im2col oracles, cuDNN algorithm models, autotuner, TVM."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import dw_spec, int32_conv2d, pw_spec, random_ifm, ref_layer
from repro.baselines import tvm
from repro.baselines.autotune import random_search
from repro.baselines.cudnn import (
    CudnnAlgo,
    best_cudnn_algo,
    cudnn_batched,
    cudnn_blocks,
    cudnn_counters,
    cudnn_timing,
    run_cudnn,
)
from repro.baselines.im2col import conv_via_im2col, depthwise_via_im2col, im2col
from repro.baselines.tvm import TvmCompiler, TvmGlueStep
from repro.core.dtypes import DType
from repro.core.ops import conv2d_depthwise, conv2d_standard
from repro.errors import PlanError
from repro.gpu.specs import GTX1660, RTX_A4000
from repro.ir.blocks import dsc_block, inverted_residual_block, standard_conv
from repro.ir.graph import GlueSpec, ModelGraph
from repro.kernels.params import make_layer_params
from repro.models.zoo import build_model
from repro.runtime.session import TvmSession


class TestIm2col:
    def test_shape(self, rng):
        x = rng.standard_normal((3, 8, 8)).astype(np.float32)
        cols = im2col(x, 3, 1, 1)
        assert cols.shape == (27, 64)

    def test_conv_equivalence(self, rng):
        x = rng.standard_normal((3, 9, 9)).astype(np.float32)
        w = rng.standard_normal((5, 3, 3, 3)).astype(np.float32)
        np.testing.assert_allclose(
            conv_via_im2col(x, w, 2, 1), conv2d_standard(x, w, 2, 1), rtol=1e-4
        )

    def test_depthwise_equivalence(self, rng):
        x = rng.standard_normal((4, 9, 9)).astype(np.float32)
        w = rng.standard_normal((4, 3, 3)).astype(np.float32)
        np.testing.assert_allclose(
            depthwise_via_im2col(x, w, 1, 1), conv2d_depthwise(x, w, 1, 1), rtol=1e-4
        )
        # INT8: conv2d_depthwise accumulates by NumPy's int32 einsum.
        xq = rng.integers(-128, 128, (4, 9, 9)).astype(np.int8)
        wq = rng.integers(-128, 128, (4, 3, 3)).astype(np.int8)
        y = depthwise_via_im2col(xq, wq, 2, 1)
        assert y.dtype == np.int32
        np.testing.assert_array_equal(y, conv2d_depthwise(xq, wq, 2, 1))


@settings(max_examples=20, deadline=None)
@given(
    c=st.integers(1, 4),
    m=st.integers(1, 6),
    h=st.integers(4, 10),
    k=st.sampled_from([1, 3]),
    s=st.integers(1, 2),
)
def test_im2col_oracle_property(c, m, h, k, s):
    """im2col-GEMM and direct convolution agree on random geometries; at
    INT8 the GEMM equals NumPy's int32 einsum exactly."""
    rng = np.random.default_rng(c * 37 + m * 11 + h + k + s)
    x = rng.standard_normal((c, h, h)).astype(np.float32)
    w = rng.standard_normal((m, c, k, k)).astype(np.float32)
    np.testing.assert_allclose(
        conv_via_im2col(x, w, s, k // 2),
        conv2d_standard(x, w, s, k // 2),
        rtol=1e-4, atol=1e-5,
    )
    xq = rng.integers(-128, 128, (c, h, h)).astype(np.int8)
    wq = rng.integers(-128, 128, (m, c, k, k)).astype(np.int8)
    y = conv_via_im2col(xq, wq, s, k // 2)
    assert y.dtype == np.int32
    np.testing.assert_array_equal(y, int32_conv2d(xq, wq, s, k // 2))


class TestCudnnModels:
    def test_implicit_beats_explicit_gemm(self):
        """Paper §VI-B: implicit GEMMs outperform direct GEMM."""
        for spec in (pw_spec(c_in=32, c_out=64, h=56, w=56),
                     dw_spec(c=64, h=56, w=56)):
            t_gemm = cudnn_timing(spec, CudnnAlgo.GEMM, RTX_A4000).t_total_s
            t_imp = cudnn_timing(spec, CudnnAlgo.IMPLICIT_GEMM, RTX_A4000).t_total_s
            t_pre = cudnn_timing(
                spec, CudnnAlgo.IMPLICIT_PRECOMP_GEMM, RTX_A4000
            ).t_total_s
            assert t_pre <= t_imp <= t_gemm

    def test_best_algo_is_precomp(self):
        algo, _ = best_cudnn_algo(pw_spec(c_in=32, c_out=64, h=56, w=56), RTX_A4000)
        assert algo is CudnnAlgo.IMPLICIT_PRECOMP_GEMM

    def test_explicit_gemm_pays_materialization(self):
        spec = pw_spec(c_in=32, c_out=64, h=28, w=28)
        c_gemm = cudnn_counters(spec, CudnnAlgo.GEMM)
        c_imp = cudnn_counters(spec, CudnnAlgo.IMPLICIT_GEMM)
        assert c_gemm.global_writes["im2col"] > 0
        assert "im2col" not in c_imp.global_writes
        assert c_gemm.total_bytes > c_imp.total_bytes

    def test_dw_duplicated_reads(self):
        spec = dw_spec(c=32, h=28, w=28, kernel=3)
        c = cudnn_counters(spec, CudnnAlgo.IMPLICIT_GEMM)
        # ~k^2/2 duplication: far more than one pass over the IFM.
        assert c.global_reads["ifm"] > 3 * spec.ifm.nbytes

    def test_occupancy_penalty(self):
        """Few blocks on many SMs must slow a launch down."""
        small = pw_spec(c_in=512, c_out=512, h=7, w=7)
        t64 = cudnn_timing(small, CudnnAlgo.IMPLICIT_PRECOMP_GEMM, RTX_A4000, 64)
        blocks = cudnn_blocks(small, 512)
        assert blocks < RTX_A4000.sm_count
        t512 = cudnn_timing(small, CudnnAlgo.IMPLICIT_PRECOMP_GEMM, RTX_A4000, 512)
        # The giant blocking moves fewer bytes but may not win once occupancy
        # collapses; at minimum both remain finite and ordered deterministically.
        assert t64.t_total_s > 0 and t512.t_total_s > 0

    @pytest.mark.parametrize("batch", (1, 2))
    def test_tallies_are_fresh_per_caller(self, batch):
        """Pricing reads one per-process tally per launch geometry, but no
        caller can reach it: a tally from ``cudnn_counters`` or from
        ``cudnn_batched`` is the caller's own to mutate."""
        spec = dw_spec(c=32, h=28, w=28)
        algo = CudnnAlgo.IMPLICIT_GEMM
        expected = cudnn_batched(spec, algo, RTX_A4000, batch)
        tally = cudnn_counters(spec, algo)
        assert tally is not cudnn_counters(spec, algo)
        tally.read("ifm", 4096)
        tally.compute(4096)
        tally.reread(4096, 4096)
        cudnn_batched(spec, algo, RTX_A4000, batch)[0].read("ifm", 4096)
        again = cudnn_batched(spec, algo, RTX_A4000, batch)
        assert again == expected
        assert again[0] == cudnn_counters(spec, algo).batched(batch, spec.weights_bytes)

    def test_run_cudnn_matches_reference(self):
        for spec in (
            pw_spec(c_in=8, c_out=16, h=12, w=12),
            dw_spec(c=8, h=12, w=12),
            pw_spec(dtype=DType.INT8),
        ):
            params = make_layer_params(spec)
            x = random_ifm(spec)
            out = run_cudnn(params, x, CudnnAlgo.IMPLICIT_GEMM)
            ref = ref_layer(params, x)
            assert out.shape == spec.ofm.shape and out.dtype == ref.dtype
            if spec.dtype is DType.INT8:
                np.testing.assert_array_equal(out, ref)
            else:
                np.testing.assert_allclose(out, ref, rtol=1e-4, atol=1e-4)


class TestAutotune:
    def test_deterministic(self):
        cand = list(range(100))
        r1 = random_search(cand, lambda x: (x - 42) ** 2, 20, seed=7)
        r2 = random_search(cand, lambda x: (x - 42) ** 2, 20, seed=7)
        assert r1 == r2

    def test_exhaustive_when_small(self):
        best, cost, evaluated = random_search([3, 1, 2], lambda x: x, 20, seed=0)
        assert best == 1 and cost == 1 and evaluated == 3

    def test_reports_evaluation_budget(self):
        out = random_search(list(range(100)), lambda x: x, 20, seed=3)
        assert out.evaluated == 20

    def test_cost_ties_break_to_lowest_index(self):
        # Flat cost surface: every seed must return candidate index 0 of the
        # sampled set — and with an exhaustive budget, index 0 overall.
        cand = ["a", "b", "c", "d"]
        for seed in range(5):
            out = random_search(cand, lambda _x: 1.0, iterations=10, seed=seed)
            assert out.config == "a"
        # Partial budgets still tie-break on candidate index within the
        # sampled subset: identical across repeat runs.
        big = list(range(1000))
        o1 = random_search(big, lambda _x: 0.0, iterations=5, seed=11)
        o2 = random_search(big, lambda _x: 0.0, iterations=5, seed=11)
        assert o1 == o2 and o1.evaluated == 5

    def test_empty_rejected(self):
        with pytest.raises(PlanError):
            random_search([], lambda x: x)

    def test_zero_budget_rejected(self):
        with pytest.raises(PlanError, match="iterations >= 1"):
            random_search([1, 2], lambda x: x, iterations=0)


class TestTvmCompiler:
    def _graph(self):
        g = ModelGraph("m")
        first = standard_conv(g, "stem", 3, 16, 56, 56, stride=2)
        last = inverted_residual_block(g, "ir1", 16, 16, 28, 28, after=first)
        dsc_block(g, "b1", 16, 32, 28, 28, after=last)
        return g

    def test_compile_covers_all_layers(self):
        g = self._graph()
        plan = TvmCompiler(GTX1660).compile(g)
        conv_names = {c.name for c in g.conv_layers()}
        assert {s.spec.name for s in plan.conv_steps} == conv_names

    def test_adds_are_fused(self):
        plan = TvmCompiler(GTX1660).compile(self._graph())
        glue = [s for s in plan.steps if isinstance(s, TvmGlueStep)]
        adds = [s for s in glue if s.spec.op == "add"]
        assert adds and all(s.fused for s in adds)
        non_adds = [s for s in glue if s.spec.op != "add"]
        assert all(not s.fused for s in non_adds)

    def test_tuning_deterministic(self):
        g = self._graph()
        p1 = TvmCompiler(GTX1660).compile(g)
        p2 = TvmCompiler(GTX1660).compile(g)
        assert [
            (s.spec.name, s.algo, s.gemm_tile) for s in p1.conv_steps
        ] == [(s.spec.name, s.algo, s.gemm_tile) for s in p2.conv_steps]

    def test_describe(self):
        plan = TvmCompiler(GTX1660).compile(self._graph())
        assert "TvmPlan" in plan.describe()

    def test_compile_takes_the_graph_precision(self):
        """Without ``dtype`` an INT8 graph compiles (and is priced) as INT8."""
        g = build_model("mobilenet_v1", DType.INT8)
        plan = TvmCompiler(GTX1660).compile(g)
        explicit = TvmCompiler(GTX1660).compile(g, DType.INT8)
        assert plan.dtype is DType.INT8
        assert plan.steps == explicit.steps
        assert TvmSession(g, plan).run_analytic().records == \
            TvmSession(g, explicit).run_analytic().records
        glue_only = ModelGraph("glue")
        glue_only.add(GlueSpec("gap", "gap", 16))
        assert TvmCompiler(GTX1660).compile(glue_only).dtype is DType.FP32

    def test_same_geometry_tuned_once_and_keeps_names(self):
        g = ModelGraph("twins")
        g.add(pw_spec("a", c_in=8, c_out=8, h=16, w=16))
        g.add(pw_spec("b", c_in=8, c_out=8, h=16, w=16))
        tvm._tuned.cache_clear()
        plan = TvmCompiler(GTX1660).compile(g)
        assert tvm._tuned.cache_info().misses == 1
        assert [s.spec for s in plan.conv_steps] == [g.spec("a"), g.spec("b")]
        a, b = plan.conv_steps
        assert (a.algo, a.gemm_tile, a.tuned_cost_s) == (b.algo, b.gemm_tile, b.tuned_cost_s)
        assert "CONV a:" in plan.describe() and "CONV b:" in plan.describe()
        TvmCompiler(RTX_A4000).compile(g)  # another GPU is another tuning
        assert tvm._tuned.cache_info().misses == 2

    @pytest.mark.parametrize("dtype", [DType.FP32, DType.INT8])
    def test_cold_plan_equals_warm_plan(self, dtype):
        graph = build_model("mobilenet_v2", dtype)
        tvm._tuned.cache_clear()
        cold = TvmCompiler(RTX_A4000).compile(graph, dtype)
        for model in ("mobilenet_v1", "xception"):
            TvmCompiler(RTX_A4000).compile(build_model(model, dtype), dtype)
        warm = TvmCompiler(RTX_A4000).compile(graph, dtype)
        assert tvm._tuned.cache_info().hits > 0
        assert warm.steps == cold.steps
        assert warm.describe() == cold.describe()
