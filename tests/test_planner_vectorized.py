"""Parity suite: the vectorized grid search vs the scalar reference oracle.

The grid search (``best_*_tiling``, ``FusePlanner``) must be a pure
*implementation* change of the scalar sweeps (``scalar_*_tiling``,
``ScalarPlanner``) — bit-identical ``SearchResult`` winners and whole-model
plans for every fused module, each a (chain, vocabulary) case, including
the rank order's
tie-breaking (warp-multiple first, GMA, then larger tiles, first minimum in
sweep order wins).  The hypothesis property tests pin the stronger invariant
underneath: every grid cell's feasibility and GMA equals the scalar
predicate evaluated pointwise, so parity of winners is not an accident of
the argmin.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import dw_spec, pw_spec
from repro.core.chain import FusedChain
from repro.core.dtypes import DType
from repro.core.fcm import FcmType
from repro.core.tiling import DwTiling, PwTiling
from repro.errors import PlanError
from repro.gpu.specs import GTX1660, ORIN, RTX_A4000
from repro.models.zoo import build_model
from repro.planner.chain_costs import (
    FCM_TILING_KEYS,
    chain_feasible,
    chain_gma,
    chain_tiling_keys,
)
from repro.planner.costs import dw_feasible, dw_gma, pw_feasible, pw_gma
from repro.planner.grid_search import chain_grid, lbl_grid, pow2_candidates
from repro.planner.memo import GeometryMemo, shared_memo
from repro.planner.planner import FusePlanner, ScalarPlanner
from repro.planner.search import (
    best_chain_tiling,
    best_lbl_tiling,
    scalar_chain_tiling,
    scalar_lbl_tiling,
)

GPUS = (GTX1660, RTX_A4000, ORIN)
CONVENTIONS = ("paper", "measured")

#: every fused module the parity suites cover: the four FCMs, each a pair
#: under its type's vocabulary, and a PW->DW->PW chain under the chain keys.
MODULES = ("DWPW", "PWDW", "PWDW_R", "PWPW", "PW-DW-PW")

#: (c, m, hw) of each module in the search-parity suite.
SHAPES = {
    "DWPW": (32, 64, 28),
    "PWDW": (32, 16, 28),
    "PWDW_R": (32, 16, 28),
    "PWPW": (16, 32, 14),
    "PW-DW-PW": (16, 32, 28),
}


def _module(
    module: str, c: int, m: int, hw: int, stride: int = 1, dtype: DType = DType.FP32
) -> tuple[FusedChain, tuple[str, ...]]:
    """One module as (chain, vocabulary): ``c`` and ``m`` channels on an
    ``hw`` x ``hw`` plane, ``stride`` on the DW stage."""
    if module == "DWPW":
        dw = dw_spec(c=c, h=hw, w=hw, stride=stride, dtype=dtype)
        specs = (dw, pw_spec(c_in=c, c_out=m, h=dw.out_h, w=dw.out_w, dtype=dtype))
    elif module in ("PWDW", "PWDW_R"):
        specs = (
            pw_spec(c_in=m, c_out=c, h=hw, w=hw, dtype=dtype),
            dw_spec(c=c, h=hw, w=hw, stride=stride, dtype=dtype),
        )
    elif module == "PWPW":
        specs = (
            pw_spec(c_in=c, c_out=m, h=hw, w=hw, dtype=dtype),
            pw_spec(c_in=m, c_out=2 * m, h=hw, w=hw, dtype=dtype),
        )
    else:
        dw = dw_spec(c=m, h=hw, w=hw, stride=stride, dtype=dtype)
        specs = (
            pw_spec(c_in=c, c_out=m, h=hw, w=hw, dtype=dtype),
            dw,
            pw_spec(c_in=m, c_out=2 * m, h=dw.out_h, w=dw.out_w, dtype=dtype),
        )
    chain = FusedChain(specs)
    if module in FcmType.__members__:
        return chain, FCM_TILING_KEYS[FcmType[module]]
    return chain, chain_tiling_keys(chain)


class TestPow2Candidates:
    def test_tuple_sorted_unique_includes_limit(self):
        assert pow2_candidates(100) == (1, 2, 4, 8, 16, 32, 64, 100)
        assert pow2_candidates(64) == (1, 2, 4, 8, 16, 32, 64)
        assert pow2_candidates(784, minimum=4) == (4, 8, 16, 32, 64, 128, 256, 512, 784)

    def test_minimum_above_limit_yields_limit(self):
        assert pow2_candidates(3, minimum=4) == (3,)

    def test_lru_cached_identity(self):
        # The whole point of hoisting: repeat calls return the same tuple.
        assert pow2_candidates(112) is pow2_candidates(112)


class TestDirectSearchParity:
    """Every best_* grid search equals its scalar_* sweep exactly."""

    @pytest.mark.parametrize("gpu", GPUS, ids=lambda g: g.name)
    @pytest.mark.parametrize("convention", CONVENTIONS)
    @pytest.mark.parametrize("dtype", (DType.FP32, DType.INT8))
    def test_lbl(self, gpu, convention, dtype):
        for spec in (
            pw_spec(c_in=32, c_out=64, h=56, w=56, dtype=dtype),
            pw_spec(c_in=144, c_out=24, h=28, w=28, dtype=dtype),
            dw_spec(c=32, h=56, w=56, dtype=dtype),
            dw_spec(c=96, h=28, w=28, stride=2, dtype=dtype),
        ):
            vec = best_lbl_tiling(spec, gpu, convention)
            ref = scalar_lbl_tiling(spec, gpu, convention)
            assert vec == ref

    @pytest.mark.parametrize("gpu", GPUS, ids=lambda g: g.name)
    @pytest.mark.parametrize("convention", CONVENTIONS)
    @pytest.mark.parametrize("module", MODULES)
    def test_fcm(self, gpu, convention, module):
        for dtype in (DType.FP32, DType.INT8):
            chain, keys = _module(module, *SHAPES[module], dtype=dtype)
            vec = best_chain_tiling(chain, keys, gpu, convention)
            ref = scalar_chain_tiling(chain, keys, gpu, convention)
            assert vec == ref  # including both being None (infeasible)

    def test_infeasible_lbl_raises_same_error(self):
        from repro.gpu.specs import GpuSpec

        nano = GpuSpec(
            name="nano", compute_capability="0", sm_count=100000, cuda_cores=1,
            l1_kb=1, shared_kb=1, l2_mb=0.1, dram="X", dram_bw_gbps=1, clock_ghz=1,
        )
        # Too few blocks to cover 100000 SMs: infeasible for both searches.
        for search in (best_lbl_tiling, scalar_lbl_tiling):
            with pytest.raises(PlanError, match="no feasible LBL tiling"):
                search(pw_spec(), nano)


class TestPlanParity:
    """Whole-model plans are bit-identical between FusePlanner and the
    ScalarPlanner oracle (the acceptance criterion).  The grid planner gets a
    fresh memo; the scalar one never reads a memo, so it always sweeps."""

    @pytest.mark.parametrize("gpu", (GTX1660, RTX_A4000), ids=lambda g: g.name)
    @pytest.mark.parametrize("model", ("mobilenet_v1", "mobilenet_v2", "xception"))
    def test_zoo_fp32(self, model, gpu):
        graph = build_model(model, DType.FP32)
        vec = FusePlanner(gpu, memo=GeometryMemo()).plan(graph)
        ref = ScalarPlanner(gpu).plan(graph)
        assert vec.steps == ref.steps

    @pytest.mark.parametrize("convention", CONVENTIONS)
    @pytest.mark.parametrize("dtype", (DType.FP32, DType.INT8))
    def test_conventions_and_dtypes(self, convention, dtype):
        graph = build_model("mobilenet_v2", dtype)
        vec = FusePlanner(ORIN, convention, memo=GeometryMemo()).plan(graph)
        ref = ScalarPlanner(ORIN, convention).plan(graph)
        assert vec.steps == ref.steps

    @pytest.mark.parametrize("max_chain", (3, 4))
    def test_chains(self, max_chain):
        graph = build_model("proxylessnas", DType.FP32)
        vec = FusePlanner(RTX_A4000, max_chain=max_chain, memo=GeometryMemo()).plan(graph)
        ref = ScalarPlanner(RTX_A4000, max_chain=max_chain).plan(graph)
        assert vec.steps == ref.steps

    def test_scalar_planner_never_reads_a_memo(self):
        # A memo full of grid-search winners must not short-cut the oracle.
        memo = GeometryMemo()
        graph = build_model("mobilenet_v1", DType.FP32)
        FusePlanner(GTX1660, memo=memo).plan(graph)
        before = (memo.hits, memo.misses, len(memo))
        ScalarPlanner(GTX1660, memo=memo).plan(graph)
        assert (memo.hits, memo.misses, len(memo)) == before


class TestGridPointwise:
    """Every grid cell equals the scalar predicate — not just the argmin."""

    @settings(max_examples=25, deadline=None)
    @given(
        c_in=st.integers(1, 96), c_out=st.integers(1, 96),
        hw=st.integers(4, 32), stride=st.sampled_from((1, 2)),
        convention=st.sampled_from(CONVENTIONS),
        dtype=st.sampled_from((DType.FP32, DType.INT8)),
    )
    def test_pw_grid_matches_scalar(self, c_in, c_out, hw, stride, convention, dtype):
        spec = pw_spec(c_in=c_in, c_out=c_out, h=hw, w=hw, stride=stride, dtype=dtype)
        grid = lbl_grid(spec, ORIN, convention)
        for cell in np.ndindex(grid.shape):
            t = grid.tiling_at(int(np.ravel_multi_index(cell, grid.shape)))
            tiling = PwTiling(t["tile_m"], t["tile_hw"])
            assert bool(grid.feasible[cell]) == pw_feasible(spec, tiling, ORIN)
            assert int(grid.gma_bytes[cell]) == pw_gma(spec, tiling, convention).total_bytes

    @settings(max_examples=25, deadline=None)
    @given(
        c=st.integers(1, 96), hw=st.integers(4, 32),
        kernel=st.sampled_from((3, 5)), stride=st.sampled_from((1, 2)),
        convention=st.sampled_from(CONVENTIONS),
    )
    def test_dw_grid_matches_scalar(self, c, hw, kernel, stride, convention):
        spec = dw_spec(c=c, h=hw, w=hw, kernel=kernel, stride=stride)
        grid = lbl_grid(spec, GTX1660, convention)
        for cell in np.ndindex(grid.shape):
            t = grid.tiling_at(int(np.ravel_multi_index(cell, grid.shape)))
            tiling = DwTiling(t["tile_c"], t["tile_h"], t["tile_w"])
            assert bool(grid.feasible[cell]) == dw_feasible(spec, tiling, GTX1660)
            assert int(grid.gma_bytes[cell]) == dw_gma(spec, tiling, convention).total_bytes

    @settings(max_examples=15, deadline=None)
    @given(
        c=st.sampled_from((8, 16, 32)), m=st.sampled_from((8, 24, 64)),
        hw=st.integers(6, 24), stride=st.sampled_from((1, 2)),
        module=st.sampled_from(MODULES),
        convention=st.sampled_from(CONVENTIONS),
    )
    def test_fcm_grid_matches_scalar(self, c, m, hw, stride, module, convention):
        self._check_grid(*_module(module, c, m, hw, stride), convention)

    @pytest.mark.parametrize("convention", CONVENTIONS)
    def test_chain_grid_matches_scalar(self, convention):
        self._check_grid(*_module("PW-DW-PW", *SHAPES["PW-DW-PW"]), convention)

    @staticmethod
    def _check_grid(chain, keys, convention):
        for gpu in (RTX_A4000, ORIN):
            grid = chain_grid(chain, keys, gpu, convention)
            for cell in np.ndindex(grid.shape):
                t = grid.tiling_at(int(np.ravel_multi_index(cell, grid.shape)))
                assert bool(grid.feasible[cell]) == chain_feasible(chain, t, gpu)
                if grid.feasible[cell]:
                    cost = chain_gma(chain, t, convention)
                    assert int(grid.gma_bytes[cell]) == cost.gma.total_bytes
                    red = int(grid.redundant_macs[cell])
                    useful = int(grid.useful_macs[cell])
                    total = red + useful
                    ratio = red / total if total else 0.0
                    assert ratio == cost.redundancy_ratio


class TestGeometryMemo:
    def test_hit_skips_search(self):
        memo = GeometryMemo()
        spec = pw_spec(c_in=32, c_out=64, h=28, w=28)
        first = best_lbl_tiling(spec, RTX_A4000, memo=memo)
        calls = 0

        def counting():
            nonlocal calls
            calls += 1
            return None

        again = memo.get_or_search(memo.lbl_key(spec, RTX_A4000, "paper"), counting)
        assert calls == 0 and again == first
        assert memo.hits == 1 and memo.misses == 1

    def test_infeasible_none_is_memoized(self):
        # A GPU with more SMs than any tiling can cover: the fused module is
        # infeasible, and the None outcome must be stored, not re-proved.
        from repro.gpu.specs import GpuSpec

        wide = GpuSpec(
            name="wide", compute_capability="0", sm_count=100000, cuda_cores=1,
            l1_kb=128, shared_kb=96, l2_mb=4, dram="X", dram_bw_gbps=100,
            clock_ghz=1,
        )
        memo = GeometryMemo()
        chain, keys = _module("PWPW", *SHAPES["PWPW"])
        r1 = best_chain_tiling(chain, keys, wide, memo=memo)
        r2 = best_chain_tiling(chain, keys, wide, memo=memo)
        assert r1 is None and r2 is None
        assert memo.hits == 1 and len(memo) == 1

    def test_exceptions_are_not_memoized(self):
        memo = GeometryMemo()

        def boom():
            raise PlanError("transient")

        with pytest.raises(PlanError):
            memo.get_or_search(("k",), boom)
        assert len(memo) == 0
        assert memo.get_or_search(("k",), lambda: None) is None

    def test_shared_across_planner_instances(self):
        memo = GeometryMemo()
        graph = build_model("mobilenet_v1", DType.FP32)
        p1 = FusePlanner(GTX1660, memo=memo).plan(graph)
        searched = memo.misses
        p2 = FusePlanner(GTX1660, memo=memo).plan(graph)
        assert p1.steps == p2.steps
        assert memo.misses == searched  # second planner replayed every search
        assert memo.hits > 0

    def test_default_is_the_process_shared_memo(self):
        assert FusePlanner(RTX_A4000).memo is shared_memo()
