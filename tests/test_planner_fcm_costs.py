"""FCM estimator tests: Eq. 4 family, analytic counters == simulated per
module type.

Every FCM is the length-2 chain under its type's tiling vocabulary, so each
check prices the pair through the chain model (the paper's equations, or the
measured model of :func:`~repro.planner.analytic.chain_counters`) and runs it
through the chain kernel the registry builds for that vocabulary.
"""

from __future__ import annotations

import pytest

from helpers import dw_spec, pw_spec, random_ifm
from repro.core.chain import FusedChain
from repro.core.tiling import ceil_div
from repro.errors import ShapeError
from repro.gpu.specs import ORIN, RTX_A4000
from repro.kernels.params import chain_quant, make_layer_params
from repro.kernels.registry import build_chain_kernel
from repro.planner.analytic import chain_counters
from repro.planner.chain_costs import chain_feasible, chain_footprints, chain_gma


def _simulate(first, second, tiling, gpu=RTX_A4000):
    """The per-block reference launch, which meters every block itself."""
    p1 = make_layer_params(first)
    p2 = chain_quant(p1, second)
    x = random_ifm(first)
    return build_chain_kernel([p1, p2], tiling).simulate(x, gpu, "reference")


def _gma(first, second, tiling):
    return chain_gma(FusedChain((first, second)), tiling)


class TestMeasuredMatchesSimulator:
    def test_dwpw(self):
        dw = dw_spec(c=8, h=14, w=14)
        pw = pw_spec(c_in=8, c_out=24, h=14, w=14)
        tiling = {"tile_h": 5, "tile_w": 5, "tile_m": 8}
        res = _simulate(dw, pw, tiling)
        cost = chain_counters((dw, pw), tiling)
        assert res.counters.total_bytes == cost.total_bytes
        assert res.counters.total_macs == cost.total_macs

    def test_pwdw(self):
        pw = pw_spec(c_in=8, c_out=16, h=12, w=12)
        dw = dw_spec(c=16, h=12, w=12, stride=2)
        res = _simulate(pw, dw, {"tile_f": 4}, ORIN)
        cost = chain_counters((pw, dw), {"tile_f": 4})
        assert res.counters.total_bytes == cost.total_bytes

    @pytest.mark.parametrize("stride", [1, 2])
    def test_pwdw_r(self, stride):
        pw = pw_spec(c_in=8, c_out=16, h=12, w=12)
        dw = dw_spec(c=16, h=12, w=12, stride=stride)
        tiling = {"tile_f": 8, "tile_h": 3, "tile_w": 3}
        res = _simulate(pw, dw, tiling)
        cost = chain_counters((pw, dw), tiling)
        assert res.counters.total_bytes == cost.total_bytes
        assert res.counters.redundant_macs == cost.redundant_macs
        assert res.counters.redundancy_ratio == pytest.approx(cost.redundancy_ratio)

    def test_pwpw(self):
        pw1 = pw_spec("pw1", c_in=8, c_out=24, h=10, w=10)
        pw2 = pw_spec("pw2", c_in=24, c_out=16, h=10, w=10)
        tiling = {"tile_hw": 25, "tile_m": 8}
        res = _simulate(pw1, pw2, tiling)
        cost = chain_counters((pw1, pw2), tiling)
        assert res.counters.total_bytes == cost.total_bytes


class TestEquation4PaperConvention:
    def test_verbatim_structure(self):
        """Eq. 4 terms on a hand-checkable PWDW_R configuration."""
        pw = pw_spec(c_in=4, c_out=8, h=8, w=8)
        dw = dw_spec(c=8, h=8, w=8, kernel=3, stride=1)
        tiling = {"tile_f": 4, "tile_h": 4, "tile_w": 4}
        cost = _gma(pw, dw, tiling)
        from repro.core.tiling import overlap_elements

        ovl = overlap_elements(8, 8, 4, 4, 3, 3, 1)
        n_f = ceil_div(8, 4)
        n_sp = 4
        expected_reads = (
            (2 * 4 * ovl + 4 * 64) * n_f + n_sp * (8 * 4) + n_sp * (8 * 9)
        )
        assert cost.gma.reads_elems == expected_reads
        assert cost.gma.writes_elems == 8 * 64

    def test_no_redundancy_without_spatial_tiling(self):
        pw = pw_spec(c_in=4, c_out=8, h=8, w=8)
        dw = dw_spec(c=8, h=8, w=8)
        cost = _gma(pw, dw, {"tile_f": 4, "tile_h": 8, "tile_w": 8})
        assert cost.redundant_macs == 0

    def test_pair_validation(self):
        pw = pw_spec(c_in=4, c_out=8, h=8, w=8)
        dw = dw_spec(c=16, h=8, w=8)  # channel mismatch
        with pytest.raises(ShapeError):
            _gma(pw, dw, {"tile_f": 4, "tile_h": 4, "tile_w": 4})
        with pytest.raises(ShapeError):  # a PW->DW pair does not speak DWPW
            _gma(pw, dw_spec(c=8, h=8, w=8), {"tile_h": 4, "tile_w": 4, "tile_m": 4})


class TestFootprintsAndFeasibility:
    def test_comm_buffer_is_the_shared_need(self):
        pw = pw_spec(c_in=8, c_out=32, h=16, w=16)
        dw = dw_spec(c=32, h=16, w=16)
        tiling = {"tile_f": 16, "tile_h": 4, "tile_w": 4}
        _l1, shared, _n = chain_footprints(FusedChain((pw, dw)), tiling)
        assert shared == 16 * 6 * 6 * 4  # tile_f x halo-extended window, fp32

    def test_tile_count(self):
        pw = pw_spec(c_in=8, c_out=32, h=16, w=16)
        dw = dw_spec(c=32, h=16, w=16)
        _l1, _s, n = chain_footprints(
            FusedChain((pw, dw)), {"tile_f": 16, "tile_h": 4, "tile_w": 4}
        )
        assert n == 2 * 4 * 4

    def test_infeasible_when_comm_exceeds_shared(self, tiny_gpu):
        pw = pw_spec(c_in=16, c_out=128, h=32, w=32)
        dw = dw_spec(c=128, h=32, w=32)
        assert not chain_feasible(FusedChain((pw, dw)), {"tile_f": 128}, tiny_gpu)

    def test_occupancy_constraint(self):
        pw = pw_spec(c_in=8, c_out=16, h=8, w=8)
        dw = dw_spec(c=16, h=8, w=8)
        # Single tile -> one block -> violates #tiles >= 48 SMs on RTX.
        assert not chain_feasible(
            FusedChain((pw, dw)), {"tile_f": 16, "tile_h": 8, "tile_w": 8}, RTX_A4000
        )

    def test_int8_widens_feasibility(self, tiny_gpu):
        """Paper §VI-A: halved elements let bigger tiles fit."""
        from repro.core.dtypes import DType

        pw32 = pw_spec(c_in=16, c_out=64, h=16, w=16)
        dw32 = dw_spec(c=64, h=16, w=16)
        # commBuffer = tile_f*16*16 elems: 16 KiB at FP32 (> 8 KiB shared on
        # tiny_gpu), 4 KiB at INT8 (fits).
        tiling = {"tile_f": 16}
        fits32 = chain_feasible(FusedChain((pw32, dw32)), tiling, tiny_gpu)
        fits8 = chain_feasible(
            FusedChain((pw32.with_dtype(DType.INT8), dw32.with_dtype(DType.INT8))),
            tiling,
            tiny_gpu,
        )
        assert not fits32 and fits8
