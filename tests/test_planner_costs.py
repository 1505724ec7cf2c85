"""Cost-model tests: paper equations verbatim + the analytic counters == simulated."""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import dw_spec, pw_spec, random_ifm
from repro.core.dtypes import DType
from repro.core.tiling import DwTiling, PwTiling, ceil_div, overlap_elements
from repro.errors import ShapeError, UnsupportedError
from repro.gpu.specs import RTX_A4000
from repro.ir.layers import ConvKind, ConvSpec
from repro.kernels.params import make_layer_params
from repro.kernels.registry import build_lbl_kernel
from repro.planner.analytic import lbl_counters
from repro.planner.costs import (
    dw_feasible,
    dw_gma,
    pw_feasible,
    pw_gma,
    pw_tile_footprint,
)


class TestPwGmaEquation2:
    def test_verbatim_value(self):
        """Eq. 2 on a hand-computable case."""
        spec = pw_spec(c_in=8, c_out=16, h=12, w=12)  # out_hw = 144
        t = PwTiling(tile_m=4, tile_hw=36)
        est = pw_gma(spec, t)
        weights = 16 * 8
        reads = ceil_div(16, 4) * (8 * 144) + ceil_div(144, 36) * weights
        assert est.reads_elems == reads
        assert est.writes_elems == 16 * 144
        assert est.total_bytes == (reads + 16 * 144) * 4

    def test_int8_bytes_quartered(self):
        spec = pw_spec()
        t = PwTiling(4, 36)
        assert (
            pw_gma(spec.with_dtype(DType.INT8), t).total_bytes * 4
            == pw_gma(spec, t).total_bytes
        )

    def test_larger_weight_tiles_fewer_ifm_reads(self):
        spec = pw_spec(c_in=32, c_out=64, h=14, w=14)
        small = pw_gma(spec, PwTiling(8, 49))
        big = pw_gma(spec, PwTiling(64, 49))
        assert big.reads_elems < small.reads_elems

    def test_kind_checked(self):
        with pytest.raises(ShapeError):
            pw_gma(dw_spec(), PwTiling(4, 16))

    def test_unknown_convention(self):
        # The equations take no convention: the measured model is the
        # analytic counters'.
        with pytest.raises(TypeError):
            pw_gma(pw_spec(), PwTiling(4, 16), "guessed")


class TestDwGmaEquation3:
    def test_verbatim_value_stride1(self):
        spec = dw_spec(c=8, h=16, w=16, kernel=3, stride=1)
        t = DwTiling(tile_c=8, tile_h=8, tile_w=8)
        est = dw_gma(spec, t)
        ovl = overlap_elements(16, 16, 8, 8, 3, 3, 1)
        reads = 2 * 8 * ovl + 8 * 16 * 16 + 4 * (8 * 9)
        assert est.reads_elems == reads
        assert est.writes_elems == 8 * 16 * 16

    def test_single_tile_no_overlap_term(self):
        spec = dw_spec(c=4, h=10, w=10)
        est = dw_gma(spec, DwTiling(4, 10, 10))
        assert est.reads_elems == 4 * 100 + 4 * 9

    def test_measured_matches_simulator_exactly(self):
        for kernel, stride, th, tw, tc in [
            (3, 1, 5, 5, 4), (3, 2, 4, 4, 8), (5, 1, 6, 7, 2), (5, 2, 3, 3, 8),
        ]:
            spec = dw_spec(c=8, h=16, w=16, kernel=kernel, stride=stride)
            params = make_layer_params(spec)
            x = random_ifm(spec)
            tiling = {"tile_c": tc, "tile_h": th, "tile_w": tw}
            res = build_lbl_kernel(params, tiling).simulate(x, RTX_A4000, "reference")
            est = lbl_counters(spec, tiling)
            assert res.counters.total_bytes == est.total_bytes
            assert res.counters.read_bytes == est.read_bytes
            assert res.counters.write_bytes == est.write_bytes

    def test_paper_convention_upper_bounds_measured(self):
        """2x overlap charging + no border clamping => paper >= measured."""
        spec = dw_spec(c=8, h=28, w=28)
        for th in (4, 7, 14):
            t = DwTiling(8, th, th)
            measured = lbl_counters(spec, {"tile_c": 8, "tile_h": th, "tile_w": th})
            assert dw_gma(spec, t).total_bytes >= measured.total_bytes


class TestPwMeasuredMatchesSimulator:
    @pytest.mark.parametrize("tile_m,tile_hw", [(4, 16), (16, 144), (3, 7)])
    def test_exact(self, tile_m, tile_hw):
        spec = pw_spec(c_in=8, c_out=16, h=12, w=12)
        params = make_layer_params(spec)
        tiling = {"tile_m": tile_m, "tile_hw": tile_hw}
        res = build_lbl_kernel(params, tiling).simulate(random_ifm(spec), RTX_A4000, "reference")
        assert res.counters.total_bytes == lbl_counters(spec, tiling).total_bytes
        # Eq. 2 is exactly what a PW kernel issues.
        assert res.counters.total_bytes == pw_gma(spec, PwTiling(tile_m, tile_hw)).total_bytes

    def test_strided(self):
        spec = pw_spec(stride=2)
        params = make_layer_params(spec)
        res = build_lbl_kernel(params, {"tile_m": 4, "tile_hw": 9}).simulate(
            random_ifm(spec), RTX_A4000, "reference"
        )
        assert res.counters.total_bytes == pw_gma(spec, PwTiling(4, 9)).total_bytes


class TestConstraints:
    def test_pw_occupancy(self):
        spec = pw_spec(c_in=8, c_out=16, h=12, w=12)
        # 1 tile only -> violates #tiles >= #SMs on RTX (48 SMs).
        assert not pw_feasible(spec, PwTiling(16, 144), RTX_A4000)
        assert pw_feasible(spec, PwTiling(2, 16), RTX_A4000)

    def test_dw_l1(self, tiny_gpu):
        spec = dw_spec(c=64, h=64, w=64)
        assert not dw_feasible(spec, DwTiling(64, 64, 64), tiny_gpu)
        assert dw_feasible(spec, DwTiling(1, 8, 8), tiny_gpu)

    def test_footprint_streams_reduction(self):
        """The PW footprint must not scale with the channel count."""
        a = pw_tile_footprint(pw_spec(c_in=8), PwTiling(16, 32))
        b = pw_tile_footprint(pw_spec(c_in=1024), PwTiling(16, 32))
        assert a == b

    def test_lbl_dispatch(self):
        with pytest.raises(ShapeError):
            dw_gma(pw_spec(), DwTiling(1, 1, 1))
        std = ConvSpec("std", ConvKind.STANDARD, 3, 8, 12, 12, kernel=3, stride=1, padding=1)
        with pytest.raises(UnsupportedError):
            lbl_counters(std, {"tile_m": 1, "tile_hw": 1})


@settings(max_examples=30, deadline=None)
@given(
    c=st.sampled_from([4, 8, 16]),
    m=st.sampled_from([8, 16, 32]),
    hw=st.sampled_from([8, 12, 16]),
    tile_m=st.sampled_from([2, 4, 8, 64]),
    tile_hw=st.sampled_from([4, 16, 64, 256]),
)
def test_pw_measured_equals_simulated_property(c, m, hw, tile_m, tile_hw):
    """Property: Eq. 2 == the analytic counters == simulator bytes on random
    configs."""
    spec = pw_spec(c_in=c, c_out=m, h=hw, w=hw)
    params = make_layer_params(spec)
    x = np.random.default_rng(0).standard_normal(spec.ifm.shape).astype(np.float32)
    tiling = {"tile_m": tile_m, "tile_hw": tile_hw}
    res = build_lbl_kernel(params, tiling).simulate(x, RTX_A4000, "reference")
    assert res.counters.total_bytes == lbl_counters(spec, tiling).total_bytes
    assert res.counters.total_bytes == pw_gma(spec, PwTiling(tile_m, tile_hw)).total_bytes


def test_cost_equations_and_measured_model_are_split():
    """The cost functions are the paper's equations only and the measured
    model lives in :mod:`repro.planner.analytic`: no function under
    ``src/repro/planner`` takes a ``convention``, and only the analytic
    module defines ``_axis_sums`` (the clamped-window sums it prices)."""
    planner = Path(__file__).resolve().parents[1] / "src" / "repro" / "planner"
    takes_convention, defines_axis_sums = [], []
    for path in sorted(planner.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            names = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]
            names += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            if "convention" in names:
                takes_convention.append(f"{path.name}::{node.name}")
            if node.name == "_axis_sums":
                defines_axis_sums.append(path.name)
    assert takes_convention == []
    assert defines_axis_sums == ["analytic.py"]
