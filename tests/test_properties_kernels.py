"""Property-based tests: simulated kernels vs golden reference on random geometry.

Hypothesis drives layer geometry, tile sizes and precision; every draw must
satisfy (1) functional equivalence with the reference operators, (2) exact
agreement between the measured-convention estimators and the metered bytes,
(3) the output-stationary invariant (OFMs written exactly once).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import dw_spec, pw_spec, random_ifm, ref_layer
from repro.core.chain import FusedChain
from repro.core.dtypes import DType
from repro.core.tiling import DwTiling, PwTiling
from repro.gpu.specs import RTX_A4000
from repro.kernels.params import chain_quant, make_layer_params
from repro.kernels.registry import build_chain_kernel, build_lbl_kernel
from repro.planner.chain_costs import chain_gma
from repro.planner.costs import dw_gma, pw_gma

_DTYPES = st.sampled_from([DType.FP32, DType.INT8])


def _assert_matches(res, ref, dtype):
    if dtype is DType.INT8:
        np.testing.assert_array_equal(res.output, ref)
    else:
        np.testing.assert_allclose(res.output, ref, rtol=1e-4, atol=1e-4)


@settings(max_examples=30, deadline=None)
@given(
    c=st.sampled_from([3, 8, 16]),
    m=st.sampled_from([4, 8, 24]),
    h=st.integers(5, 14),
    stride=st.integers(1, 2),
    tile_m=st.sampled_from([1, 4, 16, 64]),
    tile_hw=st.sampled_from([3, 16, 64, 1024]),
    dtype=_DTYPES,
)
def test_pw_kernel_total_correctness(c, m, h, stride, tile_m, tile_hw, dtype):
    spec = pw_spec(c_in=c, c_out=m, h=h, w=h, stride=stride, dtype=dtype)
    params = make_layer_params(spec)
    x = random_ifm(spec)
    res = build_lbl_kernel(params, {"tile_m": tile_m, "tile_hw": tile_hw}).simulate(
        x, RTX_A4000
    )
    _assert_matches(res, ref_layer(params, x), dtype)
    tm = min(tile_m, m)
    thw = min(tile_hw, spec.out_h * spec.out_w)
    assert res.counters.total_bytes == pw_gma(
        spec, PwTiling(tm, thw), "measured"
    ).total_bytes
    assert res.counters.global_writes["ofm"] == spec.ofm.nbytes


@settings(max_examples=30, deadline=None)
@given(
    c=st.sampled_from([2, 8, 12]),
    h=st.integers(6, 16),
    kernel=st.sampled_from([3, 5]),
    stride=st.integers(1, 2),
    tile_c=st.sampled_from([1, 4, 16]),
    tile_h=st.sampled_from([2, 5, 16]),
    dtype=_DTYPES,
)
def test_dw_kernel_total_correctness(c, h, kernel, stride, tile_c, tile_h, dtype):
    spec = dw_spec(c=c, h=h, w=h, kernel=kernel, stride=stride, dtype=dtype)
    params = make_layer_params(spec)
    x = random_ifm(spec)
    res = build_lbl_kernel(
        params, {"tile_c": tile_c, "tile_h": tile_h, "tile_w": tile_h}
    ).simulate(x, RTX_A4000)
    _assert_matches(res, ref_layer(params, x), dtype)
    t = DwTiling(min(tile_c, c), min(tile_h, spec.out_h), min(tile_h, spec.out_w))
    assert res.counters.total_bytes == dw_gma(spec, t, "measured").total_bytes
    assert res.counters.global_writes["ofm"] == spec.ofm.nbytes


@settings(max_examples=25, deadline=None)
@given(
    c=st.sampled_from([4, 8]),
    mid=st.sampled_from([8, 16]),
    h=st.integers(6, 14),
    dw_stride=st.integers(1, 2),
    tile_f=st.sampled_from([2, 8, 32]),
    tile_h=st.sampled_from([2, 4, 16]),
    dtype=_DTYPES,
)
def test_pwdw_r_total_correctness(c, mid, h, dw_stride, tile_f, tile_h, dtype):
    pw = pw_spec(c_in=c, c_out=mid, h=h, w=h, dtype=dtype)
    dw = dw_spec(c=mid, h=h, w=h, stride=dw_stride, dtype=dtype)
    p1 = make_layer_params(pw)
    p2 = chain_quant(p1, dw)
    x = random_ifm(pw)
    tiling = {"tile_f": tile_f, "tile_h": tile_h, "tile_w": tile_h}
    res = build_chain_kernel([p1, p2], tiling).simulate(x, RTX_A4000)
    _assert_matches(res, ref_layer(p2, ref_layer(p1, x)), dtype)
    cost = chain_gma(FusedChain((pw, dw)), tiling, "measured")
    assert res.counters.total_bytes == cost.gma.total_bytes
    assert res.counters.redundant_macs == cost.redundant_macs


@settings(max_examples=20, deadline=None)
@given(
    c=st.sampled_from([4, 8]),
    mid=st.sampled_from([6, 16]),
    m=st.sampled_from([4, 12]),
    h=st.integers(5, 12),
    tile_hw=st.sampled_from([4, 16, 256]),
    tile_m=st.sampled_from([2, 8, 64]),
    dtype=_DTYPES,
)
def test_pwpw_total_correctness(c, mid, m, h, tile_hw, tile_m, dtype):
    pw1 = pw_spec("pw1", c_in=c, c_out=mid, h=h, w=h, dtype=dtype)
    pw2 = pw_spec("pw2", c_in=mid, c_out=m, h=h, w=h, dtype=dtype)
    p1 = make_layer_params(pw1)
    p2 = chain_quant(p1, pw2)
    x = random_ifm(pw1)
    tiling = {"tile_hw": tile_hw, "tile_m": tile_m}
    res = build_chain_kernel([p1, p2], tiling).simulate(x, RTX_A4000)
    _assert_matches(res, ref_layer(p2, ref_layer(p1, x)), dtype)
    cost = chain_gma(FusedChain((pw1, pw2)), tiling, "measured")
    assert res.counters.total_bytes == cost.gma.total_bytes


@settings(max_examples=20, deadline=None)
@given(
    c=st.sampled_from([4, 8]),
    m=st.sampled_from([4, 16]),
    h=st.integers(6, 14),
    dw_stride=st.integers(1, 2),
    tile_h=st.sampled_from([2, 4, 16]),
    tile_m=st.sampled_from([2, 8, 64]),
    dtype=_DTYPES,
)
def test_dwpw_total_correctness(c, m, h, dw_stride, tile_h, tile_m, dtype):
    dw = dw_spec(c=c, h=h, w=h, stride=dw_stride, dtype=dtype)
    pw = pw_spec(c_in=c, c_out=m, h=dw.out_h, w=dw.out_w, dtype=dtype)
    p1 = make_layer_params(dw)
    p2 = chain_quant(p1, pw)
    x = random_ifm(dw)
    tiling = {"tile_h": tile_h, "tile_w": tile_h, "tile_m": tile_m}
    res = build_chain_kernel([p1, p2], tiling).simulate(x, RTX_A4000)
    _assert_matches(res, ref_layer(p2, ref_layer(p1, x)), dtype)
    cost = chain_gma(FusedChain((dw, pw)), tiling, "measured")
    assert res.counters.total_bytes == cost.gma.total_bytes
    assert res.counters.redundant_macs == 0
