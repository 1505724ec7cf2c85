"""Property-based tests: simulated kernels vs golden reference on random geometry.

Hypothesis drives layer geometry, tile sizes and precision; every draw runs
on both engines and must satisfy (1) functional equivalence with the
reference operators, (2) exact agreement between the analytic counters
(:mod:`repro.planner.analytic`, the measured model) and the metered bytes,
MACs, commBuffer bytes and peak shared bytes, (3) the output-stationary
invariant (OFMs written exactly once).
The fast engine reports the measured model, so the per-block reference
engine is what holds the model to the blocks' actual loads, stores,
shared-memory traffic and work.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import dw_spec, pw_spec, random_ifm, ref_layer
from repro.core.chain import FusedChain
from repro.core.dtypes import DType
from repro.gpu.specs import RTX_A4000
from repro.kernels.params import chain_quant, make_layer_params
from repro.kernels.registry import build_chain_kernel, build_lbl_kernel
from repro.planner.analytic import chain_counters, lbl_counters
from repro.planner.chain_costs import chain_dataflow

_DTYPES = st.sampled_from([DType.FP32, DType.INT8])


def _assert_matches(res, ref, dtype):
    if dtype is DType.INT8:
        np.testing.assert_array_equal(res.output, ref)
    else:
        np.testing.assert_allclose(res.output, ref, rtol=1e-4, atol=1e-4)


def _run_both(kernel, x, ref, dtype, total_bytes: int, total_macs: int, shared=(0, 0)):
    """Simulate ``kernel`` on the fast and the reference engine; both must
    match ``ref`` and meter exactly the model's bytes, MACs and ``shared``
    ``(commBuffer bytes, peak per-block shared bytes)`` (none for a direct
    kernel).  Returns ``(fast, reference)`` results."""
    results = (kernel.simulate(x, RTX_A4000), kernel.simulate(x, RTX_A4000, "reference"))
    for res in results:
        _assert_matches(res, ref, dtype)
        assert res.counters.total_bytes == total_bytes
        assert res.counters.total_macs == total_macs
        assert (res.counters.shared_bytes, res.stats.peak_shared_bytes) == shared
    return results


def _check_chain(params, tiling, x, ref, dtype):
    """:func:`_run_both` on a fused chain against the measured chain model;
    the redundant (recomputed halo) MACs are the model's on both engines."""
    specs = tuple(p.spec for p in params)
    flow = chain_dataflow(FusedChain(specs), tiling)
    model = chain_counters(specs, tiling)
    results = _run_both(
        build_chain_kernel(params, tiling), x, ref, dtype,
        model.total_bytes, model.total_macs, (flow.comm_bytes, flow.comm_peak),
    )
    for res in results:
        assert res.counters.redundant_macs == model.redundant_macs
    return results


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
    tiling = {"tile_m": tile_m, "tile_hw": tile_hw}
    for res in _run_both(
        build_lbl_kernel(params, tiling), x, ref_layer(params, x), dtype,
        lbl_counters(spec, tiling).total_bytes, spec.macs,
    ):
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
    tiling = {"tile_c": tile_c, "tile_h": tile_h, "tile_w": tile_h}
    for res in _run_both(
        build_lbl_kernel(params, tiling), x, ref_layer(params, x), dtype,
        lbl_counters(spec, tiling).total_bytes, spec.macs,
    ):
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
    _check_chain([p1, p2], tiling, x, ref_layer(p2, ref_layer(p1, x)), dtype)


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
    _check_chain([p1, p2], tiling, x, ref_layer(p2, ref_layer(p1, x)), dtype)


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
    fast, _ = _check_chain([p1, p2], tiling, x, ref_layer(p2, ref_layer(p1, x)), dtype)
    assert fast.counters.redundant_macs == 0


@settings(max_examples=20, deadline=None)
@given(
    c=st.sampled_from([3, 8]),
    mid=st.sampled_from([4, 12]),
    m=st.sampled_from([4, 10]),
    h=st.integers(5, 14),
    kernel=st.sampled_from([3, 5]),
    dw_stride=st.integers(1, 2),
    tile_h=st.sampled_from([1, 3, 4, 16]),
    tile_w=st.sampled_from([2, 5, 16]),
    tile_m=st.sampled_from([2, 8, 64]),
    dtype=_DTYPES,
)
def test_chain3_total_correctness(c, mid, m, h, kernel, dw_stride, tile_h, tile_w, tile_m, dtype):
    """PW -> DW -> PW under the chain keys: the middle DW's halo is
    recomputed by every block sharing it, through two backward steps."""
    pw_a = pw_spec("A", c_in=c, c_out=mid, h=h, w=h, dtype=dtype)
    dw_b = dw_spec("B", c=mid, h=h, w=h, kernel=kernel, stride=dw_stride, dtype=dtype)
    pw_c = pw_spec("C", c_in=mid, c_out=m, h=dw_b.out_h, w=dw_b.out_w, dtype=dtype)
    p_a = make_layer_params(pw_a)
    p_b = chain_quant(p_a, dw_b)
    p_c = chain_quant(p_b, pw_c)
    x = random_ifm(pw_a)
    tiling = {"tile_h": tile_h, "tile_w": tile_w, "tile_m": tile_m}
    ref = ref_layer(p_c, ref_layer(p_b, ref_layer(p_a, x)))
    _check_chain([p_a, p_b, p_c], tiling, x, ref, dtype)
