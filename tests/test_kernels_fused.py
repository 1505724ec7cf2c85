"""Functional correctness and accounting of the four FCM kernels."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from helpers import dw_spec, pw_spec, random_ifm, ref_layer
from repro.core.dtypes import DType
from repro.core.fcm import FcmType
from repro.core.tiling import ceil_div, tile_input_range
from repro.errors import CapacityError, ShapeError, UnsupportedError
from repro.gpu.specs import ALL_GPUS, ORIN, RTX_A4000
from repro.ir.graph import ModelGraph
from repro.ir.layers import ConvKind
from repro.kernels.params import chain_quant, make_layer_params
from repro.kernels.registry import build_chain_kernel, build_fcm_kernel, build_lbl_kernel
from repro.models.zoo import build_model, model_names
from repro.planner.fcm_costs import fcm_feasible
from repro.planner.planner import FusePlanner
from repro.planner.search import best_fcm_tiling, scalar_fcm_tiling
from repro.runtime.session import InferenceSession


def _pair(first_spec, second_spec, seed=0):
    p1 = make_layer_params(first_spec, seed=seed)
    p2 = chain_quant(p1, second_spec, seed=seed)
    x = random_ifm(first_spec, seed)
    return p1, p2, x, ref_layer(p2, ref_layer(p1, x))


class TestDwPwFused:
    def test_matches_reference(self):
        dw = dw_spec(c=8, h=14, w=14)
        pw = pw_spec(c_in=8, c_out=24, h=14, w=14)
        p1, p2, x, ref = _pair(dw, pw)
        res = build_fcm_kernel(
            FcmType.DWPW, p1, p2, {"tile_h": 5, "tile_w": 5, "tile_m": 8}
        ).simulate(x, RTX_A4000)
        np.testing.assert_allclose(res.output, ref, rtol=1e-4, atol=1e-4)
        assert res.counters.redundant_macs == 0

    def test_strided_dw_producer(self):
        dw = dw_spec(c=8, h=14, w=14, stride=2)
        pw = pw_spec(c_in=8, c_out=16, h=7, w=7)
        p1, p2, x, ref = _pair(dw, pw)
        res = build_fcm_kernel(
            FcmType.DWPW, p1, p2, {"tile_h": 3, "tile_w": 3, "tile_m": 16}
        ).simulate(x, RTX_A4000)
        np.testing.assert_allclose(res.output, ref, rtol=1e-4, atol=1e-4)

    def test_intermediate_never_in_global(self):
        dw = dw_spec(c=8, h=14, w=14)
        pw = pw_spec(c_in=8, c_out=24, h=14, w=14)
        p1, p2, x, _ = _pair(dw, pw)
        res = build_fcm_kernel(
            FcmType.DWPW, p1, p2, {"tile_h": 7, "tile_w": 7, "tile_m": 8}
        ).simulate(x, RTX_A4000)
        # Global writes must be exactly the final OFM.
        assert res.counters.write_bytes == pw.ofm.nbytes
        assert res.counters.shared_bytes > 0  # commBuffer traffic happened

    def test_saves_traffic_vs_lbl(self):
        dw = dw_spec(c=16, h=28, w=28)
        pw = pw_spec(c_in=16, c_out=32, h=28, w=28)
        p1, p2, x, _ = _pair(dw, pw)
        fcm = build_fcm_kernel(
            FcmType.DWPW, p1, p2, {"tile_h": 7, "tile_w": 7, "tile_m": 32}
        ).simulate(x, RTX_A4000)
        l1 = build_lbl_kernel(p1, {"tile_c": 16, "tile_h": 7, "tile_w": 7}).simulate(
            x, RTX_A4000
        )
        l2 = build_lbl_kernel(p2, {"tile_m": 32, "tile_hw": 98}).simulate(
            l1.output, RTX_A4000
        )
        assert fcm.counters.total_bytes < l1.counters.total_bytes + l2.counters.total_bytes

    def test_pair_mismatch_rejected(self):
        dw = dw_spec(c=8, h=14, w=14)
        pw = pw_spec(c_in=16, c_out=24, h=14, w=14)  # wrong channel count
        p1 = make_layer_params(dw)
        p2 = make_layer_params(pw)
        with pytest.raises(ShapeError):
            build_fcm_kernel(FcmType.DWPW, p1, p2, {"tile_h": 7, "tile_w": 7, "tile_m": 8})


class TestPwDwFused:
    def test_matches_reference_no_redundancy(self):
        pw = pw_spec(c_in=8, c_out=16, h=12, w=12)
        dw = dw_spec(c=16, h=12, w=12, stride=2)
        p1, p2, x, ref = _pair(pw, dw)
        res = build_fcm_kernel(FcmType.PWDW, p1, p2, {"tile_f": 4}).simulate(x, ORIN)
        np.testing.assert_allclose(res.output, ref, rtol=1e-4, atol=1e-4)
        assert res.counters.redundant_macs == 0

    def test_ifm_restreamed_per_group(self):
        pw = pw_spec(c_in=8, c_out=16, h=12, w=12)
        dw = dw_spec(c=16, h=12, w=12)
        p1, p2, x, _ = _pair(pw, dw)
        r4 = build_fcm_kernel(FcmType.PWDW, p1, p2, {"tile_f": 4}).simulate(x, ORIN)
        r16 = build_fcm_kernel(FcmType.PWDW, p1, p2, {"tile_f": 16}).simulate(x, ORIN)
        assert r4.counters.global_reads["ifm"] == 4 * r16.counters.global_reads["ifm"]

    def test_weights_read_once_total(self):
        pw = pw_spec(c_in=8, c_out=16, h=12, w=12)
        dw = dw_spec(c=16, h=12, w=12)
        p1, p2, x, _ = _pair(pw, dw)
        res = build_fcm_kernel(FcmType.PWDW, p1, p2, {"tile_f": 4}).simulate(x, ORIN)
        assert res.counters.global_reads["weights"] == (
            pw.weights_bytes + dw.weights_bytes
        )


class TestPwDwRFused:
    @pytest.mark.parametrize("stride", [1, 2])
    def test_matches_reference(self, stride):
        pw = pw_spec(c_in=8, c_out=16, h=12, w=12)
        dw = dw_spec(c=16, h=12, w=12, stride=stride)
        p1, p2, x, ref = _pair(pw, dw)
        res = build_fcm_kernel(
            FcmType.PWDW_R, p1, p2, {"tile_f": 8, "tile_h": 3, "tile_w": 3}
        ).simulate(x, RTX_A4000)
        np.testing.assert_allclose(res.output, ref, rtol=1e-4, atol=1e-4)

    def test_redundancy_reported_and_positive(self):
        pw = pw_spec(c_in=8, c_out=16, h=12, w=12)
        dw = dw_spec(c=16, h=12, w=12)
        p1, p2, x, _ = _pair(pw, dw)
        res = build_fcm_kernel(
            FcmType.PWDW_R, p1, p2, {"tile_f": 8, "tile_h": 4, "tile_w": 4}
        ).simulate(x, RTX_A4000)
        assert res.counters.redundant_macs > 0
        assert 0 < res.counters.redundancy_ratio < 0.5
        # Total executed MACs conserved: useful part equals the pair's MACs.
        assert res.counters.macs == pw.macs + dw.macs

    def test_full_spatial_tile_no_redundancy(self):
        """With one spatial tile the _R variant degenerates redundancy-free."""
        pw = pw_spec(c_in=8, c_out=16, h=10, w=10)
        dw = dw_spec(c=16, h=10, w=10)
        p1, p2, x, _ = _pair(pw, dw)
        res = build_fcm_kernel(
            FcmType.PWDW_R, p1, p2, {"tile_f": 4, "tile_h": 10, "tile_w": 10}
        ).simulate(x, RTX_A4000)
        assert res.counters.redundant_macs == 0

    def test_smaller_tiles_more_redundancy(self):
        pw = pw_spec(c_in=8, c_out=16, h=12, w=12)
        dw = dw_spec(c=16, h=12, w=12)
        p1, p2, x, _ = _pair(pw, dw)
        big = build_fcm_kernel(
            FcmType.PWDW_R, p1, p2, {"tile_f": 8, "tile_h": 6, "tile_w": 6}
        ).simulate(x, RTX_A4000)
        small = build_fcm_kernel(
            FcmType.PWDW_R, p1, p2, {"tile_f": 8, "tile_h": 2, "tile_w": 2}
        ).simulate(x, RTX_A4000)
        assert small.counters.redundancy_ratio > big.counters.redundancy_ratio


class TestPwPwFused:
    def test_matches_reference(self):
        pw1 = pw_spec("pw1", c_in=8, c_out=24, h=10, w=10)
        pw2 = pw_spec("pw2", c_in=24, c_out=16, h=10, w=10)
        p1, p2, x, ref = _pair(pw1, pw2)
        res = build_fcm_kernel(
            FcmType.PWPW, p1, p2, {"tile_hw": 25, "tile_m": 8}
        ).simulate(x, RTX_A4000)
        np.testing.assert_allclose(res.output, ref, rtol=1e-4, atol=1e-4)
        assert res.counters.redundant_macs == 0

    def test_ifm_read_once(self):
        pw1 = pw_spec("pw1", c_in=8, c_out=24, h=10, w=10)
        pw2 = pw_spec("pw2", c_in=24, c_out=16, h=10, w=10)
        p1, p2, x, _ = _pair(pw1, pw2)
        res = build_fcm_kernel(
            FcmType.PWPW, p1, p2, {"tile_hw": 25, "tile_m": 8}
        ).simulate(x, RTX_A4000)
        assert res.counters.global_reads["ifm"] == pw1.ifm.nbytes

    def test_strided_second_rejected(self):
        pw1 = pw_spec("pw1", c_in=8, c_out=24, h=10, w=10)
        pw2 = pw_spec("pw2", c_in=24, c_out=16, h=10, w=10, stride=2)
        p1 = make_layer_params(pw1)
        p2 = chain_quant(p1, pw2)
        with pytest.raises(UnsupportedError):
            build_fcm_kernel(FcmType.PWPW, p1, p2, {"tile_hw": 25, "tile_m": 8})

    def test_strided_second_is_never_planned(self):
        """The planner must not pick a PWPW tiling the kernel refuses: the
        flattened plane has no strided later stage, so the grid, the scalar
        sweep and fcm_feasible all find the vocabulary infeasible, and the
        plan runs."""
        pw1 = pw_spec("pw1", c_in=32, c_out=64, h=56, w=56, dtype=DType.INT8)
        pw2 = pw_spec("pw2", c_in=64, c_out=32, h=56, w=56, stride=2, dtype=DType.INT8)
        graph = ModelGraph("strided_pwpw")
        graph.add(pw1)
        graph.add(pw2)
        x = random_ifm(pw1, 0)
        for gpu in ALL_GPUS:
            assert best_fcm_tiling(FcmType.PWPW, pw1, pw2, gpu) is None
            assert scalar_fcm_tiling(FcmType.PWPW, pw1, pw2, gpu) is None
            assert not fcm_feasible(
                FcmType.PWPW, pw1, pw2, {"tile_hw": 16, "tile_m": 32}, gpu
            )
            plan = FusePlanner(gpu).plan(graph)
            assert not plan.fcm_steps
            out = InferenceSession(graph, plan).run(x).output
            assert out.shape == pw2.ofm.shape


class TestInt8FusedEquivalence:
    """Fused INT8 must be bit-exact against the two-kernel LBL execution."""

    @pytest.mark.parametrize("fcm_type", [FcmType.PWDW, FcmType.PWDW_R])
    def test_pw_dw_variants(self, fcm_type):
        pw = pw_spec(c_in=8, c_out=16, h=12, w=12, dtype=DType.INT8)
        dw = dw_spec(c=16, h=12, w=12, dtype=DType.INT8)
        p1, p2, x, _ = _pair(pw, dw)
        l1 = build_lbl_kernel(p1, {"tile_m": 8, "tile_hw": 36}).simulate(x, RTX_A4000)
        l2 = build_lbl_kernel(p2, {"tile_c": 8, "tile_h": 4, "tile_w": 4}).simulate(
            l1.output, RTX_A4000
        )
        tiling = (
            {"tile_f": 8} if fcm_type is FcmType.PWDW
            else {"tile_f": 8, "tile_h": 4, "tile_w": 4}
        )
        fused = build_fcm_kernel(fcm_type, p1, p2, tiling).simulate(x, RTX_A4000)
        np.testing.assert_array_equal(fused.output, l2.output)

    def test_dwpw(self):
        dw = dw_spec(c=8, h=12, w=12, dtype=DType.INT8)
        pw = pw_spec(c_in=8, c_out=16, h=12, w=12, dtype=DType.INT8)
        p1, p2, x, _ = _pair(dw, pw)
        l1 = build_lbl_kernel(p1, {"tile_c": 8, "tile_h": 4, "tile_w": 4}).simulate(
            x, RTX_A4000
        )
        l2 = build_lbl_kernel(p2, {"tile_m": 8, "tile_hw": 36}).simulate(
            l1.output, RTX_A4000
        )
        fused = build_fcm_kernel(
            FcmType.DWPW, p1, p2, {"tile_h": 4, "tile_w": 4, "tile_m": 8}
        ).simulate(x, RTX_A4000)
        np.testing.assert_array_equal(fused.output, l2.output)

    def test_pwpw(self):
        pw1 = pw_spec("pw1", c_in=8, c_out=24, h=10, w=10, dtype=DType.INT8)
        pw2 = pw_spec("pw2", c_in=24, c_out=16, h=10, w=10, dtype=DType.INT8)
        p1, p2, x, _ = _pair(pw1, pw2)
        l1 = build_lbl_kernel(p1, {"tile_m": 8, "tile_hw": 25}).simulate(x, RTX_A4000)
        l2 = build_lbl_kernel(p2, {"tile_m": 8, "tile_hw": 25}).simulate(
            l1.output, RTX_A4000
        )
        fused = build_fcm_kernel(
            FcmType.PWPW, p1, p2, {"tile_hw": 25, "tile_m": 8}
        ).simulate(x, RTX_A4000)
        np.testing.assert_array_equal(fused.output, l2.output)


class TestFusedCapacity:
    def test_comm_buffer_overflow(self, tiny_gpu):
        pw = pw_spec(c_in=16, c_out=256, h=32, w=32)
        dw = dw_spec(c=256, h=32, w=32)
        p1, p2, x, _ = _pair(pw, dw)
        k = build_fcm_kernel(FcmType.PWDW, p1, p2, {"tile_f": 256})
        with pytest.raises(CapacityError):
            k.simulate(x, tiny_gpu)


def _zoo_fcm_steps():
    """Every fused step of the zoo plans (6 models x FP32/INT8 x 3 GPUs x
    ``max_chain`` 2-3), in planning order, with the GPU planning it."""
    for model in model_names():
        for dtype in (DType.FP32, DType.INT8):
            graph = build_model(model, dtype)
            for gpu in ALL_GPUS:
                for max_chain in (2, 3):
                    for step in FusePlanner(gpu, max_chain=max_chain).plan(graph).fcm_steps:
                        yield step, gpu


def _zoo_dwpw_steps():
    """Every distinct DWPW step of the zoo plans, with the GPU first planning it."""
    steps = {}
    for step, gpu in _zoo_fcm_steps():
        if step.fcm_type is FcmType.DWPW:
            steps.setdefault((step.specs, tuple(step.tiling.items())), gpu)
    return [(specs, dict(tiling), gpu) for (specs, tiling), gpu in steps.items()]


#: the small DWPW cases of the classes above (dw, pw, tiling).
_SMALL_DWPW = [
    (dw_spec(c=8, h=14, w=14), pw_spec(c_in=8, c_out=24, h=14, w=14),
     {"tile_h": 5, "tile_w": 5, "tile_m": 8}),
    (dw_spec(c=8, h=14, w=14, stride=2), pw_spec(c_in=8, c_out=16, h=7, w=7),
     {"tile_h": 3, "tile_w": 3, "tile_m": 16}),
    (dw_spec(c=8, h=14, w=14), pw_spec(c_in=8, c_out=24, h=14, w=14),
     {"tile_h": 7, "tile_w": 7, "tile_m": 8}),
    (dw_spec(c=16, h=28, w=28), pw_spec(c_in=16, c_out=32, h=28, w=28),
     {"tile_h": 7, "tile_w": 7, "tile_m": 32}),
    (dw_spec(c=8, h=12, w=12, dtype=DType.INT8),
     pw_spec(c_in=8, c_out=16, h=12, w=12, dtype=DType.INT8),
     {"tile_h": 4, "tile_w": 4, "tile_m": 8}),
]


def _hash_dwpw_launch(h, dw, pw, tiling, gpu, engine: str) -> None:
    """Feed one two-image DWPW launch into ``h``: output bytes, every counter
    field and the launch statistics except the kernel's name."""
    p_dw = make_layer_params(dw)
    params = [p_dw, chain_quant(p_dw, pw)]
    x = np.stack([random_ifm(dw, 0), random_ifm(dw, 1)])
    res = build_chain_kernel(params, tiling, FcmType.DWPW).simulate_batch(x, gpu, engine)
    c, st = res.counters, res.stats
    h.update(repr((res.output.dtype.str, res.output.shape)).encode())
    h.update(res.output.tobytes())
    h.update(repr((
        sorted(c.global_reads.items()), sorted(c.global_writes.items()),
        c.shared_bytes, c.rereads, c.macs, c.redundant_macs, c.kernel_launches,
        st.num_blocks, st.peak_shared_bytes, st.waves,
    )).encode())


class TestPinnedDwPwLaunches:
    """Regression guard: the bytes and accounting of DWPW launches, pinned.

    Every distinct DWPW step of the zoo plans runs on the fast engine and
    the small cases above on the reference engine.  A change that means to
    move them re-pins the digest and says so; any other change must leave
    it as it is.
    """

    #: SHA-256 over every launch below, in sweep order.
    DIGEST = "bc849e83e1e85076b760f61cfe155132118d8b6ce7435c3943e6c0920e46a290"

    def test_dwpw_launches_are_pinned(self):
        h = hashlib.sha256()
        for specs, tiling, gpu in _zoo_dwpw_steps():
            _hash_dwpw_launch(h, *specs, tiling, gpu, "fast")
        for dw, pw, tiling in _SMALL_DWPW:
            _hash_dwpw_launch(h, dw, pw, tiling, RTX_A4000, "reference")
        assert h.hexdigest() == self.DIGEST


def _geometry(spec) -> tuple:
    """Everything a launch's accounting depends on, minus the layer name."""
    return (
        spec.kind, spec.in_channels, spec.out_channels, spec.in_h, spec.in_w,
        spec.kernel, spec.stride, spec.padding, spec.dtype,
    )


def _zoo_pair_launches():
    """(FCM type, first, second, tiling, GPU) of every distinct (type, stage
    geometry, tiling) PWDW and PWDW_R step of the zoo plans, then of every
    zoo PW->PW pair at its best feasible PWPW tiling on each GPU (no zoo plan
    picks PWPW, but the planner's candidates hold these)."""
    steps = {}
    for step, gpu in _zoo_fcm_steps():
        if step.fcm_type in (FcmType.PWDW, FcmType.PWDW_R):
            key = (step.fcm_type, tuple(map(_geometry, step.specs)), tuple(step.tiling.items()))
            steps.setdefault(key, (step.fcm_type, *step.specs, dict(step.tiling), gpu))
    launches = list(steps.values())
    pairs = {}
    for model in model_names():
        for dtype in (DType.FP32, DType.INT8):
            for run in build_model(model, dtype).fusion_runs():
                for a, b in zip(run, run[1:]):
                    if a.kind is b.kind is ConvKind.POINTWISE:
                        pairs.setdefault((_geometry(a), _geometry(b)), (a, b))
    for a, b in pairs.values():
        for gpu in ALL_GPUS:
            res = best_fcm_tiling(FcmType.PWPW, a, b, gpu)
            if res is not None:
                launches.append((FcmType.PWPW, a, b, res.tiling, gpu))
    return launches


#: the small PWDW, PWDW_R and PWPW cases of the classes above, plus a PWDW
#: case whose last channel group is partial and a PWPW case whose last pixel
#: tile is partial, with several tile_m groups: (type, first, second, tiling).
_SMALL_PAIRS = [
    (FcmType.PWDW, pw_spec(c_in=8, c_out=16, h=12, w=12),
     dw_spec(c=16, h=12, w=12, stride=2), {"tile_f": 4}),
    (FcmType.PWDW, pw_spec(c_in=8, c_out=16, h=12, w=12),
     dw_spec(c=16, h=12, w=12), {"tile_f": 4}),
    (FcmType.PWDW, pw_spec(c_in=8, c_out=16, h=12, w=12),
     dw_spec(c=16, h=12, w=12), {"tile_f": 16}),
    (FcmType.PWDW, pw_spec(c_in=8, c_out=12, h=12, w=12),
     dw_spec(c=12, h=12, w=12, stride=2), {"tile_f": 8}),
    (FcmType.PWDW_R, pw_spec(c_in=8, c_out=16, h=12, w=12),
     dw_spec(c=16, h=12, w=12), {"tile_f": 8, "tile_h": 3, "tile_w": 3}),
    (FcmType.PWDW_R, pw_spec(c_in=8, c_out=16, h=12, w=12),
     dw_spec(c=16, h=12, w=12, stride=2), {"tile_f": 8, "tile_h": 3, "tile_w": 3}),
    (FcmType.PWDW_R, pw_spec(c_in=8, c_out=16, h=12, w=12),
     dw_spec(c=16, h=12, w=12), {"tile_f": 8, "tile_h": 4, "tile_w": 4}),
    (FcmType.PWDW_R, pw_spec(c_in=8, c_out=16, h=10, w=10),
     dw_spec(c=16, h=10, w=10), {"tile_f": 4, "tile_h": 10, "tile_w": 10}),
    (FcmType.PWDW_R, pw_spec(c_in=8, c_out=16, h=12, w=12),
     dw_spec(c=16, h=12, w=12), {"tile_f": 8, "tile_h": 6, "tile_w": 6}),
    (FcmType.PWDW_R, pw_spec(c_in=8, c_out=16, h=12, w=12),
     dw_spec(c=16, h=12, w=12), {"tile_f": 8, "tile_h": 2, "tile_w": 2}),
    (FcmType.PWPW, pw_spec("pw1", c_in=8, c_out=24, h=10, w=10),
     pw_spec("pw2", c_in=24, c_out=16, h=10, w=10), {"tile_hw": 25, "tile_m": 8}),
    (FcmType.PWPW, pw_spec("pw1", c_in=8, c_out=24, h=10, w=10),
     pw_spec("pw2", c_in=24, c_out=16, h=10, w=10), {"tile_hw": 16, "tile_m": 6}),
    (FcmType.PWDW, pw_spec(c_in=8, c_out=16, h=12, w=12, dtype=DType.INT8),
     dw_spec(c=16, h=12, w=12, dtype=DType.INT8), {"tile_f": 8}),
    (FcmType.PWDW_R, pw_spec(c_in=8, c_out=16, h=12, w=12, dtype=DType.INT8),
     dw_spec(c=16, h=12, w=12, dtype=DType.INT8), {"tile_f": 8, "tile_h": 4, "tile_w": 4}),
    (FcmType.PWPW, pw_spec("pw1", c_in=8, c_out=24, h=10, w=10, dtype=DType.INT8),
     pw_spec("pw2", c_in=24, c_out=16, h=10, w=10, dtype=DType.INT8),
     {"tile_hw": 25, "tile_m": 8}),
]


def _hash_pair_launch(h, fcm_type, first, second, tiling, gpu, engine: str):
    """Feed one single-image launch into ``h`` as :func:`_hash_dwpw_launch`
    does, minus the shared-memory metering; return the launch result."""
    p1 = make_layer_params(first)
    kernel = build_fcm_kernel(fcm_type, p1, chain_quant(p1, second), tiling)
    res = kernel.simulate(random_ifm(first, 0), gpu, engine)
    c, st = res.counters, res.stats
    h.update(repr((res.output.dtype.str, res.output.shape)).encode())
    h.update(res.output.tobytes())
    h.update(repr((
        sorted(c.global_reads.items()), sorted(c.global_writes.items()),
        c.rereads, c.macs, c.redundant_macs, c.kernel_launches,
        st.num_blocks, st.waves,
    )).encode())
    return res


@pytest.fixture(scope="module")
def pair_launches():
    """Run every pinned pair launch once: (digest, [(case, result stats)])."""
    h = hashlib.sha256()
    seen = []
    for fcm_type, first, second, tiling, gpu in _zoo_pair_launches():
        res = _hash_pair_launch(h, fcm_type, first, second, tiling, gpu, "fast")
        seen.append(((fcm_type, first, second, tiling), res.counters.shared_bytes, res.stats))
    for fcm_type, first, second, tiling in _SMALL_PAIRS:
        res = _hash_pair_launch(h, fcm_type, first, second, tiling, RTX_A4000, "reference")
        seen.append(((fcm_type, first, second, tiling), res.counters.shared_bytes, res.stats))
    return h.hexdigest(), seen


class TestPinnedPairLaunches:
    """Regression guard: the bytes and accounting of PWDW, PWDW_R and PWPW
    launches, pinned.

    Every distinct (type, geometry, tiling) PWDW and PWDW_R step of the zoo
    plans and every zoo PW->PW pair at its best PWPW tiling per GPU run on
    the fast engine, the small cases above on the reference engine.  The
    hash leaves shared-memory metering out; everything else a launch
    reports is in it.
    """

    #: SHA-256 over every launch of :func:`pair_launches`, in order.
    DIGEST = "d5f3a8f74ad661e8c045a53ec626c251c610497d270ce07e1077bb3cb40696bc"

    def test_pair_launches_are_pinned(self, pair_launches):
        assert pair_launches[0] == self.DIGEST

    def test_shared_memory_closed_form(self, pair_launches):
        """Every launch meters shared memory by one rule: each commBuffer
        window once written and once read at its actual clamped size, plus
        one re-read per extra ``tile_m`` group; the peak is the largest
        window."""
        for (fcm_type, first, second, tiling), shared, stats in pair_launches[1]:
            expected = _commbuffer_closed_form(fcm_type, first, second, tiling)
            assert (shared, stats.peak_shared_bytes) == expected, (fcm_type, tiling)


def _commbuffer_closed_form(fcm_type, first, second, tiling) -> tuple[int, int]:
    """(shared bytes, peak shared bytes) of one single-image pair launch."""
    eb, c_mid = first.dtype.nbytes, first.out_channels
    if fcm_type is FcmType.PWPW:  # pixel tiles of the flattened plane
        hw = second.out_h * second.out_w
        tile = min(tiling["tile_hw"], hw)
        groups = ceil_div(second.out_channels, min(tiling["tile_m"], second.out_channels))
        pixels = [min(tile, hw - p0) for p0 in range(0, hw, tile)]
        return eb * (1 + groups) * c_mid * sum(pixels), eb * c_mid * max(pixels)
    dw = second  # PWDW (one tile over the plane) and PWDW_R

    def windows(out: int, tile: int, in_size: int) -> list[int]:
        spans = (
            tile_input_range(t0, min(tile, out - t0), dw.kernel, dw.stride, dw.padding, in_size)
            for t0 in range(0, out, tile)
        )
        return [hi - lo for lo, hi in spans]

    rows = windows(dw.out_h, min(tiling.get("tile_h", dw.out_h), dw.out_h), dw.in_h)
    cols = windows(dw.out_w, min(tiling.get("tile_w", dw.out_w), dw.out_w), dw.in_w)
    tile_f = min(tiling["tile_f"], c_mid)
    return eb * 2 * c_mid * sum(rows) * sum(cols), eb * tile_f * max(rows) * max(cols)
