"""DWPW FCM: depthwise fused with its following pointwise (paper Fig. 3b, 4).

One thread block owns one *spatial* tile of the module output.  Because the
PW consumer needs every channel of the intermediate at a pixel, the DW stage
computes **all** channels of its output tile and parks them in the shared
commBuffer; the PW stage then streams its filter matrix in ``tile_m``-sized
groups against the resident intermediate.  The DW intermediate is never
written to global memory and never recomputed — DWPW has no redundant
computation (paper Table II shows '-' for every DWPW case).

Global traffic:
``GMA = DwIFM loads (with spatial halo)``
``    + n_spatial_tiles * (DwWeightsSz + PwWeightsSz)``
``    + PwOFMsSz``
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.dtypes import DType
from ..core.ops import exact_matmul
from ..core.tiling import ceil_div, input_extent, tile_input_range
from ..errors import CapacityError, ShapeError, UnsupportedError
from ..gpu.counters import AccessCounters
from ..gpu.fastpath import axis_window_extents, grid_depthwise
from ..gpu.memory import SharedMemory
from ..gpu.specs import GpuSpec
from ..ir.layers import ConvKind
from .base import SimKernel
from .direct_dw import depthwise_tile
from .params import LayerParams

__all__ = ["DwPwFusedKernel"]


class DwPwFusedKernel(SimKernel):
    """Fused DW->PW kernel exchanging the intermediate via shared memory."""

    def __init__(
        self,
        dw: LayerParams,
        pw: LayerParams,
        tile_h: int,
        tile_w: int,
        tile_m: int,
    ) -> None:
        if dw.spec.kind is not ConvKind.DEPTHWISE or pw.spec.kind is not ConvKind.POINTWISE:
            raise ShapeError("DwPwFusedKernel fuses a DW layer followed by a PW layer")
        if dw.spec.dtype is not pw.spec.dtype:
            raise ShapeError("fused layers must share one precision")
        if (dw.spec.out_channels, dw.spec.out_h, dw.spec.out_w) != (
            pw.spec.in_channels,
            pw.spec.in_h,
            pw.spec.in_w,
        ):
            raise ShapeError(
                f"DW output {dw.spec.ofm.shape} does not feed PW input {pw.spec.ifm.shape}"
            )
        if pw.spec.stride != 1:
            raise UnsupportedError("DWPW fusion assumes a stride-1 pointwise consumer")
        self.dw = dw
        self.pw = pw
        self.dtype: DType = dw.spec.dtype
        self.name = f"fcm_dwpw[{dw.spec.name}+{pw.spec.name}]"
        self.tile_h = min(tile_h, dw.spec.out_h)
        self.tile_w = min(tile_w, dw.spec.out_w)
        self.tile_m = min(tile_m, pw.spec.out_channels)
        self._counters: AccessCounters | None = None

    # ---- capacity -------------------------------------------------------------
    def comm_buffer_bytes(self) -> int:
        """Shared-memory intermediate: all channels x the spatial tile."""
        return self.dw.spec.out_channels * self.tile_h * self.tile_w * self.dtype.nbytes

    def tile_footprint_bytes(self) -> int:
        """Working set: DW halo window + filters + commBuffer + PW stream."""
        from ..planner.costs import streamed_matmul_l1_bytes

        spec_dw = self.dw.spec
        k, s = spec_dw.kernel, spec_dw.stride
        eb = self.dtype.nbytes
        in_h = input_extent(self.tile_h, k, s)
        in_w = input_extent(self.tile_w, k, s)
        ifm_tile = spec_dw.in_channels * in_h * in_w * eb
        dw_w = spec_dw.in_channels * k * k * eb
        pw_stream = streamed_matmul_l1_bytes(self.tile_m, self.tile_h * self.tile_w, eb)
        return ifm_tile + dw_w + self.comm_buffer_bytes() + pw_stream

    def check_capacity(self, gpu: GpuSpec) -> None:
        fp = self.tile_footprint_bytes()
        if fp > gpu.l1_bytes:
            raise CapacityError(f"{self.name}: working set {fp}B exceeds L1 {gpu.l1_bytes}B")
        if self.comm_buffer_bytes() > gpu.shared_bytes:
            raise CapacityError(
                f"{self.name}: commBuffer {self.comm_buffer_bytes()}B exceeds "
                f"shared {gpu.shared_bytes}B"
            )

    # ---- launch ------------------------------------------------------------------
    def grid(self) -> Sequence[tuple[int, ...]]:
        def build() -> list[tuple[int, ...]]:
            nh = ceil_div(self.dw.spec.out_h, self.tile_h)
            nw = ceil_div(self.dw.spec.out_w, self.tile_w)
            return [(hi, wi) for hi in range(nh) for wi in range(nw)]

        return self._memo_grid(build)

    def bind(self, ifm: np.ndarray, counters: AccessCounters) -> None:
        if ifm.shape != self.dw.spec.ifm.shape:
            raise ShapeError(f"{self.name}: IFM shape {ifm.shape} != {self.dw.spec.ifm.shape}")
        self._ifm = self.make_buffer("ifm", ifm, "ifm", counters)
        self._dw_w = self.make_buffer("dw_weights", self.dw.weights, "weights", counters)
        self._pw_w = self.make_buffer("pw_weights", self.pw.weights, "weights", counters)
        out = self._fresh_output(self.pw.spec.ofm.shape, self.dtype.np_dtype)
        self._out = self.make_buffer("ofm", out, "ofm", counters)
        self._counters = counters

    def run_block(self, coord: tuple[int, ...], shared: SharedMemory) -> None:
        hi, wi = coord
        spec_dw, spec_pw = self.dw.spec, self.pw.spec
        k, s, pad = spec_dw.kernel, spec_dw.stride, spec_dw.padding
        c = spec_dw.in_channels
        r0 = hi * self.tile_h
        r1 = min(r0 + self.tile_h, spec_dw.out_h)
        q0 = wi * self.tile_w
        q1 = min(q0 + self.tile_w, spec_dw.out_w)
        nr, nc = r1 - r0, q1 - q0

        # Part 2: fetch the DW filter slices (kept in registers / L1 — the
        # paper's shfl_sync path exchanges weights without shared memory).
        dw_w = self._dw_w.load(slice(None))

        # Part 3: DW conv-norm-act into the commBuffer (all channels).
        lo_r, hi_r = tile_input_range(r0, nr, k, s, pad, spec_dw.in_h)
        lo_q, hi_q = tile_input_range(q0, nc, k, s, pad, spec_dw.in_w)
        window = self._ifm.load((slice(None), slice(lo_r, hi_r), slice(lo_q, hi_q)))
        acc = depthwise_tile(
            window=window,
            weights=dw_w,
            rows_out=nr,
            cols_out=nc,
            row_off=lo_r - (r0 * s - pad),
            col_off=lo_q - (q0 * s - pad),
            kernel=k,
            stride=s,
            acc_dtype=self.dtype.acc_dtype,
        )
        interm = self.dw.epilogue.apply(acc, 0, c, self.dtype)
        shared.alloc("commBuffer", (c, nr, nc), interm.dtype, self.dtype.nbytes)
        shared.write("commBuffer", interm)
        self._counters.compute(c * nr * nc * k * k)

        # Part 4: PW conv-norm-act streaming filter groups over the commBuffer.
        acc_t = self.dtype.acc_dtype
        m_total = spec_pw.out_channels
        for mi in range(ceil_div(m_total, self.tile_m)):
            m0 = mi * self.tile_m
            m1 = min(m0 + self.tile_m, m_total)
            w_tile = self._pw_w.load((slice(m0, m1), slice(None))).astype(acc_t)
            x = shared.read("commBuffer").reshape(c, nr * nc).astype(acc_t)
            y = self.pw.epilogue.apply(w_tile @ x, m0, m1, self.dtype)
            self._out.store(
                (slice(m0, m1), slice(r0, r1), slice(q0, q1)),
                y.reshape(m1 - m0, nr, nc),
            )
            self._counters.compute((m1 - m0) * c * nr * nc)

    def run_grid(self) -> int:
        """Whole-grid fast path: full DW pass, then one PW matmul.

        Bulk charges: both weight tensors stream once per spatial tile, the
        IFM loads with separable clamped halo windows, the commBuffer sees
        one write plus one read per filter group per block (slot bytes equal
        the block's actual intermediate tile).
        """
        spec_dw, spec_pw = self.dw.spec, self.pw.spec
        k, s, pad = spec_dw.kernel, spec_dw.stride, spec_dw.padding
        eb = self.dtype.nbytes
        c_mid = spec_dw.out_channels
        m_all = spec_pw.out_channels
        oh, ow = spec_dw.out_h, spec_dw.out_w
        nh = ceil_div(oh, self.tile_h)
        nw = ceil_div(ow, self.tile_w)
        n_groups = ceil_div(m_all, self.tile_m)
        wh = axis_window_extents(oh, self.tile_h, k, s, pad, spec_dw.in_h)
        ww = axis_window_extents(ow, self.tile_w, k, s, pad, spec_dw.in_w)
        ctr = self._counters
        ctr.read_bulk("ifm", spec_dw.in_channels * sum(wh) * sum(ww) * eb)
        ctr.read_bulk("weights", (c_mid * k * k + m_all * c_mid) * eb, nh * nw)
        ctr.write_bulk("ofm", m_all * oh * ow * eb)
        # commBuffer slots sum to the full intermediate across the grid.
        ctr.smem_bulk((1 + n_groups) * c_mid * oh * ow * eb)
        ctr.compute(c_mid * oh * ow * k * k)
        ctr.compute(m_all * c_mid * oh * ow)

        acc = grid_depthwise(
            window=self._ifm.array,
            weights=self._dw_w.array,
            rows_out=oh,
            cols_out=ow,
            row_off=pad,
            col_off=pad,
            kernel=k,
            stride=s,
            acc_dtype=self.dtype.acc_dtype,
        )
        interm = self.dw.epilogue.apply(acc, 0, c_mid, self.dtype)
        acc2 = exact_matmul(
            self._pw_w.array, interm.reshape(c_mid, oh * ow), self.dtype.acc_dtype
        )
        y = self.pw.epilogue.apply(acc2, 0, m_all, self.dtype)
        self._out.array[...] = y.reshape(m_all, oh, ow)
        return self.comm_buffer_bytes()  # block (0, 0) holds the full tile

    def output_array(self) -> np.ndarray:
        return self._out.array

    def weight_bytes(self) -> int:
        return self.dw.spec.weights_bytes + self.pw.spec.weights_bytes

    def finalize(self, counters) -> None:
        """Annotate re-reads for L2-aware timing (mirrors planner.analytic)."""
        from ..core.fcm import FcmType
        from ..planner.analytic import fcm_counters

        ref = fcm_counters(
            FcmType.DWPW, self.dw.spec, self.pw.spec,
            {"tile_h": self.tile_h, "tile_w": self.tile_w, "tile_m": self.tile_m},
        )
        counters.rereads.extend(ref.rereads)
