"""PWDW_R FCM: pointwise fused with a following depthwise, spatially tiled.

The general PW->DW fusion (paper Fig. 3b right): each thread block owns an
output tile of ``tile_f`` channels x ``tile_h x tile_w`` pixels.  The DW stage
needs a halo-extended window of the intermediate, and — unlike input halos —
those intermediate values "do not exist before the fused kernel starts": the
PW stage must **recompute** them in every block whose window covers them.
That is the redundant computation the ``_R`` suffix flags, and the reason
paper Table II reports 4-18% redundancy ratios for PWDW_R cases.

Global traffic follows paper Eq. 4: the PW input is re-read once per channel
group *and* its halo pixels once more per sharing block; PW weights are
re-read per spatial tile; DW weight slices per spatial tile.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.dtypes import DType
from ..core.ops import exact_matmul
from ..core.tiling import ceil_div, input_extent, tile_input_range
from ..errors import CapacityError, ShapeError
from ..gpu.counters import AccessCounters
from ..gpu.fastpath import axis_window_extents, grid_depthwise
from ..gpu.memory import SharedMemory
from ..gpu.specs import GpuSpec
from ..ir.layers import ConvKind
from .base import SimKernel
from .direct_dw import depthwise_tile
from .params import LayerParams

__all__ = ["PwDwRFusedKernel"]


class PwDwRFusedKernel(SimKernel):
    """Fused PW->DW kernel with spatial tiling and redundant halo recompute."""

    def __init__(
        self,
        pw: LayerParams,
        dw: LayerParams,
        tile_f: int,
        tile_h: int,
        tile_w: int,
    ) -> None:
        if pw.spec.kind is not ConvKind.POINTWISE or dw.spec.kind is not ConvKind.DEPTHWISE:
            raise ShapeError("PwDwRFusedKernel fuses a PW layer followed by a DW layer")
        if pw.spec.dtype is not dw.spec.dtype:
            raise ShapeError("fused layers must share one precision")
        if (pw.spec.out_channels, pw.spec.out_h, pw.spec.out_w) != (
            dw.spec.in_channels,
            dw.spec.in_h,
            dw.spec.in_w,
        ):
            raise ShapeError(
                f"PW output {pw.spec.ofm.shape} does not feed DW input {dw.spec.ifm.shape}"
            )
        self.pw = pw
        self.dw = dw
        self.dtype: DType = pw.spec.dtype
        self.name = f"fcm_pwdw_r[{pw.spec.name}+{dw.spec.name}]"
        self.tile_f = min(tile_f, pw.spec.out_channels)
        self.tile_h = min(tile_h, dw.spec.out_h)
        self.tile_w = min(tile_w, dw.spec.out_w)
        self._counters: AccessCounters | None = None
        self._executed_pw_elems = 0

    # ---- capacity (Eq. 4 constraint: five tiles + commBuffer) -----------------
    def _window_extents(self) -> tuple[int, int]:
        k, s = self.dw.spec.kernel, self.dw.spec.stride
        return input_extent(self.tile_h, k, s), input_extent(self.tile_w, k, s)

    def comm_buffer_bytes(self) -> int:
        wr, wc = self._window_extents()
        return self.tile_f * wr * wc * self.dtype.nbytes

    def tile_footprint_bytes(self) -> int:
        from ..planner.costs import STREAM_CHUNK

        spec_dw = self.dw.spec
        eb = self.dtype.nbytes
        wr, wc = self._window_extents()
        ofm_tile = self.tile_f * self.tile_h * self.tile_w * eb
        dw_w = self.tile_f * spec_dw.kernel * spec_dw.kernel * eb
        stream = STREAM_CHUNK * (self.tile_f + wr * wc) * eb
        return ofm_tile + dw_w + stream + self.comm_buffer_bytes()

    def check_capacity(self, gpu: GpuSpec) -> None:
        fp = self.tile_footprint_bytes()
        if fp > gpu.l1_bytes:
            raise CapacityError(f"{self.name}: working set {fp}B exceeds L1 {gpu.l1_bytes}B")
        if self.comm_buffer_bytes() > gpu.shared_bytes:
            raise CapacityError(
                f"{self.name}: commBuffer {self.comm_buffer_bytes()}B exceeds "
                f"shared {gpu.shared_bytes}B"
            )

    # ---- launch ---------------------------------------------------------------
    def grid(self) -> Sequence[tuple[int, ...]]:
        def build() -> list[tuple[int, ...]]:
            nf = ceil_div(self.pw.spec.out_channels, self.tile_f)
            nh = ceil_div(self.dw.spec.out_h, self.tile_h)
            nw = ceil_div(self.dw.spec.out_w, self.tile_w)
            return [
                (fi, hi, wi)
                for fi in range(nf) for hi in range(nh) for wi in range(nw)
            ]

        return self._memo_grid(build)

    def bind(self, ifm: np.ndarray, counters: AccessCounters) -> None:
        if ifm.shape != self.pw.spec.ifm.shape:
            raise ShapeError(f"{self.name}: IFM shape {ifm.shape} != {self.pw.spec.ifm.shape}")
        s = self.pw.spec.stride
        # Subsampled view: a strided PW touches only these pixels, laid out as
        # the intermediate's (H, W) grid so DW windows index it directly.
        x = np.ascontiguousarray(ifm[:, ::s, ::s])
        self._ifm = self.make_buffer("ifm", x, "ifm", counters)
        self._pw_w = self.make_buffer("pw_weights", self.pw.weights, "weights", counters)
        self._dw_w = self.make_buffer("dw_weights", self.dw.weights, "weights", counters)
        out = self._fresh_output(self.dw.spec.ofm.shape, self.dtype.np_dtype)
        self._out = self.make_buffer("ofm", out, "ofm", counters)
        self._counters = counters
        self._executed_pw_elems = 0

    def run_block(self, coord: tuple[int, ...], shared: SharedMemory) -> None:
        fi, hi, wi = coord
        spec_pw, spec_dw = self.pw.spec, self.dw.spec
        c_in = spec_pw.in_channels
        k, s, pad = spec_dw.kernel, spec_dw.stride, spec_dw.padding
        f0 = fi * self.tile_f
        f1 = min(f0 + self.tile_f, spec_pw.out_channels)
        nf = f1 - f0
        r0 = hi * self.tile_h
        r1 = min(r0 + self.tile_h, spec_dw.out_h)
        q0 = wi * self.tile_w
        q1 = min(q0 + self.tile_w, spec_dw.out_w)
        acc_t = self.dtype.acc_dtype

        # Part 2: fetch weight tiles (registers / L1 residency).
        w_tile = self._pw_w.load((slice(f0, f1), slice(None)))
        dw_slice = self._dw_w.load(slice(f0, f1))

        # Part 3: PW computes the halo-extended intermediate window.  Halo
        # values are recomputed by every sharing block — the _R redundancy.
        lo_r, hi_r = tile_input_range(r0, r1 - r0, k, s, pad, spec_dw.in_h)
        lo_q, hi_q = tile_input_range(q0, q1 - q0, k, s, pad, spec_dw.in_w)
        window_in = self._ifm.load((slice(None), slice(lo_r, hi_r), slice(lo_q, hi_q)))
        wr, wc = hi_r - lo_r, hi_q - lo_q
        acc = w_tile.astype(acc_t) @ window_in.reshape(c_in, wr * wc).astype(acc_t)
        interm = self.pw.epilogue.apply(acc, f0, f1, self.dtype).reshape(nf, wr, wc)
        wr_max, wc_max = self._window_extents()
        shared.alloc("commBuffer", (self.tile_f, wr_max, wc_max), interm.dtype, self.dtype.nbytes)
        shared.write("commBuffer", _fit3(interm, (self.tile_f, wr_max, wc_max)))
        self._counters.compute(nf * c_in * wr * wc)
        self._executed_pw_elems += nf * wr * wc

        # Part 4: DW over the resident intermediate window.
        acc2 = depthwise_tile(
            window=interm.astype(acc_t),
            weights=dw_slice,
            rows_out=r1 - r0,
            cols_out=q1 - q0,
            row_off=lo_r - (r0 * s - pad),
            col_off=lo_q - (q0 * s - pad),
            kernel=k,
            stride=s,
            acc_dtype=acc_t,
        )
        y = self.dw.epilogue.apply(acc2, f0, f1, self.dtype)
        self._out.store((slice(f0, f1), slice(r0, r1), slice(q0, q1)), y)
        self._counters.compute(nf * (r1 - r0) * (q1 - q0) * k * k)

    def run_grid(self) -> int:
        """Whole-grid fast path: one PW matmul, then a full DW pass.

        Bulk charges replicate the per-block sums: the PW input's clamped
        halo windows are separable per axis and re-stream once per channel
        group; both weight tensors stream once per spatial tile; every block
        writes one fixed-size (``tile_f`` x max-window) commBuffer slot.
        ``_executed_pw_elems`` gets the same total the interpreted blocks
        accumulate, so :meth:`finalize` reclassifies identical redundancy.
        """
        spec_pw, spec_dw = self.pw.spec, self.dw.spec
        eb = self.dtype.nbytes
        c_in, c_mid = spec_pw.in_channels, spec_pw.out_channels
        k, s, pad = spec_dw.kernel, spec_dw.stride, spec_dw.padding
        oh, ow = spec_dw.out_h, spec_dw.out_w
        n_f = ceil_div(c_mid, self.tile_f)
        wr = axis_window_extents(oh, self.tile_h, k, s, pad, spec_dw.in_h)
        wc = axis_window_extents(ow, self.tile_w, k, s, pad, spec_dw.in_w)
        n_sp = len(wr) * len(wc)
        wr_max, wc_max = self._window_extents()
        ctr = self._counters
        ctr.read_bulk("ifm", c_in * sum(wr) * sum(wc) * eb, n_f)
        ctr.read_bulk("weights", c_mid * (c_in + k * k) * eb, n_sp)
        ctr.write_bulk("ofm", c_mid * oh * ow * eb)
        ctr.smem_bulk(self.tile_f * wr_max * wc_max * eb, n_f * n_sp)
        ctr.compute(c_mid * c_in * sum(wr) * sum(wc))
        ctr.compute(c_mid * oh * ow * k * k)
        self._executed_pw_elems = c_mid * sum(wr) * sum(wc)

        x = self._ifm.array  # subsampled (c_in, Hmid, Wmid) view from bind
        acc = exact_matmul(
            self._pw_w.array, x.reshape(c_in, -1), self.dtype.acc_dtype
        )
        interm = self.pw.epilogue.apply(acc, 0, c_mid, self.dtype).reshape(
            c_mid, spec_dw.in_h, spec_dw.in_w
        )
        acc2 = grid_depthwise(
            window=interm,
            weights=self._dw_w.array,
            rows_out=oh,
            cols_out=ow,
            row_off=pad,
            col_off=pad,
            kernel=k,
            stride=s,
            acc_dtype=self.dtype.acc_dtype,
        )
        self._out.array[...] = self.dw.epilogue.apply(acc2, 0, c_mid, self.dtype)
        return self.comm_buffer_bytes()  # every block allocs the max window

    def finalize(self, counters: AccessCounters) -> None:
        """Reclassify recomputed intermediate elements as redundant MACs.

        Every intermediate element is useful exactly once; any additional
        computation of it (the window halos) is redundant.  The unique
        footprint is the union of the clamped windows, which for a grid of
        rectangles is (covered rows) x (covered cols) per channel.
        """
        spec_dw = self.dw.spec
        k, s, pad = spec_dw.kernel, spec_dw.stride, spec_dw.padding
        rows_used = _covered(spec_dw.out_h, self.tile_h, k, s, pad, spec_dw.in_h)
        cols_used = _covered(spec_dw.out_w, self.tile_w, k, s, pad, spec_dw.in_w)
        unique = self.pw.spec.out_channels * rows_used * cols_used
        excess_elems = self._executed_pw_elems - unique
        if excess_elems < 0:
            raise ShapeError(f"{self.name}: executed fewer PW elements than unique footprint")
        redundant = excess_elems * self.pw.spec.in_channels
        counters.macs -= redundant
        counters.redundant_macs += redundant
        # Annotate weight/IFM re-reads for L2-aware timing.
        from ..core.fcm import FcmType
        from ..planner.analytic import fcm_counters

        ref = fcm_counters(
            FcmType.PWDW_R, self.pw.spec, self.dw.spec,
            {"tile_f": self.tile_f, "tile_h": self.tile_h, "tile_w": self.tile_w},
        )
        counters.rereads.extend(ref.rereads)

    def output_array(self) -> np.ndarray:
        return self._out.array

    def weight_bytes(self) -> int:
        return self.pw.spec.weights_bytes + self.dw.spec.weights_bytes


def _covered(out_size: int, tile: int, kernel: int, stride: int, padding: int, in_size: int) -> int:
    """Distinct input indices touched along one axis by all tile windows."""
    used = 0
    prev_hi = 0
    for t0 in range(0, out_size, tile):
        tlen = min(tile, out_size - t0)
        lo, hi = tile_input_range(t0, tlen, kernel, stride, padding, in_size)
        lo = max(lo, prev_hi)
        if hi > lo:
            used += hi - lo
            prev_hi = hi
    return used


def _fit3(tile: np.ndarray, shape: tuple[int, int, int]) -> np.ndarray:
    if tile.shape == shape:
        return tile
    out = np.zeros(shape, dtype=tile.dtype)
    out[: tile.shape[0], : tile.shape[1], : tile.shape[2]] = tile
    return out
