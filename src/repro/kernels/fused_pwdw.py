"""PWDW FCM without redundant computation (paper §III-A).

"The PWDW does not require redundant computations if there is no tiling
across the width and height of an IFM."  Each thread block owns a group of
``tile_f`` intermediate channels over the **full** spatial extent: the PW
stage computes those channels (streaming the whole PW input through the SM),
parks them in the commBuffer, and the DW stage — which is channelwise —
consumes exactly those channels with no halo and no recomputation.

Global traffic:
``GMA = ceil(Cmid / tile_f) * PwIFMsSz   (full input re-streamed per group)``
``    + PwWeightsSz + DwWeightsSz        (each weight read exactly once)``
``    + DwOFMsSz``

Feasible only when a channel-group of the intermediate fits in shared memory
(``tile_f * H * W`` elements) — which is why FusePlanner selects PWDW mostly
for late, spatially-small layers and INT8 (paper Table II).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.dtypes import DType
from ..core.ops import exact_matmul
from ..core.tiling import ceil_div
from ..errors import CapacityError, ShapeError
from ..gpu.counters import AccessCounters
from ..gpu.fastpath import grid_depthwise
from ..gpu.memory import SharedMemory
from ..gpu.specs import GpuSpec
from ..ir.layers import ConvKind
from .base import SimKernel
from .direct_dw import depthwise_tile
from .params import LayerParams

__all__ = ["PwDwFusedKernel"]


class PwDwFusedKernel(SimKernel):
    """Fused PW->DW kernel without spatial tiling (no redundancy)."""

    def __init__(self, pw: LayerParams, dw: LayerParams, tile_f: int) -> None:
        if pw.spec.kind is not ConvKind.POINTWISE or dw.spec.kind is not ConvKind.DEPTHWISE:
            raise ShapeError("PwDwFusedKernel fuses a PW layer followed by a DW layer")
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
        self.name = f"fcm_pwdw[{pw.spec.name}+{dw.spec.name}]"
        self.tile_f = min(tile_f, pw.spec.out_channels)
        self._counters: AccessCounters | None = None

    # ---- capacity ---------------------------------------------------------------
    def comm_buffer_bytes(self) -> int:
        """Channel-group of the intermediate over the full spatial extent."""
        return self.tile_f * self.pw.spec.out_h * self.pw.spec.out_w * self.dtype.nbytes

    def tile_footprint_bytes(self) -> int:
        from ..planner.costs import STREAM_CHUNK

        spec_pw, spec_dw = self.pw.spec, self.dw.spec
        eb = self.dtype.nbytes
        dw_w = self.tile_f * spec_dw.kernel * spec_dw.kernel * eb
        # PW reduction chunk in flight + one output row held before store.
        stream = STREAM_CHUNK * (self.tile_f + spec_pw.out_w) * eb
        out_row = self.tile_f * spec_dw.out_w * eb
        return dw_w + stream + out_row + self.comm_buffer_bytes()

    def check_capacity(self, gpu: GpuSpec) -> None:
        fp = self.tile_footprint_bytes()
        if fp > gpu.l1_bytes:
            raise CapacityError(f"{self.name}: working set {fp}B exceeds L1 {gpu.l1_bytes}B")
        if self.comm_buffer_bytes() > gpu.shared_bytes:
            raise CapacityError(
                f"{self.name}: commBuffer {self.comm_buffer_bytes()}B exceeds "
                f"shared {gpu.shared_bytes}B"
            )

    # ---- launch -----------------------------------------------------------------
    def grid(self) -> Sequence[tuple[int, ...]]:
        def build() -> list[tuple[int, ...]]:
            return [
                (fi,) for fi in range(ceil_div(self.pw.spec.out_channels, self.tile_f))
            ]

        return self._memo_grid(build)

    def bind(self, ifm: np.ndarray, counters: AccessCounters) -> None:
        if ifm.shape != self.pw.spec.ifm.shape:
            raise ShapeError(f"{self.name}: IFM shape {ifm.shape} != {self.pw.spec.ifm.shape}")
        s = self.pw.spec.stride
        x = np.ascontiguousarray(ifm[:, ::s, ::s]).reshape(self.pw.spec.in_channels, -1)
        self._ifm = self.make_buffer("ifm", x, "ifm", counters)
        self._pw_w = self.make_buffer("pw_weights", self.pw.weights, "weights", counters)
        self._dw_w = self.make_buffer("dw_weights", self.dw.weights, "weights", counters)
        out = self._fresh_output(self.dw.spec.ofm.shape, self.dtype.np_dtype)
        self._out = self.make_buffer("ofm", out, "ofm", counters)
        self._counters = counters

    def run_block(self, coord: tuple[int, ...], shared: SharedMemory) -> None:
        (fi,) = coord
        spec_pw, spec_dw = self.pw.spec, self.dw.spec
        cmid = spec_pw.out_channels
        c_in = spec_pw.in_channels
        h, w = spec_pw.out_h, spec_pw.out_w
        f0 = fi * self.tile_f
        f1 = min(f0 + self.tile_f, cmid)
        nf = f1 - f0
        acc_t = self.dtype.acc_dtype

        # Part 2: fetch this block's weight tiles (registers / L1 residency).
        w_tile = self._pw_w.load((slice(f0, f1), slice(None)))
        k = spec_dw.kernel
        dw_slice = self._dw_w.load(slice(f0, f1))

        # Part 3: PW conv-norm-act over the full spatial extent into commBuffer.
        x = self._ifm.load((slice(None), slice(None))).astype(acc_t)
        acc = w_tile.astype(acc_t) @ x
        interm = self.pw.epilogue.apply(acc, f0, f1, self.dtype)
        shared.alloc("commBuffer", (self.tile_f, h, w), interm.dtype, self.dtype.nbytes)
        shared.write("commBuffer", _fit3(interm.reshape(nf, h, w), (self.tile_f, h, w)))
        self._counters.compute(nf * c_in * h * w)

        # Part 4: DW conv-norm-act on the resident channel group (no halo).
        interm_full = shared.read("commBuffer")[:nf]
        acc2 = depthwise_tile(
            window=interm_full.astype(acc_t),
            weights=dw_slice,
            rows_out=spec_dw.out_h,
            cols_out=spec_dw.out_w,
            row_off=spec_dw.padding,
            col_off=spec_dw.padding,
            kernel=k,
            stride=spec_dw.stride,
            acc_dtype=acc_t,
        )
        y = self.dw.epilogue.apply(acc2, f0, f1, self.dtype)
        self._out.store((slice(f0, f1), slice(None), slice(None)), y)
        self._counters.compute(nf * spec_dw.out_h * spec_dw.out_w * k * k)

    def run_grid(self) -> int:
        """Whole-grid fast path: one PW matmul, then a full DW pass.

        Bulk charges: the whole PW input re-streams once per channel group,
        each weight tensor is read exactly once across the grid, and every
        block moves its (fixed-size, ``tile_f``-padded) commBuffer slot
        through shared memory twice — one write, one read.
        """
        spec_pw, spec_dw = self.pw.spec, self.dw.spec
        eb = self.dtype.nbytes
        c_in, c_mid = spec_pw.in_channels, spec_pw.out_channels
        h, w = spec_pw.out_h, spec_pw.out_w
        k = spec_dw.kernel
        n_f = ceil_div(c_mid, self.tile_f)
        ctr = self._counters
        ctr.read_bulk("ifm", c_in * h * w * eb, n_f)
        ctr.read_bulk("weights", c_mid * (c_in + k * k) * eb)
        ctr.write_bulk("ofm", c_mid * spec_dw.out_h * spec_dw.out_w * eb)
        ctr.smem_bulk(2 * self.tile_f * h * w * eb, n_f)
        ctr.compute(c_mid * c_in * h * w)
        ctr.compute(c_mid * spec_dw.out_h * spec_dw.out_w * k * k)

        acc = exact_matmul(self._pw_w.array, self._ifm.array, self.dtype.acc_dtype)
        interm = self.pw.epilogue.apply(acc, 0, c_mid, self.dtype).reshape(c_mid, h, w)
        acc2 = grid_depthwise(
            window=interm,
            weights=self._dw_w.array,
            rows_out=spec_dw.out_h,
            cols_out=spec_dw.out_w,
            row_off=spec_dw.padding,
            col_off=spec_dw.padding,
            kernel=k,
            stride=spec_dw.stride,
            acc_dtype=self.dtype.acc_dtype,
        )
        self._out.array[...] = self.dw.epilogue.apply(acc2, 0, c_mid, self.dtype)
        return self.comm_buffer_bytes()  # every block allocs the full slot

    def output_array(self) -> np.ndarray:
        return self._out.array

    def weight_bytes(self) -> int:
        return self.pw.spec.weights_bytes + self.dw.spec.weights_bytes

    def finalize(self, counters) -> None:
        """Annotate IFM re-stream re-reads for L2-aware timing."""
        from ..core.fcm import FcmType
        from ..planner.analytic import fcm_counters

        ref = fcm_counters(
            FcmType.PWDW, self.pw.spec, self.dw.spec, {"tile_f": self.tile_f}
        )
        counters.rereads.extend(ref.rereads)


def _fit3(tile: np.ndarray, shape: tuple[int, int, int]) -> np.ndarray:
    if tile.shape == shape:
        return tile
    out = np.zeros(shape, dtype=tile.dtype)
    out[: tile.shape[0], : tile.shape[1], : tile.shape[2]] = tile
    return out
