"""Layer-by-layer depthwise convolution kernel (direct, OS-LWS dataflow).

Each thread block owns an OFM tile of ``tile_c`` channels x ``tile_h`` x
``tile_w`` pixels and loads the corresponding *halo-extended* input window.
Halo rows/columns shared between neighbouring spatial tiles are loaded by
each of them — exactly the overlap traffic Eq. 1/Eq. 3 charge.  Whole filter
slices stay resident per block (never split spatially, §IV-A), and are
re-loaded once per spatial tile, giving Eq. 3's
``ceil(OFMsHW / OFMsTileHW) * WeightsSz`` weight term.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..core.dtypes import DType
from ..core.tiling import DwTiling, ceil_div, input_extent, tile_windows
from ..errors import CapacityError, ShapeError
from ..gpu.counters import AccessCounters
from ..gpu.memory import SharedMemory
from ..gpu.specs import GpuSpec
from ..ir.layers import ConvKind
from ..planner.analytic import lbl_counters
from ..planner.costs import dw_tile_footprint
from .base import SimKernel
from .params import LayerParams

__all__ = ["DwDirectKernel", "depthwise_tile"]


def depthwise_tile(
    window: np.ndarray,
    weights: np.ndarray,
    rows_out: int,
    cols_out: int,
    row_off: int,
    col_off: int,
    kernel: int,
    stride: int,
    acc_dtype: np.dtype,
) -> np.ndarray:
    """Compute one depthwise output tile from a clamped input window.

    Args:
        window: loaded input window ``(c, wr, wc)`` (borders clamped away).
        weights: filter slices ``(c, k, k)``.
        rows_out / cols_out: output tile extent.
        row_off / col_off: where the loaded window sits inside the padded
            canvas the tile's convolution sweeps (non-zero at FM borders).
        kernel / stride: DW geometry.
        acc_dtype: accumulator dtype (int32 / float32).

    Returns:
        ``(c, rows_out, cols_out)`` accumulator tile.
    """
    c = window.shape[0]
    canvas_h = input_extent(rows_out, kernel, stride)
    canvas_w = input_extent(cols_out, kernel, stride)
    canvas = np.zeros((c, canvas_h, canvas_w), dtype=acc_dtype)
    # Clip: with non-divisible stride geometry the convolution never reads the
    # last input row(s)/col(s), so the canvas may be smaller than the window.
    use_h = min(window.shape[1], canvas_h - row_off)
    use_w = min(window.shape[2], canvas_w - col_off)
    canvas[:, row_off : row_off + use_h, col_off : col_off + use_w] = window[:, :use_h, :use_w]
    win = sliding_window_view(canvas, (kernel, kernel), axis=(1, 2))[:, ::stride, ::stride]
    return np.einsum("chwkl,ckl->chw", win, weights.astype(acc_dtype, copy=False))


class DwDirectKernel(SimKernel):
    """Simulated direct DW kernel with output-stationary spatial tiling."""

    def __init__(self, params: LayerParams, tiling: DwTiling) -> None:
        spec = params.spec
        if spec.kind is not ConvKind.DEPTHWISE:
            raise ShapeError(f"{spec.name}: DwDirectKernel needs a depthwise layer")
        self.params = params
        self.stages = (params,)
        self.spec = spec
        self.dtype: DType = spec.dtype
        self.name = f"dw_direct[{spec.name}]"
        #: the tiling clamped to the layer: what the grid runs and is priced at.
        self.tiling = DwTiling(
            min(tiling.tile_c, spec.in_channels),
            min(tiling.tile_h, spec.out_h),
            min(tiling.tile_w, spec.out_w),
        )
        self._counters: AccessCounters | None = None

    # ---- capacity (Eq. 3 constraint) -----------------------------------------
    def check_capacity(self, gpu: GpuSpec) -> None:
        fp = dw_tile_footprint(self.spec, self.tiling)
        if fp > gpu.l1_bytes:
            raise CapacityError(
                f"{self.name}: tile working set {fp}B exceeds L1 {gpu.l1_bytes}B"
            )

    # ---- launch ---------------------------------------------------------------
    def grid(self) -> Sequence[tuple[int, ...]]:
        def build() -> list[tuple[int, ...]]:
            spec, t = self.spec, self.tiling
            nc = ceil_div(spec.in_channels, t.tile_c)
            nh = ceil_div(spec.out_h, t.tile_h)
            nw = ceil_div(spec.out_w, t.tile_w)
            return [
                (ci, hi, wi)
                for ci in range(nc) for hi in range(nh) for wi in range(nw)
            ]

        return self._memo_grid(build)

    def bind(self, ifm: np.ndarray, counters: AccessCounters) -> None:
        self._ifm = self.make_buffer("ifm", ifm, "ifm", counters)
        self._w = self.make_buffer("weights", self.params.weights, "weights", counters)
        out = np.zeros(self.spec.ofm.shape, dtype=self.dtype.np_dtype)
        self._out = self.make_buffer("ofm", out, "ofm", counters)
        self._counters = counters

    def run_block(self, coord: tuple[int, ...], shared: SharedMemory) -> None:
        ci, hi, wi = coord
        spec, t = self.spec, self.tiling
        k, s, pad = spec.kernel, spec.stride, spec.padding
        c0 = ci * t.tile_c
        c1 = min(c0 + t.tile_c, spec.in_channels)
        rows = tile_windows(spec.out_h, t.tile_h, ((k, s, pad, spec.in_h),))
        cols = tile_windows(spec.out_w, t.tile_w, ((k, s, pad, spec.in_w),))
        (lo_r, hi_r), (r0, r1) = rows[0][hi], rows[1][hi]
        (lo_q, hi_q), (q0, q1) = cols[0][wi], cols[1][wi]
        window = self._ifm.load((slice(c0, c1), slice(lo_r, hi_r), slice(lo_q, hi_q)))
        w_tile = self._w.load(slice(c0, c1))
        acc = depthwise_tile(
            window=window,
            weights=w_tile,
            rows_out=r1 - r0,
            cols_out=q1 - q0,
            row_off=lo_r - (r0 * s - pad),
            col_off=lo_q - (q0 * s - pad),
            kernel=k,
            stride=s,
            acc_dtype=self.dtype.acc_dtype,
        )
        y = self.params.epilogue.apply(acc, c0, c1, self.dtype)
        self._out.store((slice(c0, c1), slice(r0, r1), slice(q0, q1)), y)
        self._counters.compute((c1 - c0) * (r1 - r0) * (q1 - q0) * k * k)

    def model_counters(self) -> AccessCounters:
        return lbl_counters(self.spec, asdict(self.tiling))

    def output_array(self) -> np.ndarray:
        return self._out.array
