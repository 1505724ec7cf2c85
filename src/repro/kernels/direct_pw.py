"""Layer-by-layer pointwise convolution kernel (direct, OS-LWS dataflow).

Each thread block owns one OFM tile of ``tile_m`` filters x ``tile_hw``
pixels.  The reduction (channel) dimension is never split, so partial sums
stay in registers and each OFM element is written exactly once (the paper's
two cost-model assumptions, §IV-A).  Global traffic therefore follows Eq. 2:
IFMs are re-read once per filter group, weights once per spatial tile.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Sequence

import numpy as np

from ..core.dtypes import DType
from ..core.tiling import PwTiling, ceil_div
from ..errors import CapacityError, ShapeError
from ..gpu.counters import AccessCounters
from ..gpu.memory import SharedMemory
from ..gpu.specs import GpuSpec
from ..ir.layers import ConvKind
from ..planner.analytic import lbl_counters
from ..planner.costs import pw_tile_footprint
from .base import SimKernel
from .params import LayerParams

__all__ = ["PwDirectKernel"]


class PwDirectKernel(SimKernel):
    """Simulated direct PW kernel with output-stationary tiling."""

    def __init__(self, params: LayerParams, tiling: PwTiling) -> None:
        spec = params.spec
        if spec.kind is not ConvKind.POINTWISE:
            raise ShapeError(f"{spec.name}: PwDirectKernel needs a pointwise layer")
        self.params = params
        self.stages = (params,)
        self.spec = spec
        self.dtype: DType = spec.dtype
        self.name = f"pw_direct[{spec.name}]"
        self.out_hw = spec.out_h * spec.out_w
        #: the tiling clamped to the layer: what the grid runs and is priced at.
        self.tiling = PwTiling(
            min(tiling.tile_m, spec.out_channels), min(tiling.tile_hw, self.out_hw)
        )
        self._counters: AccessCounters | None = None

    # ---- capacity (Eq. 2 constraint, reduction-streaming residency) ----------
    def check_capacity(self, gpu: GpuSpec) -> None:
        fp = pw_tile_footprint(self.spec, self.tiling)
        if fp > gpu.l1_bytes:
            raise CapacityError(
                f"{self.name}: tile working set {fp}B exceeds L1 {gpu.l1_bytes}B"
            )

    # ---- launch -----------------------------------------------------------------
    def grid(self) -> Sequence[tuple[int, ...]]:
        def build() -> list[tuple[int, ...]]:
            nm = ceil_div(self.spec.out_channels, self.tiling.tile_m)
            ns = ceil_div(self.out_hw, self.tiling.tile_hw)
            return [(mi, si) for mi in range(nm) for si in range(ns)]

        return self._memo_grid(build)

    def bind(self, ifm: np.ndarray, counters: AccessCounters) -> None:
        s = self.spec.stride
        # A strided PW only ever touches the subsampled pixels; bind that view
        # so byte accounting charges exactly the elements a real kernel loads.
        x = np.ascontiguousarray(ifm[:, ::s, ::s]).reshape(self.spec.in_channels, -1)
        self._ifm = self.make_buffer("ifm", x, "ifm", counters)
        self._w = self.make_buffer("weights", self.params.weights, "weights", counters)
        out = np.zeros((self.spec.out_channels, self.out_hw), dtype=self.dtype.np_dtype)
        self._out = self.make_buffer("ofm", out, "ofm", counters)
        self._counters = counters

    def run_block(self, coord: tuple[int, ...], shared: SharedMemory) -> None:
        mi, si = coord
        m0 = mi * self.tiling.tile_m
        m1 = min(m0 + self.tiling.tile_m, self.spec.out_channels)
        p0 = si * self.tiling.tile_hw
        p1 = min(p0 + self.tiling.tile_hw, self.out_hw)
        acc_t = self.dtype.acc_dtype
        w_tile = self._w.load((slice(m0, m1), slice(None))).astype(acc_t)
        x_tile = self._ifm.load((slice(None), slice(p0, p1))).astype(acc_t)
        acc = w_tile @ x_tile
        y = self.params.epilogue.apply(acc, m0, m1, self.dtype)
        self._out.store((slice(m0, m1), slice(p0, p1)), y)
        self._counters.compute((m1 - m0) * self.spec.in_channels * (p1 - p0))

    def model_counters(self) -> AccessCounters:
        return lbl_counters(self.spec, asdict(self.tiling))

    def output_array(self) -> np.ndarray:
        return self._out.array.reshape(
            self.spec.out_channels, self.spec.out_h, self.spec.out_w
        )
