"""Layer-by-layer pointwise convolution kernel (direct, OS-LWS dataflow).

Each thread block owns one OFM tile of ``tile_m`` filters x ``tile_hw``
pixels.  The reduction (channel) dimension is never split, so partial sums
stay in registers and each OFM element is written exactly once (the paper's
two cost-model assumptions, §IV-A).  Global traffic therefore follows Eq. 2:
IFMs are re-read once per filter group, weights once per spatial tile.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.dtypes import DType
from ..core.ops import exact_matmul
from ..core.tiling import PwTiling, ceil_div
from ..errors import CapacityError, ShapeError
from ..gpu.counters import AccessCounters
from ..gpu.memory import SharedMemory
from ..gpu.specs import GpuSpec
from ..ir.layers import ConvKind
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
        self.spec = spec
        self.dtype: DType = spec.dtype
        self.name = f"pw_direct[{spec.name}]"
        self.out_hw = spec.out_h * spec.out_w
        self.tile_m = min(tiling.tile_m, spec.out_channels)
        self.tile_hw = min(tiling.tile_hw, self.out_hw)
        self._counters: AccessCounters | None = None

    # ---- capacity (Eq. 2 constraint, reduction-streaming residency) ----------
    def tile_footprint_bytes(self) -> int:
        """Output tile + in-flight reduction chunks, at storage precision."""
        from ..planner.costs import streamed_matmul_l1_bytes

        return streamed_matmul_l1_bytes(self.tile_m, self.tile_hw, self.dtype.nbytes)

    def check_capacity(self, gpu: GpuSpec) -> None:
        fp = self.tile_footprint_bytes()
        if fp > gpu.l1_bytes:
            raise CapacityError(
                f"{self.name}: tile working set {fp}B exceeds L1 {gpu.l1_bytes}B"
            )

    # ---- launch -----------------------------------------------------------------
    def grid(self) -> Sequence[tuple[int, ...]]:
        def build() -> list[tuple[int, ...]]:
            nm = ceil_div(self.spec.out_channels, self.tile_m)
            ns = ceil_div(self.out_hw, self.tile_hw)
            return [(mi, si) for mi in range(nm) for si in range(ns)]

        return self._memo_grid(build)

    def bind(self, ifm: np.ndarray, counters: AccessCounters) -> None:
        if ifm.shape != self.spec.ifm.shape:
            raise ShapeError(f"{self.name}: IFM shape {ifm.shape} != {self.spec.ifm.shape}")
        s = self.spec.stride
        # A strided PW only ever touches the subsampled pixels; bind that view
        # so byte accounting charges exactly the elements a real kernel loads.
        x = np.ascontiguousarray(ifm[:, ::s, ::s]).reshape(self.spec.in_channels, -1)
        self._ifm = self.make_buffer("ifm", x, "ifm", counters)
        self._w = self.make_buffer("weights", self.params.weights, "weights", counters)
        out = self._fresh_output((self.spec.out_channels, self.out_hw), self.dtype.np_dtype)
        self._out = self.make_buffer("ofm", out, "ofm", counters)
        self._counters = counters

    def run_block(self, coord: tuple[int, ...], shared: SharedMemory) -> None:
        mi, si = coord
        m0 = mi * self.tile_m
        m1 = min(m0 + self.tile_m, self.spec.out_channels)
        p0 = si * self.tile_hw
        p1 = min(p0 + self.tile_hw, self.out_hw)
        acc_t = self.dtype.acc_dtype
        w_tile = self._w.load((slice(m0, m1), slice(None))).astype(acc_t)
        x_tile = self._ifm.load((slice(None), slice(p0, p1))).astype(acc_t)
        acc = w_tile @ x_tile
        y = self.params.epilogue.apply(acc, m0, m1, self.dtype)
        self._out.store((slice(m0, m1), slice(p0, p1)), y)
        self._counters.compute((m1 - m0) * self.spec.in_channels * (p1 - p0))

    def run_grid(self) -> int:
        """Whole-grid fast path: one full matmul over the subsampled IFM.

        Per-block sums in closed form: the IFM streams once per filter
        group, the weight matrix once per spatial tile, every OFM element
        is written exactly once.
        """
        spec = self.spec
        eb = self.dtype.nbytes
        m_all, c_in = spec.out_channels, spec.in_channels
        nm = ceil_div(m_all, self.tile_m)
        ns = ceil_div(self.out_hw, self.tile_hw)
        ctr = self._counters
        ctr.read_bulk("weights", m_all * c_in * eb, ns)
        ctr.read_bulk("ifm", c_in * self.out_hw * eb, nm)
        ctr.write_bulk("ofm", m_all * self.out_hw * eb)
        ctr.compute(m_all * c_in * self.out_hw)

        acc = exact_matmul(self._w.array, self._ifm.array, self.dtype.acc_dtype)
        self._out.array[...] = self.params.epilogue.apply(acc, 0, m_all, self.dtype)
        return 0  # direct kernels keep everything in registers / L1

    def output_array(self) -> np.ndarray:
        return self._out.array.reshape(
            self.spec.out_channels, self.spec.out_h, self.spec.out_w
        )

    def weight_bytes(self) -> int:
        return self.spec.weights_bytes

    def finalize(self, counters: AccessCounters) -> None:
        """Annotate weight/IFM re-reads for L2-aware timing (same math as
        :mod:`repro.planner.analytic`, so functional == analytic timing)."""
        from ..planner.analytic import lbl_counters

        ref = lbl_counters(self.spec, {"tile_m": self.tile_m, "tile_hw": self.tile_hw})
        counters.rereads.extend(ref.rereads)
