"""PWPW FCM: two back-to-back pointwise convolutions fused (paper Fig. 4).

Each thread block owns one spatial tile of the final output.  The second PW
needs *all* intermediate channels at a pixel, so PW1 computes its full channel
extent for the tile with its complete weight matrix resident; PW2 then
streams its filters in ``tile_m`` groups.  1x1 filters have no halo, so PWPW
never recomputes anything — but it must keep **two** weight matrices on-chip,
which is why the paper finds PWPW feasible mostly under INT8, where weights
shrink 4x (§IV-B, Table II).

Global traffic:
``GMA = Pw1IFMsSz + n_spatial_tiles * (Pw1WeightsSz + Pw2WeightsSz) + OFMsSz``
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.dtypes import DType
from ..core.ops import exact_matmul
from ..core.tiling import ceil_div
from ..errors import CapacityError, ShapeError, UnsupportedError
from ..gpu.counters import AccessCounters
from ..gpu.memory import SharedMemory
from ..gpu.specs import GpuSpec
from ..ir.layers import ConvKind
from .base import SimKernel
from .params import LayerParams

__all__ = ["PwPwFusedKernel"]


class PwPwFusedKernel(SimKernel):
    """Fused PW->PW kernel with a spatially tiled, fully-channelled commBuffer."""

    def __init__(
        self, pw1: LayerParams, pw2: LayerParams, tile_hw: int, tile_m: int
    ) -> None:
        if (
            pw1.spec.kind is not ConvKind.POINTWISE
            or pw2.spec.kind is not ConvKind.POINTWISE
        ):
            raise ShapeError("PwPwFusedKernel fuses two pointwise layers")
        if pw1.spec.dtype is not pw2.spec.dtype:
            raise ShapeError("fused layers must share one precision")
        if (pw1.spec.out_channels, pw1.spec.out_h, pw1.spec.out_w) != (
            pw2.spec.in_channels,
            pw2.spec.in_h,
            pw2.spec.in_w,
        ):
            raise ShapeError(
                f"PW1 output {pw1.spec.ofm.shape} does not feed PW2 input {pw2.spec.ifm.shape}"
            )
        if pw2.spec.stride != 1:
            raise UnsupportedError("PWPW fusion assumes a stride-1 second pointwise")
        self.pw1 = pw1
        self.pw2 = pw2
        self.dtype: DType = pw1.spec.dtype
        self.name = f"fcm_pwpw[{pw1.spec.name}+{pw2.spec.name}]"
        self.out_hw = pw2.spec.out_h * pw2.spec.out_w
        self.tile_hw = min(tile_hw, self.out_hw)
        self.tile_m = min(tile_m, pw2.spec.out_channels)
        self._counters: AccessCounters | None = None

    # ---- capacity ----------------------------------------------------------------
    def comm_buffer_bytes(self) -> int:
        return self.pw1.spec.out_channels * self.tile_hw * self.dtype.nbytes

    def tile_footprint_bytes(self) -> int:
        from ..planner.costs import STREAM_CHUNK, streamed_matmul_l1_bytes

        cmid = self.pw1.spec.out_channels
        eb = self.dtype.nbytes
        # PW1 streams its reduction into the commBuffer accumulator; PW2 is a
        # streamed matmul against the resident commBuffer.
        stream1 = STREAM_CHUNK * (cmid + self.tile_hw) * eb
        pw2 = streamed_matmul_l1_bytes(self.tile_m, self.tile_hw, eb)
        return self.comm_buffer_bytes() + stream1 + pw2

    def check_capacity(self, gpu: GpuSpec) -> None:
        fp = self.tile_footprint_bytes()
        if fp > gpu.l1_bytes:
            raise CapacityError(f"{self.name}: working set {fp}B exceeds L1 {gpu.l1_bytes}B")
        if self.comm_buffer_bytes() > gpu.shared_bytes:
            raise CapacityError(
                f"{self.name}: commBuffer {self.comm_buffer_bytes()}B exceeds "
                f"shared {gpu.shared_bytes}B"
            )

    # ---- launch -------------------------------------------------------------------
    def grid(self) -> Sequence[tuple[int, ...]]:
        def build() -> list[tuple[int, ...]]:
            return [(si,) for si in range(ceil_div(self.out_hw, self.tile_hw))]

        return self._memo_grid(build)

    def bind(self, ifm: np.ndarray, counters: AccessCounters) -> None:
        if ifm.shape != self.pw1.spec.ifm.shape:
            raise ShapeError(f"{self.name}: IFM shape {ifm.shape} != {self.pw1.spec.ifm.shape}")
        s = self.pw1.spec.stride
        x = np.ascontiguousarray(ifm[:, ::s, ::s]).reshape(self.pw1.spec.in_channels, -1)
        self._ifm = self.make_buffer("ifm", x, "ifm", counters)
        self._w1 = self.make_buffer("pw1_weights", self.pw1.weights, "weights", counters)
        self._w2 = self.make_buffer("pw2_weights", self.pw2.weights, "weights", counters)
        out = self._fresh_output(
            (self.pw2.spec.out_channels, self.out_hw), self.dtype.np_dtype
        )
        self._out = self.make_buffer("ofm", out, "ofm", counters)
        self._counters = counters

    def run_block(self, coord: tuple[int, ...], shared: SharedMemory) -> None:
        (si,) = coord
        c_in = self.pw1.spec.in_channels
        cmid = self.pw1.spec.out_channels
        m_total = self.pw2.spec.out_channels
        p0 = si * self.tile_hw
        p1 = min(p0 + self.tile_hw, self.out_hw)
        np_pix = p1 - p0
        acc_t = self.dtype.acc_dtype

        # Part 2: fetch PW1's weights (streamed through registers / L1).
        w1 = self._w1.load((slice(None), slice(None)))

        # Part 3: PW1 conv-norm-act into the commBuffer (all Cmid channels).
        x = self._ifm.load((slice(None), slice(p0, p1))).astype(acc_t)
        interm = self.pw1.epilogue.apply(w1.astype(acc_t) @ x, 0, cmid, self.dtype)
        shared.alloc("commBuffer", (cmid, self.tile_hw), interm.dtype, self.dtype.nbytes)
        shared.write("commBuffer", _fit2(interm, (cmid, self.tile_hw)))
        self._counters.compute(cmid * c_in * np_pix)

        # Part 4: PW2 conv-norm-act streaming filter groups.
        for mi in range(ceil_div(m_total, self.tile_m)):
            m0 = mi * self.tile_m
            m1 = min(m0 + self.tile_m, m_total)
            w2_tile = self._w2.load((slice(m0, m1), slice(None)))
            xi = shared.read("commBuffer")[:, :np_pix].astype(acc_t)
            y = self.pw2.epilogue.apply(w2_tile.astype(acc_t) @ xi, m0, m1, self.dtype)
            self._out.store((slice(m0, m1), slice(p0, p1)), y)
            self._counters.compute((m1 - m0) * cmid * np_pix)

    def run_grid(self) -> int:
        """Whole-grid fast path: two back-to-back full matmuls.

        Bulk charges: PW1's full weight matrix plus PW2's grouped streams
        per spatial tile, the IFM read exactly once, one commBuffer write
        plus one read per filter group per block (fixed ``tile_hw`` slot).
        """
        spec1, spec2 = self.pw1.spec, self.pw2.spec
        eb = self.dtype.nbytes
        c_in, c_mid = spec1.in_channels, spec1.out_channels
        m_all = spec2.out_channels
        ns = ceil_div(self.out_hw, self.tile_hw)
        n_groups = ceil_div(m_all, self.tile_m)
        ctr = self._counters
        ctr.read_bulk("ifm", c_in * self.out_hw * eb)
        ctr.read_bulk("weights", (c_mid * c_in + m_all * c_mid) * eb, ns)
        ctr.write_bulk("ofm", m_all * self.out_hw * eb)
        ctr.smem_bulk((1 + n_groups) * c_mid * self.tile_hw * eb, ns)
        ctr.compute(c_mid * c_in * self.out_hw)
        ctr.compute(m_all * c_mid * self.out_hw)

        acc_t = self.dtype.acc_dtype
        interm = self.pw1.epilogue.apply(
            exact_matmul(self._w1.array, self._ifm.array, acc_t), 0, c_mid, self.dtype
        )
        y = self.pw2.epilogue.apply(
            exact_matmul(self._w2.array, interm, acc_t), 0, m_all, self.dtype
        )
        self._out.array[...] = y
        return self.comm_buffer_bytes()  # every block allocs the full slot

    def output_array(self) -> np.ndarray:
        return self._out.array.reshape(
            self.pw2.spec.out_channels, self.pw2.spec.out_h, self.pw2.spec.out_w
        )

    def weight_bytes(self) -> int:
        return self.pw1.spec.weights_bytes + self.pw2.spec.weights_bytes

    def finalize(self, counters: AccessCounters) -> None:
        """Annotate weight re-reads for L2-aware timing."""
        from ..core.fcm import FcmType
        from ..planner.analytic import fcm_counters

        ref = fcm_counters(
            FcmType.PWPW, self.pw1.spec, self.pw2.spec,
            {"tile_hw": self.tile_hw, "tile_m": self.tile_m},
        )
        counters.rereads.extend(ref.rereads)


def _fit2(tile: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    if tile.shape == shape:
        return tile
    out = np.zeros(shape, dtype=tile.dtype)
    out[: tile.shape[0], : tile.shape[1]] = tile
    return out
