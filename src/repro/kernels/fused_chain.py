"""Generic fused-chain kernel: N conv stages, one launch, on-chip intermediates.

This kernel executes an arbitrary-length :class:`~repro.core.chain.FusedChain`
with the dataflow the chain cost models price
(:mod:`repro.planner.chain_costs`, :func:`~repro.planner.chain_costs.chain_dataflow`):

* one thread block owns a ``tile_h x tile_w`` tile of the *final* stage's
  output; the required window of every earlier boundary is the dataflow's
  :attr:`~repro.planner.chain_costs.ChainDataflow.windows` (the one
  :func:`~repro.core.tiling.tile_windows` rule the cost model prices, so
  metered bytes match the measured-convention estimates exactly);
* each intermediate is computed over its halo-extended window into a shared
  commBuffer; a buffer is freed as soon as the consuming stage finishes, so
  at most two commBuffers are live at once (the capacity rule
  :func:`~repro.planner.chain_costs.chain_footprints` enforces);
* halo elements of any boundary feeding a later DW stage are recomputed by
  every sharing block — the model
  (:func:`~repro.planner.analytic.chain_counters`) counts them as redundant
  MACs, generalizing the PWDW_R accounting;
* a final PW stage streams its filter matrix in ``tile_m`` groups against
  the resident last commBuffer; a final DW stage consumes it channel-wise;
* a ``tile_f`` tiling adds a channel-group grid axis: block ``(fi, hi, wi)``
  re-reads the full-channel input window and computes only channels
  ``[fi * tile_f, (fi + 1) * tile_f)`` of every stage (PWDW, PWDW_R);
* a ``tile_hw`` tiling runs on the flattened 1 x H·W plane (PWPW).

Shared memory is metered one way for every launch: each commBuffer window is
charged once written and once read at its actual (border-clamped,
partial-group) size, plus one re-read per extra ``tile_m`` group; the peak
is the largest live set of windows.  The reference engine meters that in
every block; the model prices it in closed form
(:attr:`~repro.planner.chain_costs.ChainDataflow.comm_bytes` and
:attr:`~repro.planner.chain_costs.ChainDataflow.comm_peak`), and the fast
engine reports the model.  The fast engine computes the chain as every
kernel does, one whole-tensor pass per stage
(:meth:`~repro.kernels.base.SimKernel.forward` over :attr:`stages`): the
commBuffers change where the intermediates live, not what is computed.

The paper's four FCMs are length-2 chains, so this kernel is their only
implementation: :class:`DwPwFusedKernel`, :class:`PwDwFusedKernel`,
:class:`PwDwRFusedKernel` and :class:`PwPwFusedKernel` only check that their
pair and tiling speak their :attr:`~FusedChainKernel.FCM`
(:func:`~repro.planner.chain_costs.fcm_type_of`) and name it.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ..core.chain import FusedChain
from ..core.dtypes import DType
from ..core.fcm import FcmType
from ..core.tiling import ceil_div
from ..errors import CapacityError, ShapeError
from ..gpu.counters import AccessCounters
from ..gpu.memory import SharedMemory
from ..gpu.specs import GpuSpec
from ..ir.layers import ConvKind
from ..planner.analytic import chain_counters
from ..planner.chain_costs import chain_dataflow, fcm_type_of
from .base import SimKernel
from .direct_dw import depthwise_tile
from .params import LayerParams

__all__ = [
    "FusedChainKernel",
    "DwPwFusedKernel",
    "PwDwFusedKernel",
    "PwDwRFusedKernel",
    "PwPwFusedKernel",
]


class FusedChainKernel(SimKernel):
    """Simulated N-stage fused kernel exchanging intermediates via shared memory."""

    #: the FCM a pairwise subclass runs (``None``: any chain vocabulary).
    FCM: FcmType | None = None

    def __init__(
        self,
        stages: Sequence[LayerParams],
        tile_h: int,
        tile_w: int,
        tile_m: int | None = None,
    ) -> None:
        tiling = {"tile_h": tile_h, "tile_w": tile_w}
        if tile_m is not None:
            tiling["tile_m"] = tile_m
        self._setup(stages, tiling, "chain")

    def _setup(self, stages: Sequence[LayerParams], tiling: Mapping[str, int], label: str) -> None:
        self.stages = list(stages)
        self.chain = FusedChain(tuple(p.spec for p in self.stages))
        self.dtype: DType = self.chain.dtype
        self.name = f"fcm_{label}[{self.chain.name}]"
        #: the tiling dict as given, and the dataflow it runs: stages as the
        #: blocks see them (PWPW's flattened plane), clamped tiles, groups.
        self.tiling = dict(tiling)
        self.flow = chain_dataflow(self.chain, self.tiling)
        self._counters: AccessCounters | None = None

    def _pair(self, first: LayerParams, second: LayerParams, tiling: Mapping[str, int]) -> None:
        """Set up this class's FCM as a length-2 chain, once the pair's kinds
        and the tiling's keys are checked to speak it."""
        if fcm_type_of((first.spec, second.spec), tiling) is not self.FCM:
            raise ShapeError(
                f"{self.FCM}: {first.spec.kind.short}->{second.spec.kind.short} "
                f"under tiling keys {sorted(tiling)} is not this module"
            )
        self._setup((first, second), tiling, self.FCM.value)

    # ---- capacity -------------------------------------------------------------
    def check_capacity(self, gpu: GpuSpec) -> None:
        from ..planner.chain_costs import chain_footprints

        l1, shared, _ = chain_footprints(self.chain, self.tiling)
        if l1 > gpu.l1_bytes:
            raise CapacityError(
                f"{self.name}: working set {l1}B exceeds L1 {gpu.l1_bytes}B"
            )
        if shared > gpu.shared_bytes:
            raise CapacityError(
                f"{self.name}: commBuffers {shared}B exceed shared {gpu.shared_bytes}B"
            )

    # ---- launch ---------------------------------------------------------------
    def grid(self) -> Sequence[tuple[int, ...]]:
        def build() -> list[tuple[int, ...]]:
            flow = self.flow
            last = flow.chain.last
            nh = ceil_div(last.out_h, flow.tile_h)
            nw = ceil_div(last.out_w, flow.tile_w)
            return [
                (fi, hi, wi)
                for fi in range(flow.n_f) for hi in range(nh) for wi in range(nw)
            ]

        return self._memo_grid(build)

    def bind(self, ifm: np.ndarray, counters: AccessCounters) -> None:
        first = self.chain.first
        if first.kind is ConvKind.POINTWISE:
            # A strided first PW touches only the subsampled pixels; bind that
            # view on the boundary-1 grid so later DW windows index it directly.
            s = first.stride
            x = np.ascontiguousarray(ifm[:, ::s, ::s])
        else:
            x = ifm
        if self.flow.chain is not self.chain:  # PWPW: the flattened 1 x H*W plane
            x = x.reshape(self.flow.chain.first.ifm.shape)
        self._ifm = self.make_buffer("ifm", x, "ifm", counters)
        self._weights = [
            self.make_buffer(f"w{i}_{p.spec.name}", p.weights, "weights", counters)
            for i, p in enumerate(self.stages)
        ]
        out = np.zeros(self.flow.chain.last.ofm.shape, dtype=self.dtype.np_dtype)
        self._out = self.make_buffer("ofm", out, "ofm", counters)
        self._counters = counters

    def run_block(self, coord: tuple[int, ...], shared: SharedMemory) -> None:
        fi, hi, wi = coord
        flow = self.flow
        specs = flow.chain.specs
        n = len(specs)
        acc_t = self.dtype.acc_dtype
        # Per-boundary ((row lo, hi), (col lo, hi)) of this block: index b is
        # the boundary (0 = chain input, N = the block's output tile).
        ranges = [(r[hi], c[wi]) for r, c in zip(*flow.windows)]
        group = None  # this block's channel group, in every stage
        if flow.tile_f is not None:
            f0 = fi * flow.tile_f
            group = (f0, min(f0 + flow.tile_f, specs[0].out_channels))

        # Boundary the block reads from global memory: a first PW stage reads
        # input pixels 1:1 with the boundary-1 window it computes.
        in_b = 1 if specs[0].kind is ConvKind.POINTWISE else 0
        (lo_r, hi_r), (lo_q, hi_q) = ranges[in_b]
        cur = self._ifm.load((slice(None), slice(lo_r, hi_r), slice(lo_q, hi_q)))
        cur_origin = (lo_r, lo_q)  # where `cur` sits on boundary (stage input) grid

        prev_slot: str | None = None
        for i, (params, spec) in enumerate(zip(self.stages, specs)):
            stage_last = i == n - 1
            c0, c1 = group if group is not None else (0, spec.out_channels)
            (o_lo_r, o_hi_r), (o_lo_q, o_hi_q) = ranges[i + 1]
            nr, nc = o_hi_r - o_lo_r, o_hi_q - o_lo_q
            # A first PW stage reads the pre-subsampled view: its window is
            # indexed on the boundary-1 grid, pixel-per-output (stride 1).
            pw_stride = 1 if i == 0 and in_b == 1 else spec.stride
            if spec.kind is ConvKind.DEPTHWISE:
                weights = self._weights[i].load(slice(c0, c1))
                acc = depthwise_tile(
                    window=cur.astype(acc_t, copy=False),
                    weights=weights,
                    rows_out=nr,
                    cols_out=nc,
                    row_off=cur_origin[0] - (o_lo_r * spec.stride - spec.padding),
                    col_off=cur_origin[1] - (o_lo_q * spec.stride - spec.padding),
                    kernel=spec.kernel,
                    stride=spec.stride,
                    acc_dtype=acc_t,
                )
                y = params.epilogue.apply(acc, c0, c1, self.dtype)
                self._counters.compute((c1 - c0) * nr * nc * spec.kernel * spec.kernel)
                if stage_last:
                    self._out.store(
                        (slice(c0, c1), slice(o_lo_r, o_hi_r), slice(o_lo_q, o_hi_q)), y
                    )
            elif stage_last:
                # Final PW: stream filter groups against the resident window.
                x = _pw_window(cur, cur_origin, o_lo_r, nr, o_lo_q, nc, pw_stride)
                xf = x.reshape(spec.in_channels, nr * nc).astype(acc_t)
                m_total = spec.out_channels
                for mi in range(ceil_div(m_total, flow.tile_m)):
                    m0 = mi * flow.tile_m
                    m1 = min(m0 + flow.tile_m, m_total)
                    w_tile = self._weights[i].load((slice(m0, m1), slice(None)))
                    if prev_slot is not None and mi > 0:
                        # Re-reads of the resident commBuffer per filter group.
                        shared.read(prev_slot)
                    acc = w_tile.astype(acc_t) @ xf
                    y = params.epilogue.apply(acc, m0, m1, self.dtype)
                    self._out.store(
                        (slice(m0, m1), slice(o_lo_r, o_hi_r), slice(o_lo_q, o_hi_q)),
                        y.reshape(m1 - m0, nr, nc),
                    )
                    self._counters.compute((m1 - m0) * spec.in_channels * nr * nc)
            else:
                # Interior PW: the block's filter rows over the required window.
                x = _pw_window(cur, cur_origin, o_lo_r, nr, o_lo_q, nc, pw_stride)
                w_rows = self._weights[i].load((slice(c0, c1), slice(None)))
                acc = w_rows.astype(acc_t) @ x.reshape(spec.in_channels, nr * nc).astype(acc_t)
                y = params.epilogue.apply(acc, c0, c1, self.dtype)
                y = y.reshape(c1 - c0, nr, nc)
                self._counters.compute((c1 - c0) * spec.in_channels * nr * nc)

            if not stage_last:
                slot = f"comm{i + 1}"
                shared.alloc(slot, (c1 - c0, nr, nc), y.dtype, self.dtype.nbytes)
                shared.write(slot, y)
                if prev_slot is not None:
                    shared.free(prev_slot)
                cur = shared.read(slot)
                cur_origin = (o_lo_r, o_lo_q)
                prev_slot = slot

    def model_counters(self) -> AccessCounters:
        return chain_counters(self.chain.specs, self.tiling)

    def model_shared_peak(self) -> int:
        return self.flow.comm_peak

    def output_array(self) -> np.ndarray:
        return self._out.array.reshape(self.chain.last.ofm.shape)


class DwPwFusedKernel(FusedChainKernel):
    """The paper's DWPW module (Fig. 3b, 4): a DW layer fused with its PW
    consumer.  The DW stage computes all channels of a spatial tile into the
    commBuffer and the PW stage streams its filters in ``tile_m`` groups
    against it; nothing is written to global memory or recomputed."""

    FCM = FcmType.DWPW

    def __init__(
        self, dw: LayerParams, pw: LayerParams, tile_h: int, tile_w: int, tile_m: int
    ) -> None:
        self._pair(dw, pw, {"tile_h": tile_h, "tile_w": tile_w, "tile_m": tile_m})


class PwDwFusedKernel(FusedChainKernel):
    """The paper's PWDW module (§III-A): each block computes ``tile_f``
    intermediate channels over the whole plane, which the channel-wise DW
    stage consumes with no halo and no recomputation; the PW input is
    re-streamed once per channel group."""

    FCM = FcmType.PWDW

    def __init__(self, pw: LayerParams, dw: LayerParams, tile_f: int) -> None:
        self._pair(pw, dw, {"tile_f": tile_f})


class PwDwRFusedKernel(FusedChainKernel):
    """The paper's PWDW_R module (Fig. 3b right): ``tile_f`` channels of a
    spatial tile, whose DW halo the PW stage recomputes in every block that
    shares it — the redundancy of paper Table II."""

    FCM = FcmType.PWDW_R

    def __init__(
        self, pw: LayerParams, dw: LayerParams, tile_f: int, tile_h: int, tile_w: int
    ) -> None:
        self._pair(pw, dw, {"tile_f": tile_f, "tile_h": tile_h, "tile_w": tile_w})


class PwPwFusedKernel(FusedChainKernel):
    """The paper's PWPW module (Fig. 4): ``tile_hw`` pixels of the flattened
    plane with all intermediate channels resident; both weight matrices are
    re-read per pixel tile.  A strided second PW has no flattened plane and
    is refused."""

    FCM = FcmType.PWPW

    def __init__(
        self, pw1: LayerParams, pw2: LayerParams, tile_hw: int, tile_m: int
    ) -> None:
        self._pair(pw1, pw2, {"tile_hw": tile_hw, "tile_m": tile_m})


def _pw_window(
    cur: np.ndarray,
    origin: tuple[int, int],
    o_lo_r: int,
    nr: int,
    o_lo_q: int,
    nc: int,
    stride: int,
) -> np.ndarray:
    """Select the input pixels a PW stage needs from the resident window."""
    ro = o_lo_r * stride - origin[0]
    co = o_lo_q * stride - origin[1]
    return cur[
        :,
        ro : ro + (nr - 1) * stride + 1 : stride,
        co : co + (nc - 1) * stride + 1 : stride,
    ]
