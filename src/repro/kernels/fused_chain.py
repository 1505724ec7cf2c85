"""Generic fused-chain kernel: N conv stages, one launch, on-chip intermediates.

This kernel executes an arbitrary-length :class:`~repro.core.chain.FusedChain`
with the dataflow the chain cost models price
(:mod:`repro.planner.chain_costs`, :func:`~repro.planner.chain_costs.chain_dataflow`):

* one thread block owns a ``tile_h x tile_w`` tile of the *final* stage's
  output; the required window of every earlier boundary is found by walking
  the stage geometries backward (the same ``tile_input_range`` composition
  the cost model uses, so metered bytes match the measured-convention
  estimates exactly);
* each intermediate is computed over its halo-extended window into a shared
  commBuffer; a buffer is freed as soon as the consuming stage finishes, so
  at most two commBuffers are live at once (the capacity rule
  :func:`~repro.planner.chain_costs.chain_footprints` enforces);
* halo elements of any boundary feeding a later DW stage are recomputed by
  every sharing block — :meth:`finalize` reclassifies them as redundant
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
is the largest live set of windows.

The paper's four FCMs are length-2 chains, so this kernel is their only
implementation: :class:`DwPwFusedKernel`, :class:`PwDwFusedKernel`,
:class:`PwDwRFusedKernel` and :class:`PwPwFusedKernel` only check their pair
and name it.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ..core.chain import FusedChain
from ..core.dtypes import DType
from ..core.fcm import FcmType
from ..core.ops import exact_matmul
from ..core.tiling import ceil_div, tile_input_range
from ..errors import CapacityError, ShapeError
from ..gpu.counters import AccessCounters
from ..gpu.fastpath import grid_depthwise
from ..gpu.memory import SharedMemory
from ..gpu.specs import GpuSpec
from ..ir.layers import ConvKind
from ..planner.chain_costs import chain_dataflow
from ..planner.fcm_costs import fcm_chain
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

    def _pair(
        self, fcm_type: FcmType, first: LayerParams, second: LayerParams,
        tiling: Mapping[str, int],
    ) -> None:
        """Set up one FCM, after its pair checks, as a length-2 chain."""
        fcm_chain(fcm_type, first.spec, second.spec, tiling)
        self._setup((first, second), tiling, fcm_type.value)

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
        if ifm.shape != first.ifm.shape:
            raise ShapeError(
                f"{self.name}: IFM shape {ifm.shape} != {first.ifm.shape}"
            )
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
        out = self._fresh_output(self.flow.chain.last.ofm.shape, self.dtype.np_dtype)
        self._out = self.make_buffer("ofm", out, "ofm", counters)
        self._counters = counters

    def _block_ranges(
        self, r0: int, r1: int, q0: int, q1: int
    ) -> list[tuple[tuple[int, int], tuple[int, int]]]:
        """Per-boundary clamped ((row lo, hi), (col lo, hi)) for one block.

        Index ``b`` is the boundary (0 = chain input, N = final output);
        the same backward composition as the chain cost model.
        """
        rows, cols = (r0, r1), (q0, q1)
        per = [(rows, cols)]
        for spec in reversed(self.flow.chain.specs):
            rows = tile_input_range(
                rows[0], rows[1] - rows[0], spec.kernel, spec.stride, spec.padding, spec.in_h
            )
            cols = tile_input_range(
                cols[0], cols[1] - cols[0], spec.kernel, spec.stride, spec.padding, spec.in_w
            )
            per.append((rows, cols))
        per.reverse()
        return per

    def run_block(self, coord: tuple[int, ...], shared: SharedMemory) -> None:
        fi, hi, wi = coord
        flow = self.flow
        specs = flow.chain.specs
        n = len(specs)
        last = flow.chain.last
        acc_t = self.dtype.acc_dtype
        r0 = hi * flow.tile_h
        r1 = min(r0 + flow.tile_h, last.out_h)
        q0 = wi * flow.tile_w
        q1 = min(q0 + flow.tile_w, last.out_w)
        ranges = self._block_ranges(r0, r1, q0, q1)
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

    def _axis_extents(self, vertical: bool) -> list[list[int]]:
        """Per-boundary clamped extents along one axis, one entry per tile.

        ``out[b][t]`` is the row (or column) extent of boundary ``b``'s
        window in tile ``t`` — the same backward composition
        :meth:`_block_ranges` performs, but separable per axis because
        :func:`~repro.core.tiling.tile_input_range` composes rows and
        columns independently.
        """
        flow = self.flow
        last = flow.chain.last
        total = last.out_h if vertical else last.out_w
        tile = flow.tile_h if vertical else flow.tile_w
        per_tile: list[list[tuple[int, int]]] = []
        for t0 in range(0, total, tile):
            rng = (t0, min(t0 + tile, total))
            per = [rng]
            for spec in reversed(flow.chain.specs):
                in_size = spec.in_h if vertical else spec.in_w
                rng = tile_input_range(
                    rng[0], rng[1] - rng[0], spec.kernel, spec.stride,
                    spec.padding, in_size,
                )
                per.append(rng)
            per.reverse()
            per_tile.append(per)
        n_bounds = len(flow.chain.specs) + 1
        return [
            [per[b][1] - per[b][0] for per in per_tile] for b in range(n_bounds)
        ]

    def run_grid(self) -> int:
        """Whole-grid fast path: the chain as N full-tensor stage passes.

        Bulk charges come from the separable per-axis window extents every
        interpreted block derives with :meth:`_block_ranges`: every channel
        group re-reads the input windows, stage weights stream once per
        spatial tile (channel groups and a final PW's filter groups slice
        them, summing to the same total), intermediate commBuffers see one
        write plus one read each (plus the final PW's per-group re-reads),
        and the halo-extended stage extents reproduce the redundant compute
        that :meth:`finalize` later reclassifies.
        """
        flow = self.flow
        specs = flow.chain.specs
        n = len(specs)
        eb = self.dtype.nbytes
        rows = self._axis_extents(vertical=True)
        cols = self._axis_extents(vertical=False)
        sum_r = [sum(r) for r in rows]
        sum_c = [sum(c) for c in cols]
        n_sp = len(rows[0]) * len(cols[0])
        in_b = 1 if specs[0].kind is ConvKind.POINTWISE else 0
        last = flow.chain.last
        n_groups = (
            ceil_div(last.out_channels, flow.tile_m)
            if last.kind is ConvKind.POINTWISE
            else 0
        )
        ctr = self._counters
        ctr.read_bulk("ifm", specs[0].in_channels * sum_r[in_b] * sum_c[in_b] * eb, flow.n_f)
        for i, spec in enumerate(specs):
            if spec.kind is ConvKind.DEPTHWISE:
                per_block_w = spec.out_channels * spec.kernel * spec.kernel
                stage_macs = (
                    spec.out_channels * spec.kernel * spec.kernel
                    * sum_r[i + 1] * sum_c[i + 1]
                )
            else:
                per_block_w = spec.out_channels * spec.in_channels
                stage_macs = (
                    spec.out_channels * spec.in_channels * sum_r[i + 1] * sum_c[i + 1]
                )
            ctr.read_bulk("weights", per_block_w * eb, n_sp)
            ctr.compute(stage_macs)
        ctr.write_bulk("ofm", last.out_channels * sum_r[n] * sum_c[n] * eb)
        # commBuffer traffic: slot i (stage i's output window) is written
        # once and read once when consumed; a final PW re-reads the last
        # slot once per extra filter group.  Channel groups split each
        # window's channels, so the totals do not depend on them.
        comm_totals = [
            specs[i].out_channels * sum_r[i + 1] * sum_c[i + 1] * eb
            for i in range(n - 1)
        ]
        for total in comm_totals:
            ctr.smem_bulk(2 * total)
        if n_groups > 1:
            ctr.smem_bulk((n_groups - 1) * comm_totals[-1])

        # Peak shared bytes: walk every block's alloc/free timeline (sizes
        # are per-axis products, so this is integer-only and tiny); the
        # first channel group is a full one.
        peak = 0
        for hi in range(len(rows[0])):
            for wi in range(len(cols[0])):
                sizes = [
                    flow.channels(i + 1) * rows[i + 1][hi] * cols[i + 1][wi] * eb
                    for i in range(n - 1)
                ]
                block_peak = sizes[0]
                for a, b in zip(sizes, sizes[1:]):
                    block_peak = max(block_peak, a + b)
                peak = max(peak, block_peak)

        # Functional pass: every stage over its full tensor.
        acc_t = self.dtype.acc_dtype
        cur = self._ifm.array
        for i, (params, spec) in enumerate(zip(self.stages, specs)):
            if spec.kind is ConvKind.DEPTHWISE:
                acc = grid_depthwise(
                    window=cur,
                    weights=self._weights[i].array,
                    rows_out=spec.out_h,
                    cols_out=spec.out_w,
                    row_off=spec.padding,
                    col_off=spec.padding,
                    kernel=spec.kernel,
                    stride=spec.stride,
                    acc_dtype=acc_t,
                )
                cur = params.epilogue.apply(acc, 0, spec.out_channels, self.dtype)
            else:
                # A first PW reads the pre-subsampled view bound at stride 1.
                pw_stride = 1 if i == 0 and in_b == 1 else spec.stride
                x = cur if pw_stride == 1 else cur[:, ::pw_stride, ::pw_stride]
                acc = exact_matmul(
                    self._weights[i].array,
                    np.ascontiguousarray(x).reshape(spec.in_channels, -1),
                    acc_t,
                )
                cur = params.epilogue.apply(acc, 0, spec.out_channels, self.dtype)
                cur = cur.reshape(spec.out_channels, spec.out_h, spec.out_w)
        self._out.array[...] = cur
        return peak

    def output_array(self) -> np.ndarray:
        return self._out.array.reshape(self.chain.last.ofm.shape)

    def weight_bytes(self) -> int:
        return self.chain.weights_bytes

    def finalize(self, counters: AccessCounters) -> None:
        """Reclassify recomputed halo elements and annotate re-reads.

        The analytic :func:`~repro.planner.analytic.chain_counters` uses the
        same backward range composition, so its useful/redundant split and
        re-read annotations apply to this launch byte-for-byte.
        """
        from ..planner.analytic import chain_counters

        ref = chain_counters(self.chain.specs, self.tiling)
        counters.macs -= ref.redundant_macs
        counters.redundant_macs += ref.redundant_macs
        counters.rereads.extend(ref.rereads)


class DwPwFusedKernel(FusedChainKernel):
    """The paper's DWPW module (Fig. 3b, 4): a DW layer fused with its PW
    consumer.  The DW stage computes all channels of a spatial tile into the
    commBuffer and the PW stage streams its filters in ``tile_m`` groups
    against it; nothing is written to global memory or recomputed."""

    def __init__(
        self, dw: LayerParams, pw: LayerParams, tile_h: int, tile_w: int, tile_m: int
    ) -> None:
        tiling = {"tile_h": tile_h, "tile_w": tile_w, "tile_m": tile_m}
        self._pair(FcmType.DWPW, dw, pw, tiling)


class PwDwFusedKernel(FusedChainKernel):
    """The paper's PWDW module (§III-A): each block computes ``tile_f``
    intermediate channels over the whole plane, which the channel-wise DW
    stage consumes with no halo and no recomputation; the PW input is
    re-streamed once per channel group."""

    def __init__(self, pw: LayerParams, dw: LayerParams, tile_f: int) -> None:
        self._pair(FcmType.PWDW, pw, dw, {"tile_f": tile_f})


class PwDwRFusedKernel(FusedChainKernel):
    """The paper's PWDW_R module (Fig. 3b right): ``tile_f`` channels of a
    spatial tile, whose DW halo the PW stage recomputes in every block that
    shares it — the redundancy of paper Table II."""

    def __init__(
        self, pw: LayerParams, dw: LayerParams, tile_f: int, tile_h: int, tile_w: int
    ) -> None:
        tiling = {"tile_f": tile_f, "tile_h": tile_h, "tile_w": tile_w}
        self._pair(FcmType.PWDW_R, pw, dw, tiling)


class PwPwFusedKernel(FusedChainKernel):
    """The paper's PWPW module (Fig. 4): ``tile_hw`` pixels of the flattened
    plane with all intermediate channels resident; both weight matrices are
    re-read per pixel tile.  A strided second PW has no flattened plane and
    is refused."""

    def __init__(
        self, pw1: LayerParams, pw2: LayerParams, tile_hw: int, tile_m: int
    ) -> None:
        self._pair(FcmType.PWPW, pw1, pw2, {"tile_hw": tile_hw, "tile_m": tile_m})


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
