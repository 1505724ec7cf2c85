"""Analytic counter builders: the one model of a DW/PW launch's counters.

These produce the :class:`~repro.gpu.counters.AccessCounters` of one launch
as its kernel issues it (the *measured* model: border-clamped halo windows
from :func:`~repro.core.tiling.tile_windows`, one load per tile that reads a
shared halo element), whereas the cost equations the tile searches rank by
(:mod:`repro.planner.costs`, :mod:`repro.planner.chain_costs`) are the
paper's as printed.  They hold global traffic labelled by tensor (``ifm``,
``weights``, ``ofm``) as the kernels' buffers label it, a fused launch's
commBuffer traffic, useful and redundant MACs, and *re-read annotations*:
portions of the read traffic that revisit a tensor already streamed once
(weight tiles re-fetched per spatial tile, IFMs re-streamed per filter
group, halo lines).  The roofline serves re-reads of L2-resident tensors
on-chip, which is what lets weight-heavy layers (e.g. Xception's
728-channel middle flow) run at paper-like speed despite their nominal GMA.
Every fused module is a chain, so :func:`chain_counters` meters all of
them, in whichever tiling vocabulary the module speaks.

A kernel's fast launch reports exactly these counters
(:meth:`~repro.kernels.base.SimKernel.model_counters`); its per-block
reference launch meters them block by block, which is what the tests hold
this model to.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping

from ..core.chain import FusedChain
from ..core.tiling import DwTiling, PwTiling, ceil_div, tile_windows
from ..errors import UnsupportedError
from ..gpu.counters import AccessCounters
from ..ir.layers import ConvKind, ConvSpec
from .chain_costs import _stage_macs_per_elem, chain_dataflow
from .costs import pw_gma

__all__ = ["lbl_counters", "chain_counters"]


@lru_cache(maxsize=None)
def _axis_sums(ranges: tuple[tuple[int, int], ...]) -> tuple[int, int]:
    """(summed extents, union of extents) of one boundary's
    :func:`~repro.core.tiling.tile_windows` ranges along one axis (cached
    with them: the analytic counters price each chain step per session)."""
    total = 0
    covered = 0
    prev_hi = 0
    for lo, hi in ranges:
        total += max(hi - lo, 0)
        lo = max(lo, prev_hi)
        if hi > lo:
            covered += hi - lo
            prev_hi = hi
    return total, covered


def _pw_rereads(spec: ConvSpec, tiling: PwTiling, counters: AccessCounters) -> None:
    eb = spec.dtype.nbytes
    out_hw = spec.out_h * spec.out_w
    tile_m = min(tiling.tile_m, spec.out_channels)
    tile_hw = min(tiling.tile_hw, out_hw)
    n_w = ceil_div(spec.out_channels, tile_m)
    n_sp = ceil_div(out_hw, tile_hw)
    ifm_pass = spec.in_channels * out_hw * eb
    w = spec.weights_elements * eb
    counters.reread(ifm_pass, (n_w - 1) * ifm_pass)
    counters.reread(w, (n_sp - 1) * w)


def _dw_rereads(spec: ConvSpec, tiling: DwTiling, counters: AccessCounters) -> None:
    eb = spec.dtype.nbytes
    tile_h = min(tiling.tile_h, spec.out_h)
    tile_w = min(tiling.tile_w, spec.out_w)
    n_sp = ceil_div(spec.out_h, tile_h) * ceil_div(spec.out_w, tile_w)
    w = spec.weights_elements * eb
    counters.reread(w, (n_sp - 1) * w)
    # Halo re-loads: everything the kernel read beyond one IFM pass.
    ifm_bytes = spec.ifm.nbytes
    halo = counters.read_bytes - w * n_sp - ifm_bytes
    counters.reread(ifm_bytes, max(halo, 0))


def lbl_counters(spec: ConvSpec, tiling: Mapping[str, int]) -> AccessCounters:
    """Counters of one layer-by-layer kernel launch: the weights streamed
    once per spatial tile, the IFM re-streamed per filter group (PW: Eq. 2
    is what the kernel issues) or read as every tile's clamped
    halo-extended window (DW)."""
    if spec.kind is ConvKind.POINTWISE:
        t = PwTiling(tiling["tile_m"], tiling["tile_hw"])
        n_sp = t.num_spatial_tiles(spec.out_h * spec.out_w)
        ifm = pw_gma(spec, t).read_bytes - n_sp * spec.weights_bytes
    elif spec.kind is ConvKind.DEPTHWISE:
        t = DwTiling(tiling["tile_c"], tiling["tile_h"], tiling["tile_w"])
        n_sp = t.num_spatial_tiles(spec.out_h, spec.out_w)
        k, s, pad = spec.kernel, spec.stride, spec.padding
        # Each tile loads its clamped halo-extended window; rows and columns
        # factorize because the tiles form a grid.
        rows = tile_windows(spec.out_h, t.tile_h, ((k, s, pad, spec.in_h),))[0]
        cols = tile_windows(spec.out_w, t.tile_w, ((k, s, pad, spec.in_w),))[0]
        ifm = spec.in_channels * _axis_sums(rows)[0] * _axis_sums(cols)[0] * spec.dtype.nbytes
    else:
        raise UnsupportedError(f"{spec.name}: no LBL counters for {spec.kind}")
    counters = AccessCounters()
    counters.kernel_launches = 1
    counters.read("ifm", ifm)
    counters.read("weights", n_sp * spec.weights_bytes)
    counters.write("ofm", spec.ofm.nbytes)
    counters.compute(spec.macs)
    if spec.kind is ConvKind.POINTWISE:
        _pw_rereads(spec, t, counters)
    else:
        _dw_rereads(spec, t, counters)
    return counters


def chain_counters(
    specs: tuple[ConvSpec, ...], tiling: Mapping[str, int]
) -> AccessCounters:
    """Counters of one fused-chain launch (redundant MACs included), in any
    tiling vocabulary the chain runs under: every stage's weights streamed
    once per spatial tile, every channel group reading the input windows,
    each intermediate window computed by every block that needs it, and the
    commBuffer traffic
    (:attr:`~repro.planner.chain_costs.ChainDataflow.comm_bytes`)."""
    chain = FusedChain(tuple(specs))
    flow = chain_dataflow(chain, tiling)
    stages = flow.chain  # as the blocks see them (the flattened plane for tile_hw)
    # Per-boundary (summed, covered) extents; rows/cols factorize because
    # the tiles form a grid: sum over (hi, wi) of rext*cext = (sum r)(sum c).
    rows, cols = flow.windows
    row_sums = [_axis_sums(r) for r in rows]
    col_sums = [_axis_sums(c) for c in cols]
    # A first PW stage reads its (subsampled) input pixel-per-output, so its
    # windows are boundary 1's; a first DW stage reads boundary 0's.
    in_b = 1 if stages.first.kind is ConvKind.POINTWISE else 0
    ifm_reads = stages.first.in_channels * row_sums[in_b][0] * col_sums[in_b][0]
    redundant = 0
    useful = stages.last.macs
    for b in range(1, stages.length):
        stage = stages.specs[b - 1]
        mpe = _stage_macs_per_elem(stage)
        executed = stage.out_channels * row_sums[b][0] * col_sums[b][0]
        unique = stage.out_channels * row_sums[b][1] * col_sums[b][1]
        redundant += (executed - unique) * mpe
        useful += unique * mpe
    eb = chain.dtype.nbytes
    n_sp = flow.n_sp
    weights = n_sp * chain.weights_bytes
    counters = AccessCounters()
    counters.kernel_launches = 1
    counters.read("ifm", flow.n_f * ifm_reads * eb)
    counters.read("weights", weights)
    counters.write("ofm", chain.last.ofm.nbytes)
    counters.smem(flow.comm_bytes)
    counters.compute(useful, redundant)
    # Re-read annotations: every stage's weights stream once per spatial
    # tile; any input traffic beyond one pass over the (subsampled) IFM is
    # channel-group re-streaming or halo re-loading of an L2-resident tensor.
    first = chain.first
    for spec in chain.specs:
        w = spec.weights_elements * eb
        counters.reread(w, (n_sp - 1) * w)
    if first.kind is ConvKind.POINTWISE:
        ifm_pass = first.in_channels * first.out_h * first.out_w * eb
    else:
        ifm_pass = first.ifm.nbytes
    ifm_extra = counters.read_bytes - weights - ifm_pass
    counters.reread(ifm_pass, max(ifm_extra, 0))
    return counters
