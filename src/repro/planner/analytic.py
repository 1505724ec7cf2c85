"""Analytic counter builders with L2 re-read annotations.

These produce :class:`~repro.gpu.counters.AccessCounters` byte-identical to
what the simulated kernels meter, plus *re-read annotations*: portions of the
read traffic that revisit a tensor already streamed once (weight tiles
re-fetched per spatial tile, IFMs re-streamed per filter group, halo lines).
The roofline serves re-reads of L2-resident tensors on-chip, which is what
lets weight-heavy layers (e.g. Xception's 728-channel middle flow) run at
paper-like speed despite their nominal GMA.  Every fused module is a
length-2 chain, so :func:`fcm_counters` is :func:`chain_counters` after a
pair check, in whichever tiling vocabulary the module speaks.
"""

from __future__ import annotations

from typing import Mapping

from ..core.chain import FusedChain
from ..core.fcm import FcmType
from ..core.tiling import DwTiling, PwTiling, ceil_div
from ..errors import UnsupportedError
from ..gpu.counters import AccessCounters
from ..ir.layers import ConvKind, ConvSpec
from .chain_costs import chain_dataflow, dataflow_gma
from .costs import lbl_gma
from .fcm_costs import fcm_chain

__all__ = ["lbl_counters", "fcm_counters", "chain_counters", "pair_lbl_counters"]


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
    halo = counters.global_reads.get("lbl", counters.read_bytes) - w * n_sp - ifm_bytes
    counters.reread(ifm_bytes, max(halo, 0))


def lbl_counters(spec: ConvSpec, tiling: Mapping[str, int]) -> AccessCounters:
    """Counters of one layer-by-layer kernel launch (measured convention)."""
    if spec.kind is ConvKind.POINTWISE:
        t = PwTiling(tiling["tile_m"], tiling["tile_hw"])
    elif spec.kind is ConvKind.DEPTHWISE:
        t = DwTiling(tiling["tile_c"], tiling["tile_h"], tiling["tile_w"])
    else:
        raise UnsupportedError(f"{spec.name}: no LBL counters for {spec.kind}")
    est = lbl_gma(spec, t, "measured")
    counters = AccessCounters()
    counters.kernel_launches = 1
    counters.read("lbl", est.read_bytes)
    counters.write("lbl", est.write_bytes)
    counters.compute(spec.macs)
    if spec.kind is ConvKind.POINTWISE:
        _pw_rereads(spec, t, counters)
    else:
        _dw_rereads(spec, t, counters)
    return counters


def fcm_counters(
    fcm_type: FcmType,
    first: ConvSpec,
    second: ConvSpec,
    tiling: Mapping[str, int],
) -> AccessCounters:
    """Counters of one fused-module launch: the length-2 chain's."""
    fcm_chain(fcm_type, first, second, tiling)
    return chain_counters((first, second), tiling)


def chain_counters(
    specs: tuple[ConvSpec, ...], tiling: Mapping[str, int]
) -> AccessCounters:
    """Counters of one fused-chain launch (redundant MACs included), in any
    tiling vocabulary the chain runs under."""
    chain = FusedChain(tuple(specs))
    flow = chain_dataflow(chain, tiling)
    cost = dataflow_gma(flow, "measured")
    counters = AccessCounters()
    counters.kernel_launches = 1
    counters.read("fcm", cost.gma.read_bytes)
    counters.write("fcm", cost.gma.write_bytes)
    counters.compute(cost.useful_macs, cost.redundant_macs)
    # Re-read annotations: every stage's weights stream once per spatial
    # tile; any input traffic beyond one pass over the (subsampled) IFM is
    # channel-group re-streaming or halo re-loading of an L2-resident tensor.
    eb = chain.dtype.nbytes
    first = chain.first
    n_sp = flow.n_sp
    for spec in chain.specs:
        w = spec.weights_elements * eb
        counters.reread(w, (n_sp - 1) * w)
    if first.kind is ConvKind.POINTWISE:
        ifm_pass = first.in_channels * first.out_h * first.out_w * eb
    else:
        ifm_pass = first.ifm.nbytes
    ifm_extra = counters.read_bytes - n_sp * chain.weights_bytes - ifm_pass
    counters.reread(ifm_pass, max(ifm_extra, 0))
    return counters


def pair_lbl_counters(
    first: ConvSpec,
    second: ConvSpec,
    first_tiling: Mapping[str, int],
    second_tiling: Mapping[str, int],
) -> AccessCounters:
    """Counters of the two-kernel layer-by-layer execution of a pair."""
    agg = lbl_counters(first, first_tiling)
    agg.merge(lbl_counters(second, second_tiling))
    return agg
