"""FCM global-memory-access estimators (paper §IV-B, Eq. 4 and derivatives).

Two key differences from the layer-by-layer estimators (paper §IV-B): the
intermediate feature maps never touch global memory, and each fused layer's
accesses depend on the other's tiling.  Eq. 4 is given for PWDW_R; "the
equations of the other FCMs are constructed from the PW and DW Equations 2
and 3 similarly" — those constructions live here, with the ``measured``
convention again matching the simulated kernels byte-for-byte.  DWPW is the
length-2 DW->PW chain, so the general chain model of
:mod:`repro.planner.chain_costs` prices it and sizes its footprints; the
other three modules keep their own formulas here.

Feasibility adds the fused constraints: five tiles + commBuffer within L1,
the shared-memory subset within the shared partition, and at least #SMs
output tiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..core.chain import FusedChain
from ..core.fcm import FcmType
from ..core.tiling import ceil_div, overlap_elements
from ..errors import ShapeError, UnsupportedError
from ..gpu.specs import GpuSpec
from ..ir.layers import ConvKind, ConvSpec
from .costs import GmaEstimate, loaded_axis_elems

__all__ = [
    "FcmCost",
    "fcm_gma",
    "fcm_feasible",
    "fcm_footprints",
    "covered_axis_elems",
    "covered_axis_table",
]


@dataclass(frozen=True)
class FcmCost:
    """GMA estimate plus the redundancy the module incurs."""

    gma: GmaEstimate
    redundant_macs: int
    useful_macs: int

    @property
    def redundancy_ratio(self) -> float:
        total = self.useful_macs + self.redundant_macs
        return self.redundant_macs / total if total else 0.0


def _validate_pair(fcm_type: FcmType, first: ConvSpec, second: ConvSpec) -> None:
    kinds = {
        FcmType.DWPW: (ConvKind.DEPTHWISE, ConvKind.POINTWISE),
        FcmType.PWDW: (ConvKind.POINTWISE, ConvKind.DEPTHWISE),
        FcmType.PWDW_R: (ConvKind.POINTWISE, ConvKind.DEPTHWISE),
        FcmType.PWPW: (ConvKind.POINTWISE, ConvKind.POINTWISE),
    }[fcm_type]
    if (first.kind, second.kind) != kinds:
        raise ShapeError(
            f"{fcm_type}: expected {kinds[0].short}->{kinds[1].short}, "
            f"got {first.kind.short}->{second.kind.short}"
        )
    if (first.out_channels, first.out_h, first.out_w) != (
        second.in_channels,
        second.in_h,
        second.in_w,
    ):
        raise ShapeError(
            f"{fcm_type}: {first.name} output does not feed {second.name} input"
        )
    if first.dtype is not second.dtype:
        raise ShapeError(f"{fcm_type}: fused layers must share one precision")


def _pwdw_gma(
    pw: ConvSpec, dw: ConvSpec, tiling: Mapping[str, int], convention: str
) -> FcmCost:
    """PWDW: channel-group tiles over the full spatial extent, no redundancy."""
    del convention  # identical in both conventions: no halo, no clamping
    c = pw.in_channels
    cmid = pw.out_channels
    tile_f = min(tiling["tile_f"], cmid)
    n_f = ceil_div(cmid, tile_f)
    pw_ifm = c * pw.out_h * pw.out_w
    reads = n_f * pw_ifm + cmid * c + cmid * dw.kernel * dw.kernel
    writes = cmid * dw.out_h * dw.out_w
    return FcmCost(GmaEstimate(reads, writes, pw.dtype.nbytes), 0, pw.macs + dw.macs)


def _pwdw_r_gma(
    pw: ConvSpec, dw: ConvSpec, tiling: Mapping[str, int], convention: str
) -> FcmCost:
    """PWDW_R per Eq. 4, with intermediate halo recomputation."""
    c = pw.in_channels
    cmid = pw.out_channels
    k, s, pad = dw.kernel, dw.stride, dw.padding
    tile_f = min(tiling["tile_f"], cmid)
    tile_h = min(tiling["tile_h"], dw.out_h)
    tile_w = min(tiling["tile_w"], dw.out_w)
    n_f = ceil_div(cmid, tile_f)
    n_sp = ceil_div(dw.out_h, tile_h) * ceil_div(dw.out_w, tile_w)
    pw_w = cmid * c
    dw_w = cmid * k * k
    # Intermediate geometry: the DW input (== PW output) grid.
    if convention == "paper":
        ovl = overlap_elements(dw.in_w, dw.in_h, tile_w * s, tile_h * s, k, k, s)
        # Eq. 4 first term: (2 * PwIFMsD * DwOverlap + PwIFMsSz) * max(weight tile ratios)
        ifm_reads = (2 * c * ovl + c * pw.out_h * pw.out_w) * n_f
        interm_executed = cmid * (dw.in_h * dw.in_w + ovl)
        interm_unique = cmid * dw.in_h * dw.in_w
    else:
        rows = loaded_axis_elems(dw.out_h, tile_h, k, s, pad, dw.in_h)
        cols = loaded_axis_elems(dw.out_w, tile_w, k, s, pad, dw.in_w)
        ifm_reads = n_f * c * rows * cols
        rows_u = _covered_axis(dw.out_h, tile_h, k, s, pad, dw.in_h)
        cols_u = _covered_axis(dw.out_w, tile_w, k, s, pad, dw.in_w)
        interm_executed = cmid * rows * cols
        interm_unique = cmid * rows_u * cols_u
    reads = ifm_reads + n_sp * pw_w + n_sp * dw_w
    writes = cmid * dw.out_h * dw.out_w
    redundant = max(interm_executed - interm_unique, 0) * c
    # Useful MACs are exactly one computation of every intermediate element
    # (clamping can make the covered footprint smaller than pw.macs implies).
    useful = interm_unique * c + dw.macs
    return FcmCost(GmaEstimate(reads, writes, pw.dtype.nbytes), redundant, useful)


def _pwpw_gma(
    pw1: ConvSpec, pw2: ConvSpec, tiling: Mapping[str, int], convention: str
) -> FcmCost:
    """PWPW: spatial tiles; both weight matrices re-read per spatial tile."""
    del convention  # 1x1 filters: no halo in either convention
    c = pw1.in_channels
    cmid = pw1.out_channels
    m = pw2.out_channels
    out_hw = pw2.out_h * pw2.out_w
    tile_hw = min(tiling["tile_hw"], out_hw)
    n_sp = ceil_div(out_hw, tile_hw)
    reads = c * out_hw + n_sp * (cmid * c + m * cmid)
    writes = m * out_hw
    return FcmCost(GmaEstimate(reads, writes, pw1.dtype.nbytes), 0, pw1.macs + pw2.macs)


def _covered_axis(out: int, tile: int, k: int, s: int, pad: int, in_size: int) -> int:
    """Distinct input indices covered along one axis (clamped windows union)."""
    from ..core.tiling import tile_input_range

    used, prev_hi = 0, 0
    for t0 in range(0, out, tile):
        tlen = min(tile, out - t0)
        lo, hi = tile_input_range(t0, tlen, k, s, pad, in_size)
        lo = max(lo, prev_hi)
        if hi > lo:
            used += hi - lo
            prev_hi = hi
    return used


#: Public name for the distinct-coverage counter: the vectorized search and
#: the chain cost model both need the same clamped-union geometry.
covered_axis_elems = _covered_axis


def covered_axis_table(
    out: int, tiles, k: int, s: int, pad: int, in_size: int
) -> tuple[int, ...]:
    """:func:`covered_axis_elems` for every candidate tile size (one axis).

    Like :func:`repro.planner.costs.loaded_axis_table`, this is the
    axis-separable ingredient the whole-grid evaluation broadcasts.
    """
    return tuple(_covered_axis(out, t, k, s, pad, in_size) for t in tiles)


_ESTIMATORS = {
    FcmType.PWDW: _pwdw_gma,
    FcmType.PWDW_R: _pwdw_r_gma,
    FcmType.PWPW: _pwpw_gma,
}


def fcm_gma(
    fcm_type: FcmType,
    first: ConvSpec,
    second: ConvSpec,
    tiling: Mapping[str, int],
    convention: str = "paper",
) -> FcmCost:
    """Estimate the global memory accesses of one FCM configuration."""
    if convention not in ("paper", "measured"):
        raise UnsupportedError(f"unknown cost convention {convention!r}")
    _validate_pair(fcm_type, first, second)
    if fcm_type is FcmType.DWPW:
        from .chain_costs import _chain_gma_general

        return _chain_gma_general(FusedChain((first, second)), tiling, convention)
    return _ESTIMATORS[fcm_type](first, second, tiling, convention)


# ---- feasibility -------------------------------------------------------------


def fcm_footprints(
    fcm_type: FcmType, first: ConvSpec, second: ConvSpec, tiling: Mapping[str, int]
) -> tuple[int, int, int]:
    """(L1 working set, shared-memory need, #output tiles) of a configuration.

    Residency follows the reduction-streaming discipline (see
    :data:`repro.planner.costs.STREAM_CHUNK`): pointwise stages stream the C
    dimension through L1 while partial sums accumulate in registers or in the
    commBuffer; weight tiles move through registers (the paper's ``shfl_sync``
    path, §III-B), so only the commBuffer occupies shared memory.  Mirrors
    each fused kernel's capacity checks exactly.
    """
    from .costs import STREAM_CHUNK, streamed_matmul_l1_bytes

    if fcm_type is FcmType.DWPW:
        from .chain_costs import _chain_footprints_general

        return _chain_footprints_general(FusedChain((first, second)), tiling)
    eb = first.dtype.nbytes
    if fcm_type is FcmType.PWDW:
        pw, dw = first, second
        tile_f = min(tiling["tile_f"], pw.out_channels)
        comm = tile_f * pw.out_h * pw.out_w * eb
        k = dw.kernel
        dw_w = tile_f * k * k * eb
        stream = STREAM_CHUNK * (tile_f + pw.out_w) * eb  # PW chunk in flight
        out_row = tile_f * dw.out_w * eb
        l1 = dw_w + stream + out_row + comm
        shared = comm
        n_tiles = ceil_div(pw.out_channels, tile_f)
        return l1, shared, n_tiles
    if fcm_type is FcmType.PWDW_R:
        pw, dw = first, second
        k, s = dw.kernel, dw.stride
        tile_f = min(tiling["tile_f"], pw.out_channels)
        tile_h = min(tiling["tile_h"], dw.out_h)
        tile_w = min(tiling["tile_w"], dw.out_w)
        wr = (tile_h - 1) * s + k
        wc = (tile_w - 1) * s + k
        comm = tile_f * wr * wc * eb
        dw_w = tile_f * k * k * eb
        stream = STREAM_CHUNK * (tile_f + wr * wc) * eb
        l1 = comm + dw_w + stream + tile_f * tile_h * tile_w * eb
        shared = comm
        n_tiles = (
            ceil_div(pw.out_channels, tile_f)
            * ceil_div(dw.out_h, tile_h)
            * ceil_div(dw.out_w, tile_w)
        )
        return l1, shared, n_tiles
    if fcm_type is FcmType.PWPW:
        pw1, pw2 = first, second
        out_hw = pw2.out_h * pw2.out_w
        tile_hw = min(tiling["tile_hw"], out_hw)
        tile_m = min(tiling["tile_m"], pw2.out_channels)
        cmid = pw1.out_channels
        comm = cmid * tile_hw * eb
        stream1 = STREAM_CHUNK * (cmid + tile_hw) * eb
        l1 = comm + stream1 + streamed_matmul_l1_bytes(tile_m, tile_hw, eb)
        shared = comm
        n_tiles = ceil_div(out_hw, tile_hw)
        return l1, shared, n_tiles
    raise UnsupportedError(f"unknown FCM type {fcm_type}")


def fcm_feasible(
    fcm_type: FcmType,
    first: ConvSpec,
    second: ConvSpec,
    tiling: Mapping[str, int],
    gpu: GpuSpec,
) -> bool:
    """Eq. 4 constraints: L1 fit (incl. commBuffer), shared fit, >= #SMs tiles."""
    l1, shared, n_tiles = fcm_footprints(fcm_type, first, second, tiling)
    return l1 <= gpu.l1_bytes and shared <= gpu.shared_bytes and n_tiles >= gpu.sm_count
