"""Layer-by-layer global-memory-access estimators (paper Eq. 2 and Eq. 3).

Costs are computed in *elements* and converted to bytes with the layer dtype,
since the equations are element-counting identities.  They are the equations
as printed, which every tile search ranks by, with two notational choices
resolved: Eq. 2's weight-reload factor is read as the number of *spatial*
OFM tiles (consistent with Eq. 3), and Eq. 3 charges overlap as
``2 x IFMsD x Overlap``.  What a kernel actually issues (border-clamped
halo windows, one extra load per shared halo element) is the analytic
counters' model (:mod:`repro.planner.analytic`); for a PW layer that is
Eq. 2 itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.tiling import DwTiling, PwTiling, input_extent, overlap_elements
from ..errors import ShapeError
from ..gpu.specs import GpuSpec
from ..ir.layers import ConvKind, ConvSpec

__all__ = [
    "GmaEstimate",
    "pw_gma",
    "dw_gma",
    "pw_tile_footprint",
    "dw_tile_footprint",
    "pw_feasible",
    "dw_feasible",
    "STREAM_CHUNK",
    "streamed_matmul_l1_bytes",
]


@dataclass(frozen=True)
class GmaEstimate:
    """A global-memory-access estimate for one kernel configuration."""

    reads_elems: int
    writes_elems: int
    elem_bytes: int

    @property
    def total_elems(self) -> int:
        return self.reads_elems + self.writes_elems

    @property
    def total_bytes(self) -> int:
        return self.total_elems * self.elem_bytes

    @property
    def read_bytes(self) -> int:
        return self.reads_elems * self.elem_bytes


def pw_gma(spec: ConvSpec, tiling: PwTiling) -> GmaEstimate:
    """Eq. 2: pointwise-layer global memory accesses under OS-LWS tiling.

    ``PwGMA = ceil(WeightsSz/WeightsTileSz) * IFMsSz + OFMsSz
            + n_spatial_tiles * WeightsSz``
    """
    if spec.kind is not ConvKind.POINTWISE:
        raise ShapeError(f"{spec.name}: pw_gma needs a pointwise layer")
    m, c = spec.out_channels, spec.in_channels
    out_hw = spec.out_h * spec.out_w
    weights = m * c
    # A strided PW only reads the subsampled pixels; for the ubiquitous
    # stride-1 case this equals the paper's IFMsSz.
    ifm_read_once = c * out_hw
    n_w_tiles = tiling.num_filter_tiles(m)
    n_sp_tiles = tiling.num_spatial_tiles(out_hw)
    reads = n_w_tiles * ifm_read_once + n_sp_tiles * weights
    writes = m * out_hw
    return GmaEstimate(reads, writes, spec.dtype.nbytes)


def dw_gma(spec: ConvSpec, tiling: DwTiling) -> GmaEstimate:
    """Eq. 3: depthwise-layer global memory accesses under OS-LWS tiling.

    ``DwGMA = 2 * IFMsD * Overlap + IFMsSz + OFMsSz
            + ceil(OFMsHW / OFMsTileHW) * WeightsSz``
    """
    if spec.kind is not ConvKind.DEPTHWISE:
        raise ShapeError(f"{spec.name}: dw_gma needs a depthwise layer")
    c, k, s = spec.in_channels, spec.kernel, spec.stride
    weights = c * k * k
    n_sp_tiles = tiling.num_spatial_tiles(spec.out_h, spec.out_w)
    ovl = overlap_elements(
        channel_w=spec.in_w,
        channel_h=spec.in_h,
        tile_w=tiling.tile_w * s,
        tile_h=tiling.tile_h * s,
        filter_w=k,
        filter_h=k,
        stride=s,
    )
    reads = 2 * c * ovl + c * spec.in_h * spec.in_w + n_sp_tiles * weights
    writes = c * spec.out_h * spec.out_w
    return GmaEstimate(reads, writes, spec.dtype.nbytes)


# ---- feasibility constraints (shared with the FCM estimators) -----------------

#: Reduction-dimension streaming chunk (elements).  Output-stationary kernels
#: keep partial sums in registers and stream the C dimension through L1 in
#: chunks — the standard GEMM discipline.  Streaming changes *residency*, not
#: the GMA totals of Eq. 2-4, so the tile-fit constraints charge the chunk
#: rather than the full reduction extent.
STREAM_CHUNK = 8


def streamed_matmul_l1_bytes(m_tile: int, n_tile: int, elem_bytes: int) -> int:
    """L1 working set of an OS matmul tile with reduction streaming.

    The resident set is the output tile (partial sums) plus one weights chunk
    (``m_tile x STREAM_CHUNK``) and one input chunk (``STREAM_CHUNK x n_tile``).
    """
    return (m_tile * n_tile + STREAM_CHUNK * (m_tile + n_tile)) * elem_bytes


def pw_tile_footprint(spec: ConvSpec, tiling: PwTiling) -> int:
    """Eq. 2's L1 constraint operand with reduction streaming, in bytes."""
    return streamed_matmul_l1_bytes(tiling.tile_m, tiling.tile_hw, spec.dtype.nbytes)


def dw_tile_footprint(spec: ConvSpec, tiling: DwTiling) -> int:
    """Eq. 3's L1 constraint operand, with the halo-extended input tile."""
    k, s = spec.kernel, spec.stride
    in_h = input_extent(tiling.tile_h, k, s)
    in_w = input_extent(tiling.tile_w, k, s)
    return (
        tiling.tile_c * in_h * in_w
        + tiling.tile_c * tiling.tile_h * tiling.tile_w
        + tiling.tile_c * k * k
    ) * spec.dtype.nbytes


def pw_feasible(spec: ConvSpec, tiling: PwTiling, gpu: GpuSpec) -> bool:
    """Both Eq. 2 constraints: L1 fit and >= #SMs output tiles."""
    if pw_tile_footprint(spec, tiling) > gpu.l1_bytes:
        return False
    return tiling.num_ofm_tiles(spec.out_channels, spec.out_h * spec.out_w) >= gpu.sm_count


def dw_feasible(spec: ConvSpec, tiling: DwTiling, gpu: GpuSpec) -> bool:
    """Both Eq. 3 constraints: L1 fit and >= #SMs output tiles."""
    if dw_tile_footprint(spec, tiling) > gpu.l1_bytes:
        return False
    return tiling.num_ofm_tiles(spec.in_channels, spec.out_h, spec.out_w) >= gpu.sm_count
