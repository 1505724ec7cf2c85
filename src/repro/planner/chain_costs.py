"""Chain-fusion cost models: the Eq. 4 family generalized to N stages.

The paper builds each FCM's GMA model from the DW and PW models (Eq. 2-3
into the Eq. 4 family).  This module does that *compositionally* for any
length: a chain's global memory accesses, shared-memory footprint and halo
redundancy are derived per stage by propagating the final output tile
backward through every stage's ``(kernel, stride, padding)`` geometry.  At
length 2 the construction is the Eq. 4 family:

* ``dw->pw``  — *is* :data:`~repro.core.fcm.FcmType.DWPW`: the chain
  vocabulary is DWPW's, and :mod:`repro.planner.fcm_costs` prices DWPW
  with the general model here;
* ``pw->dw``  — the PWDW_R formulas with ``tile_f = Cmid`` (the chain
  model always keeps all intermediate channels resident; the untiled PWDW
  channel-group dataflow remains a pairwise specialization);
* ``pw->pw``  — the PWPW formulas on a 2-D spatial grid instead of the
  flattened ``tile_hw`` vocabulary.

:func:`chain_gma` therefore dispatches length-2 chains carrying a pairwise
``tile_f``/``tile_hw`` vocabulary straight to
:func:`~repro.planner.fcm_costs.fcm_gma`, so pairwise numbers are
reproduced bit-for-bit, and runs the general N-stage model everywhere else.

Chain dataflow (one thread block):

1. own one ``tile_h x tile_w`` tile of the *final* stage's output;
2. walk the stages backward to find each intermediate's halo-extended
   window (any non-first DW stage grows the window — those halo elements
   are recomputed by every sharing block, the PWDW_R redundancy
   generalized);
3. execute the stages forward, parking each intermediate in a shared
   commBuffer (freed once its consumer stage finishes, so at most two
   commBuffers are ever live);
4. the final PW stage streams its filters in ``tile_m`` groups (a final DW
   stage consumes the last commBuffer channel-wise, no ``tile_m``).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping

from ..core.chain import FusedChain, chain_fcm_type, composed_receptive_field
from ..core.tiling import ceil_div, input_extent, overlap_elements, tile_input_range
from ..errors import UnsupportedError
from ..gpu.specs import GpuSpec
from ..ir.layers import ConvKind, ConvSpec
from .costs import GmaEstimate
from .fcm_costs import FcmCost, fcm_feasible, fcm_gma

__all__ = [
    "chain_gma",
    "chain_feasible",
    "chain_footprints",
    "chain_tiling_keys",
    "chain_axis_tables",
    "chain_window_extents",
]


def chain_tiling_keys(chain: FusedChain) -> tuple[str, ...]:
    """Canonical tiling-dict keys of the N-stage chain dataflow."""
    keys = ["tile_h", "tile_w"]
    if chain.last.kind is ConvKind.POINTWISE:
        keys.append("tile_m")
    return tuple(keys)


def _is_pairwise_tiling(chain: FusedChain, tiling: Mapping[str, int]) -> bool:
    """Whether a length-2 chain's tiling uses a pairwise-only vocabulary."""
    if chain.length != 2:
        return False
    return "tile_f" in tiling or "tile_hw" in tiling


def _pairwise_dispatch(
    chain: FusedChain, tiling: Mapping[str, int]
) -> "tuple[ConvSpec, ConvSpec, object]":
    first, second = chain.specs
    redundant = "tile_h" in tiling  # PWDW_R carries spatial keys, PWDW does not
    return first, second, chain_fcm_type(chain, redundant=redundant)


# ---- backward tile propagation ------------------------------------------------


def _clamp_tiles(chain: FusedChain, tiling: Mapping[str, int]) -> tuple[int, int]:
    last = chain.last
    return min(tiling["tile_h"], last.out_h), min(tiling["tile_w"], last.out_w)


def _axis_sums(ranges: list[tuple[int, int]]) -> tuple[int, int]:
    """(summed extents, union of extents) of one boundary's axis ranges."""
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


@lru_cache(maxsize=None)
def _boundary_sums(
    out_size: int, stages: tuple[tuple[int, int, int, int], ...], tile: int
) -> tuple[tuple[int, int], ...]:
    """Per-boundary (summed, covered) extents of one axis under one tile size.

    ``stages`` holds each stage's ``(kernel, stride, padding, in_size)``
    along the axis, first stage first; ``out_size`` is the last stage's
    output extent.  Boundary ``b`` is stage ``b``'s output grid (``b = 0``
    is the chain input).  Every final-output tile's half-open index range is
    propagated backward through the stages with
    :func:`~repro.core.tiling.tile_input_range` — exactly what the simulated
    chain kernel loads (``b = 0`` or ``1``) and computes (``0 < b < N``), so
    measured-convention costs match the kernel's metered bytes.  Pure in its
    arguments, so cached like the pairwise grids' axis tables.
    """
    cur = [(t0, min(t0 + tile, out_size)) for t0 in range(0, out_size, tile)]
    sums = [_axis_sums(cur)]
    for kernel, stride, padding, in_size in reversed(stages):
        cur = [tile_input_range(lo, hi - lo, kernel, stride, padding, in_size) for lo, hi in cur]
        sums.append(_axis_sums(cur))
    sums.reverse()
    return tuple(sums)


def _axis_boundary_sums(chain: FusedChain, tile: int, axis: int) -> tuple[tuple[int, int], ...]:
    """:func:`_boundary_sums` of ``chain`` along ``axis`` (0 = rows, 1 = cols)."""
    specs = chain.specs
    if axis == 0:
        stages = tuple((s.kernel, s.stride, s.padding, s.in_h) for s in specs)
        return _boundary_sums(specs[-1].out_h, stages, tile)
    stages = tuple((s.kernel, s.stride, s.padding, s.in_w) for s in specs)
    return _boundary_sums(specs[-1].out_w, stages, tile)


def _grid(chain: FusedChain, b: int) -> tuple[int, int]:
    """(H, W) of boundary ``b`` (chain input for 0, stage b output otherwise)."""
    if b == 0:
        return chain.first.in_h, chain.first.in_w
    spec = chain.specs[b - 1]
    return spec.out_h, spec.out_w


def _stage_macs_per_elem(spec: ConvSpec) -> int:
    """MACs to produce one output element of a stage."""
    per = spec.kernel * spec.kernel
    if spec.kind is not ConvKind.DEPTHWISE:
        per *= spec.in_channels
    return per


def chain_axis_tables(
    chain: FusedChain, tiles, axis: int
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """(summed, covered) per-boundary extents for every candidate tile size.

    Returns ``(totals, covered)`` where ``totals[b][i]`` is the summed
    clamped extent of boundary ``b`` under tile size ``tiles[i]`` along
    ``axis`` (0 = rows, 1 = cols) and ``covered[b][i]`` the union of those
    extents — the measured-convention inputs the vectorized chain search
    broadcasts over its (tile_h, tile_w) grid.
    """
    n_bounds = chain.length + 1
    per_tile = [_axis_boundary_sums(chain, t, axis) for t in tiles]
    totals = [tuple(sums[b][0] for sums in per_tile) for b in range(n_bounds)]
    covered = [tuple(sums[b][1] for sums in per_tile) for b in range(n_bounds)]
    return totals, covered


def chain_window_extents(chain: FusedChain, tiles) -> list[tuple[int, ...]]:
    """Unclamped per-boundary window extents for every candidate tile size.

    ``ext[b][i]`` composes :func:`repro.core.tiling.input_extent` backward
    through the stages (the worst-case interior tile of :func:`_max_extents`),
    one axis at a time — the footprint tables of the vectorized feasibility
    check.  Kernels are square, so the same table serves both axes (fed with
    that axis's candidate tile sizes).
    """
    per_tile = []
    for t in tiles:
        e = t
        per = [e]
        for spec in reversed(chain.specs):
            e = input_extent(e, spec.kernel, spec.stride)
            per.append(e)
        per.reverse()
        per_tile.append(per)
    n_bounds = chain.length + 1
    return [tuple(per_tile[i][b] for i in range(len(per_tile))) for b in range(n_bounds)]


# ---- GMA ---------------------------------------------------------------------


def _chain_gma_general(
    chain: FusedChain, tiling: Mapping[str, int], convention: str
) -> FcmCost:
    n = chain.length
    first, last = chain.first, chain.last
    tile_h, tile_w = _clamp_tiles(chain, tiling)
    n_sp = ceil_div(last.out_h, tile_h) * ceil_div(last.out_w, tile_w)
    weights = sum(s.weights_elements for s in chain.specs)
    writes = last.out_channels * last.out_h * last.out_w
    # A first PW stage reads its (subsampled) input pixel-per-output, so its
    # traffic follows boundary 1's grid; a first DW stage reads boundary 0.
    in_b = 1 if first.kind is ConvKind.POINTWISE else 0

    if convention == "paper":
        redundant = 0
        useful = last.macs
        in_h, in_w = _grid(chain, in_b)
        k_eff, s_eff = composed_receptive_field(chain.specs[in_b:])
        ovl_in = overlap_elements(in_w, in_h, tile_w * s_eff, tile_h * s_eff, k_eff, k_eff, s_eff)
        ifm_reads = first.in_channels * (2 * ovl_in + in_h * in_w)
        for b in range(1, n):  # intermediate boundaries
            h, w = _grid(chain, b)
            k_eff, s_eff = composed_receptive_field(chain.specs[b:])
            ovl = overlap_elements(w, h, tile_w * s_eff, tile_h * s_eff, k_eff, k_eff, s_eff)
            stage = chain.specs[b - 1]
            mpe = _stage_macs_per_elem(stage)
            redundant += stage.out_channels * ovl * mpe
            useful += stage.out_channels * h * w * mpe
    else:
        # Per-boundary (summed, covered) extents; rows/cols factorize because
        # the tiles form a grid: sum over (hi, wi) of rext*cext = (sum r)(sum c).
        row_sums = _axis_boundary_sums(chain, tile_h, 0)
        col_sums = _axis_boundary_sums(chain, tile_w, 1)
        ifm_reads = first.in_channels * row_sums[in_b][0] * col_sums[in_b][0]
        redundant = 0
        useful = last.macs
        for b in range(1, n):
            stage = chain.specs[b - 1]
            mpe = _stage_macs_per_elem(stage)
            executed = stage.out_channels * row_sums[b][0] * col_sums[b][0]
            unique = stage.out_channels * row_sums[b][1] * col_sums[b][1]
            redundant += (executed - unique) * mpe
            useful += unique * mpe

    reads = ifm_reads + n_sp * weights
    return FcmCost(
        GmaEstimate(reads, writes, chain.dtype.nbytes), redundant, useful
    )


def chain_gma(
    chain: FusedChain, tiling: Mapping[str, int], convention: str = "paper"
) -> FcmCost:
    """Estimate the global memory accesses of one fused-chain configuration.

    Length-2 chains carrying a pairwise tiling vocabulary (``tile_f`` /
    ``tile_hw``) are priced by the pairwise Eq. 4 estimators so the chain
    layer reproduces every pairwise number exactly; everything else runs the
    general per-stage model.
    """
    if convention not in ("paper", "measured"):
        raise UnsupportedError(f"unknown cost convention {convention!r}")
    if _is_pairwise_tiling(chain, tiling):
        first, second, fcm_type = _pairwise_dispatch(chain, tiling)
        return fcm_gma(fcm_type, first, second, tiling, convention)
    return _chain_gma_general(chain, tiling, convention)


# ---- feasibility -------------------------------------------------------------


def _max_extents(chain: FusedChain, tile_h: int, tile_w: int) -> list[tuple[int, int]]:
    """Unclamped per-boundary window extents (worst-case interior tile)."""
    eh, ew = tile_h, tile_w
    per = [(eh, ew)]
    for spec in reversed(chain.specs):
        eh = input_extent(eh, spec.kernel, spec.stride)
        ew = input_extent(ew, spec.kernel, spec.stride)
        per.append((eh, ew))
    per.reverse()
    return per


def chain_footprints(
    chain: FusedChain, tiling: Mapping[str, int]
) -> tuple[int, int, int]:
    """(L1 working set, shared-memory need, #output tiles) of a configuration.

    Mirrors the chain kernel's capacity checks: every intermediate lives in
    a commBuffer sized for the worst-case halo-extended window; a consumer
    stage frees its producer's buffer when it finishes, so the shared-memory
    high-water mark is the largest *adjacent pair* of commBuffers.  The L1
    working set composes the same per-stage terms as the pairwise models:
    resident DW windows/filters, streamed PW reduction chunks, and the final
    stage's output tile.
    """
    if _is_pairwise_tiling(chain, tiling):
        from .fcm_costs import fcm_footprints

        first, second, fcm_type = _pairwise_dispatch(chain, tiling)
        return fcm_footprints(fcm_type, first, second, tiling)
    return _chain_footprints_general(chain, tiling)


def _chain_footprints_general(
    chain: FusedChain, tiling: Mapping[str, int]
) -> tuple[int, int, int]:
    from .costs import STREAM_CHUNK, streamed_matmul_l1_bytes

    n = chain.length
    eb = chain.dtype.nbytes
    tile_h, tile_w = _clamp_tiles(chain, tiling)
    ext = _max_extents(chain, tile_h, tile_w)
    comm = [0] * n  # comm[b] holds boundary b's buffer bytes (1..n-1 used)
    for b in range(1, n):
        c_b = chain.specs[b - 1].out_channels
        comm[b] = c_b * ext[b][0] * ext[b][1] * eb
    if n == 2:
        shared = comm[1]
    else:
        shared = max(comm[b] + (comm[b + 1] if b + 1 < n else 0) for b in range(1, n))

    l1 = sum(comm)
    first, last = chain.first, chain.last
    if first.kind is ConvKind.DEPTHWISE:
        l1 += first.in_channels * ext[0][0] * ext[0][1] * eb
        l1 += first.in_channels * first.kernel * first.kernel * eb
    else:
        l1 += STREAM_CHUNK * (first.out_channels + ext[1][0] * ext[1][1]) * eb
    for b in range(2, n):  # interior stages
        stage = chain.specs[b - 1]
        if stage.kind is ConvKind.DEPTHWISE:
            l1 += stage.out_channels * stage.kernel * stage.kernel * eb
        else:
            l1 += STREAM_CHUNK * (stage.out_channels + ext[b][0] * ext[b][1]) * eb
    if last.kind is ConvKind.POINTWISE:
        tile_m = min(tiling["tile_m"], last.out_channels)
        l1 += streamed_matmul_l1_bytes(tile_m, tile_h * tile_w, eb)
    else:
        l1 += last.out_channels * last.kernel * last.kernel * eb
        l1 += last.out_channels * tile_h * tile_w * eb

    n_tiles = ceil_div(last.out_h, tile_h) * ceil_div(last.out_w, tile_w)
    return l1, shared, n_tiles


def chain_feasible(
    chain: FusedChain, tiling: Mapping[str, int], gpu: GpuSpec
) -> bool:
    """Generalized Eq. 4 constraints: L1 fit, shared fit, >= #SMs tiles."""
    if _is_pairwise_tiling(chain, tiling):
        first, second, fcm_type = _pairwise_dispatch(chain, tiling)
        return fcm_feasible(fcm_type, first, second, tiling, gpu)
    l1, shared, n_tiles = chain_footprints(chain, tiling)
    return l1 <= gpu.l1_bytes and shared <= gpu.shared_bytes and n_tiles >= gpu.sm_count
