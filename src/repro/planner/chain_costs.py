"""Chain-fusion cost models: the Eq. 4 family generalized to N stages.

The paper builds each FCM's GMA model from the DW and PW models: "the
equations of the other FCMs are constructed from the PW and DW Equations 2
and 3 similarly" (§IV-B).  This module does that *compositionally* for any
length: a chain's global memory accesses, shared-memory footprint and halo
redundancy are derived per stage by propagating the final output tile
backward through every stage's ``(kernel, stride, padding)`` geometry.

It is the only model of the four pairwise FCMs too.  Each is the length-2
chain under its own tiling vocabulary (:data:`FCM_TILING_KEYS`, the only
owner of the vocabularies): :func:`chain_vocabularies` lists the ones a
chain's search sweeps, :func:`fcm_type_of` reads the FCM type back off a
chain's stage kinds and a tiling's keys, and :func:`chain_dataflow` reads
every vocabulary as one chain dataflow:

* ``DWPW`` ``{tile_h, tile_w, tile_m}`` is the chain vocabulary itself;
* ``PWDW_R`` ``{tile_f, tile_h, tile_w}``: ``tile_f`` groups the
  intermediate's channels.  Each group is its own set of blocks; a block
  re-reads the full-channel input window and computes only its ``tile_f``
  channels of both stages;
* ``PWDW`` ``{tile_f}``: the same with one tile spanning the whole plane,
  whose rows stream through the block (its footprint keeps those
  row-streamed terms, the one vocabulary-specific term of the model);
* ``PWPW`` ``{tile_hw, tile_m}``: the PW-only chain seen on a 1 x H·W plane,
  the first stage pre-subsampled and every stage at stride 1, so
  ``tile_hw`` is its ``tile_w``.  A strided later stage has no such view,
  so the vocabulary is infeasible there.

Chain dataflow (one thread block):

1. own one ``tile_h x tile_w`` tile of the *final* stage's output (and one
   ``tile_f`` channel group, when grouped);
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

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Collection, Mapping, Sequence

from ..core.chain import FusedChain, composed_receptive_field
from ..core.fcm import FcmType, candidate_fcm_types
from ..core.tiling import ceil_div, input_extent, overlap_elements, tile_input_range
from ..errors import ShapeError, UnsupportedError
from ..gpu.specs import GpuSpec
from ..ir.layers import ConvKind, ConvSpec
from .costs import STREAM_CHUNK, GmaEstimate, streamed_matmul_l1_bytes

__all__ = [
    "FCM_TILING_KEYS",
    "ChainDataflow",
    "FcmCost",
    "chain_dataflow",
    "chain_gma",
    "dataflow_gma",
    "chain_feasible",
    "chain_footprints",
    "chain_tiling_keys",
    "chain_vocabularies",
    "fcm_type_of",
    "tiling_vocabulary",
    "chain_axis_tables",
    "chain_window_extents",
    "tiling_ladder",
]

#: Tiling-dict keys of each FCM's vocabulary, in grid-axis (sweep) order.
FCM_TILING_KEYS: dict[FcmType, tuple[str, ...]] = {
    FcmType.DWPW: ("tile_h", "tile_w", "tile_m"),
    FcmType.PWDW: ("tile_f",),
    FcmType.PWDW_R: ("tile_f", "tile_h", "tile_w"),
    FcmType.PWPW: ("tile_hw", "tile_m"),
}

#: the canonical key order: every vocabulary lists its keys in it, so it is
#: the grid's axis order and the scalar sweep's loop nesting.
_KEY_ORDER = ("tile_f", "tile_h", "tile_w", "tile_hw", "tile_m")

#: (first kind, second kind, key set) -> the FCM that pair and vocabulary run.
_VOCAB_TYPES = {
    (ConvKind(t.first_kind), ConvKind(t.second_kind), frozenset(keys)): t
    for t, keys in FCM_TILING_KEYS.items()
}


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


def chain_tiling_keys(chain: FusedChain) -> tuple[str, ...]:
    """Canonical tiling-dict keys of the N-stage chain dataflow."""
    keys = ["tile_h", "tile_w"]
    if chain.last.kind is ConvKind.POINTWISE:
        keys.append("tile_m")
    return tuple(keys)


def chain_vocabularies(chain: FusedChain) -> tuple[tuple[str, ...], ...]:
    """The tiling vocabularies a chain's search sweeps, in sweep order: a
    length-2 chain's FCM vocabularies (in :func:`candidate_fcm_types` order,
    so PWDW before PWDW_R), a longer chain's chain keys."""
    if chain.length == 2:
        types = candidate_fcm_types(chain.first.kind.short, chain.last.kind.short)
        return tuple(FCM_TILING_KEYS[t] for t in types)
    return (chain_tiling_keys(chain),)


def fcm_type_of(specs: Sequence[ConvSpec], keys: Collection[str]) -> FcmType | None:
    """The FCM type a chain's stage kinds and a tiling's key set speak, or
    ``None``: a longer chain, or a pair under the generic chain vocabulary
    (PW->PW under ``tile_h``/``tile_w``/``tile_m``)."""
    if len(specs) != 2:
        return None
    return _VOCAB_TYPES.get((specs[0].kind, specs[1].kind, frozenset(keys)))


def tiling_vocabulary(chain: FusedChain, keys: Collection[str]) -> tuple[str, ...]:
    """The vocabulary that ``keys`` names, in canonical order.

    A chain speaks its chain keys, and a length-2 chain its FCM
    vocabularies too; any other key set raises :class:`ShapeError`.
    """
    vocab = tuple(k for k in _KEY_ORDER if k in keys)
    if len(vocab) != len(keys) or not (
        vocab == chain_tiling_keys(chain) or fcm_type_of(chain.specs, vocab) is not None
    ):
        raise ShapeError(f"{chain.describe()}: no dataflow for tiling keys {sorted(keys)}")
    return vocab


def _flattens(chain: FusedChain) -> bool:
    """Whether a PW-only chain has a 1 x H·W view: no strided later stage."""
    return all(s.stride == 1 for s in chain.specs[1:])


def _flat_view(chain: FusedChain) -> FusedChain:
    """The PW-only chain on a 1 x H·W plane, first stage pre-subsampled."""
    if not _flattens(chain):
        raise UnsupportedError(
            f"{chain.name}: the flattened 1 x H*W plane has no strided later stage"
        )
    hw = chain.first.out_h * chain.first.out_w
    return FusedChain(tuple(replace(s, in_h=1, in_w=hw, stride=1) for s in chain.specs))


@dataclass(frozen=True)
class ChainDataflow:
    """One tiling dict read as the chain dataflow it runs.

    ``chain`` holds the stages as the blocks see them (the flattened plane
    for ``tile_hw``, the chain itself otherwise); the tile sizes are clamped
    to it.  ``tile_f`` intermediate channels form one group, each group its
    own set of blocks (``None``: every block keeps all channels).
    ``streamed`` marks a grouped tiling without spatial keys (PWDW): one
    tile spans the plane and its rows stream through the block.
    """

    chain: FusedChain
    tile_h: int
    tile_w: int
    tile_m: int | None
    tile_f: int | None
    streamed: bool

    @property
    def n_f(self) -> int:
        """Channel groups of the intermediate (1 when ungrouped)."""
        if self.tile_f is None:
            return 1
        return ceil_div(self.chain.first.out_channels, self.tile_f)

    @property
    def n_sp(self) -> int:
        """Spatial tiles of the final output."""
        last = self.chain.last
        return ceil_div(last.out_h, self.tile_h) * ceil_div(last.out_w, self.tile_w)

    def channels(self, b: int) -> int:
        """Channels of boundary ``b`` one block holds (grouped past the input)."""
        if b == 0:
            return self.chain.first.in_channels
        if self.tile_f is not None:
            return self.tile_f
        return self.chain.specs[b - 1].out_channels


def chain_dataflow(chain: FusedChain, tiling: Mapping[str, int]) -> ChainDataflow:
    """Read ``tiling`` in whichever vocabulary it speaks (see module doc)."""
    tiling_vocabulary(chain, tiling)
    if "tile_hw" in tiling:
        chain = _flat_view(chain)
    last = chain.last
    tile_f = tile_m = None
    if "tile_f" in tiling:
        tile_f = min(tiling["tile_f"], chain.first.out_channels)
    if "tile_m" in tiling:
        tile_m = min(tiling["tile_m"], last.out_channels)
    if "tile_hw" in tiling:
        tile_h, tile_w = 1, min(tiling["tile_hw"], last.out_w)
    elif "tile_h" in tiling:
        tile_h, tile_w = min(tiling["tile_h"], last.out_h), min(tiling["tile_w"], last.out_w)
    else:
        tile_h, tile_w = last.out_h, last.out_w
    streamed = tile_f is not None and "tile_h" not in tiling
    return ChainDataflow(chain, tile_h, tile_w, tile_m, tile_f, streamed)


def tiling_ladder(chain: FusedChain, key: str) -> tuple[int, int]:
    """``(limit, minimum)`` of one tiling key's pow2 candidate ladder."""
    last = chain.last
    if key == "tile_f":
        return chain.first.out_channels, 1
    if key == "tile_m":
        return last.out_channels, 1
    if key == "tile_h":
        return last.out_h, 1
    if key == "tile_w":
        return last.out_w, 1
    return last.out_h * last.out_w, 4  # tile_hw: the flattened plane


# ---- backward tile propagation ------------------------------------------------


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
    arguments, so cached like the grid search's axis tables.
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


def chain_window_extents(chain: FusedChain, tiles) -> tuple[tuple[int, ...], ...]:
    """Unclamped per-boundary window extents for every candidate tile size.

    ``ext[b][i]`` composes :func:`repro.core.tiling.input_extent` backward
    through the stages (the worst-case interior tile of :func:`_max_extents`),
    one axis at a time — the footprint tables of the vectorized feasibility
    check.  Kernels are square, so the same table serves both axes (fed with
    that axis's candidate tile sizes).
    """
    return _window_extents(tuple((s.kernel, s.stride) for s in chain.specs), tuple(tiles))


@lru_cache(maxsize=None)
def _window_extents(
    stages: tuple[tuple[int, int], ...], tiles: tuple[int, ...]
) -> tuple[tuple[int, ...], ...]:
    """:func:`chain_window_extents` of ``(kernel, stride)`` stages (cached)."""
    per_tile = []
    for t in tiles:
        e = t
        per = [e]
        for kernel, stride in reversed(stages):
            e = input_extent(e, kernel, stride)
            per.append(e)
        per.reverse()
        per_tile.append(per)
    return tuple(tuple(per[b] for per in per_tile) for b in range(len(stages) + 1))


# ---- GMA ---------------------------------------------------------------------


def dataflow_gma(flow: ChainDataflow, convention: str) -> FcmCost:
    """:func:`chain_gma` of a dataflow :func:`chain_dataflow` already read."""
    chain = flow.chain
    n = chain.length
    first, last = chain.first, chain.last
    tile_h, tile_w = flow.tile_h, flow.tile_w
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

    # Every channel group re-reads the input window; its weight slices and
    # work sum to one full pass per spatial tile.
    reads = flow.n_f * ifm_reads + flow.n_sp * weights
    return FcmCost(
        GmaEstimate(reads, writes, chain.dtype.nbytes), redundant, useful
    )


def chain_gma(
    chain: FusedChain, tiling: Mapping[str, int], convention: str = "paper"
) -> FcmCost:
    """Estimate the global memory accesses of one fused-chain configuration."""
    if convention not in ("paper", "measured"):
        raise UnsupportedError(f"unknown cost convention {convention!r}")
    return dataflow_gma(chain_dataflow(chain, tiling), convention)


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
    """(L1 working set, shared-memory need, #blocks) of a configuration.

    Mirrors the chain kernel's capacity checks: every intermediate lives in
    a commBuffer sized for the worst-case halo-extended window; a consumer
    stage frees its producer's buffer when it finishes, so the shared-memory
    high-water mark is the largest *adjacent pair* of commBuffers.  The L1
    working set composes the per-stage terms: resident DW windows/filters,
    streamed PW reduction chunks, and the final stage's output tile, each at
    the channels one block holds.  Residency follows the reduction-streaming
    discipline (:data:`repro.planner.costs.STREAM_CHUNK`); weight tiles move
    through registers (the paper's ``shfl_sync`` path, §III-B), so only the
    commBuffers occupy shared memory.
    """
    flow = chain_dataflow(chain, tiling)
    chain = flow.chain
    n = chain.length
    eb = chain.dtype.nbytes
    first, last = chain.first, chain.last
    ext = _max_extents(chain, flow.tile_h, flow.tile_w)
    window = [h * w for h, w in ext]  # per-boundary window elements per channel
    stream = list(window)  # pixels of one PW reduction chunk in flight
    out_px = flow.tile_h * flow.tile_w
    if flow.streamed:  # the clamped plane resident, one row streaming
        h1, w1 = _grid(chain, 1)
        window[1], stream[1], out_px = h1 * w1, w1, last.out_w
    ch = flow.channels
    comm = [0] * n  # comm[b] holds boundary b's buffer bytes (1..n-1 used)
    for b in range(1, n):
        comm[b] = ch(b) * window[b] * eb
    if n == 2:
        shared = comm[1]
    else:
        shared = max(comm[b] + (comm[b + 1] if b + 1 < n else 0) for b in range(1, n))

    l1 = sum(comm)
    if first.kind is ConvKind.DEPTHWISE:
        l1 += ch(0) * window[0] * eb
        l1 += ch(0) * first.kernel * first.kernel * eb
    else:
        l1 += STREAM_CHUNK * (ch(1) + stream[1]) * eb
    for b in range(2, n):  # interior stages
        stage = chain.specs[b - 1]
        if stage.kind is ConvKind.DEPTHWISE:
            l1 += ch(b) * stage.kernel * stage.kernel * eb
        else:
            l1 += STREAM_CHUNK * (ch(b) + stream[b]) * eb
    if last.kind is ConvKind.POINTWISE:
        l1 += streamed_matmul_l1_bytes(flow.tile_m, out_px, eb)
    else:
        l1 += ch(n) * last.kernel * last.kernel * eb
        l1 += ch(n) * out_px * eb
    return l1, shared, flow.n_f * flow.n_sp


def chain_feasible(
    chain: FusedChain, tiling: Mapping[str, int], gpu: GpuSpec
) -> bool:
    """Generalized Eq. 4 constraints: L1 fit, shared fit, >= #SMs blocks."""
    if "tile_hw" in tiling and not _flattens(chain):
        return False
    l1, shared, n_tiles = chain_footprints(chain, tiling)
    return l1 <= gpu.l1_bytes and shared <= gpu.shared_bytes and n_tiles >= gpu.sm_count
