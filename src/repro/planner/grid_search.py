"""Whole-grid tile-size evaluation: the search families as array programs.

The scalar sweeps in :mod:`repro.planner.search` visit every pow2 candidate
with Python loops — after the fast-path engine removed kernel execution from
the profile, that interpreter-bound search became the dominant planning cost.
This module evaluates each family's *entire* candidate grid at once: the
pow2 axes are materialized as 1-D ``int64`` arrays, Eq. 2/3/4-family
footprints and GMA become broadcast expressions over their outer product,
and the winner falls out of one stable lexsort.

Each search splits in two.  The cost models price a tiling from the layer
geometry alone, and the GPU enters only through its capacity limits, so a
:class:`TileTable` holds everything the geometry decides — per candidate,
Eq. 2-4 GMA, useful and redundant MACs, the L1 and shared-memory footprints
and the thread-block count — and one table serves every GPU.  Its per-GPU
view, :meth:`TileTable.on`, is a :class:`TilingGrid`: feasibility against
that GPU's L1 and shared-memory capacity and SM count, and the winner under
its warp size.  The table builders (``lbl_table``, ``chain_table``) read no
GPU field.

Every search ranks in the paper convention (Eq. 1-4 as printed).  Its
estimators are axis-separable: GMA and footprint terms factor into small
per-axis tables (``ceil_div`` ladders, Eq. 1 overlap terms, window
extents), so a grid of thousands of candidates costs a handful of table
builds plus a few broadcast multiplies.  A table keeps each term in its
own broadcast shape (size 1 along an axis it does not vary on), never a
materialized copy.  All arithmetic stays in
``int64`` — the same exact integers the scalar path computes — and the
rank order reproduces ``search._rank_key`` bit-for-bit: warp-multiple
thread blocks first, then GMA, then larger tiles, ties broken by the
scalar sweep's visiting order (C-order flat index, axes nested exactly
like the reference loops).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..core.chain import FusedChain, composed_receptive_field
from ..errors import PlanError
from ..gpu.specs import GpuSpec
from ..ir.layers import ConvKind, ConvSpec
from .chain_costs import (
    _flat_view,
    _flattens,
    _grid,
    _stage_macs_per_elem,
    chain_window_extents,
    tiling_ladder,
    tiling_vocabulary,
)
from .costs import STREAM_CHUNK

__all__ = [
    "TileTable",
    "TilingGrid",
    "pow2_candidates",
    "lbl_table",
    "chain_table",
    "lbl_grid",
    "chain_grid",
]


@lru_cache(maxsize=None)
def pow2_candidates(limit: int, minimum: int = 1) -> tuple[int, ...]:
    """Powers of two in ``[minimum, limit]``, always including ``limit``.

    Pure in its arguments and heavily repeated across layers (every 7x7 /
    14x14 / 28x28 zoo geometry rebuilds the same ladder), so the result is
    cached and immutable.
    """
    vals: list[int] = []
    v = minimum
    while v < limit:
        vals.append(v)
        v *= 2
    vals.append(limit)
    return tuple(sorted(set(vals)))


def _cdiv(a, b):
    """``ceil_div`` for int64 arrays (floor division identity)."""
    return -(-a // b)


def _axis(vals) -> np.ndarray:
    return np.asarray(vals, dtype=np.int64)


#: the size-1 axis of a canonical grid axis the vocabulary has no key for.
_ONE = np.ones(1, dtype=np.int64)


@lru_cache(maxsize=None)
def _pow2_axis(limit: int, minimum: int = 1) -> np.ndarray:
    """The pow2 candidate ladder as a cached (treat-as-immutable) array."""
    return _axis(pow2_candidates(limit, minimum))


@lru_cache(maxsize=None)
def _zeros(ndim: int) -> np.ndarray:
    """A read-only zero that broadcasts over any ``ndim``-axis grid."""
    out = np.zeros((1,) * ndim, dtype=np.int64)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class TileTable:
    """One search family's candidate table for one geometry, before any GPU.

    ``axes[i]`` holds the pow2 candidates of ``keys[i]``, ordered exactly as
    the scalar sweep nests its loops, so a C-order flat index *is* the
    scalar enumeration index.  Every other field broadcasts to
    :attr:`shape` with size 1 along the axes it does not vary on:
    ``blocks`` is a candidate's thread-block count, ``l1_footprint`` and
    ``shared_footprint`` its per-block L1 working set and shared-memory
    need in bytes (the operands of Eq. 2-4's capacity constraints).
    """

    keys: tuple[str, ...]
    axes: tuple[np.ndarray, ...]
    gma_bytes: np.ndarray
    redundant_macs: np.ndarray
    useful_macs: np.ndarray
    l1_footprint: np.ndarray
    shared_footprint: np.ndarray
    blocks: np.ndarray

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(a.size for a in self.axes)

    def on(self, gpu: GpuSpec) -> TilingGrid:
        """This table on one GPU: every candidate's L1 fit, shared-memory fit
        and at least one block per SM."""
        feasible = (
            (self.l1_footprint <= gpu.l1_bytes)
            & (self.shared_footprint <= gpu.shared_bytes)
            & (self.blocks >= gpu.sm_count)
        )
        if feasible.shape != self.shape:
            feasible = np.broadcast_to(feasible, self.shape)
        return TilingGrid(self, feasible)


@dataclass(frozen=True)
class TilingGrid:
    """A :class:`TileTable`'s per-GPU view: which candidates are feasible,
    and the winner under the scalar rank order.

    The cost arrays are the table's, broadcast to the full grid shape
    (read-only views), so ``grid.gma_bytes[cell]`` indexes like
    ``grid.feasible[cell]``.
    """

    table: TileTable
    feasible: np.ndarray

    @property
    def shape(self) -> tuple[int, ...]:
        return self.table.shape

    @property
    def gma_bytes(self) -> np.ndarray:
        return np.broadcast_to(self.table.gma_bytes, self.shape)

    @property
    def redundant_macs(self) -> np.ndarray:
        return np.broadcast_to(self.table.redundant_macs, self.shape)

    @property
    def useful_macs(self) -> np.ndarray:
        return np.broadcast_to(self.table.useful_macs, self.shape)

    def tiling_at(self, flat_index: int) -> dict[str, int]:
        """The tiling dict of one candidate by scalar-sweep (C-order) index."""
        idx = np.unravel_index(flat_index, self.shape)
        return {k: int(ax[i]) for k, ax, i in zip(self.table.keys, self.table.axes, idx)}

    def best(self, warp_size: int) -> tuple[dict[str, int], int, float] | None:
        """Winner under the scalar rank order, or ``None`` if none feasible.

        Returns ``(tiling, gma_bytes, redundancy_ratio)``.  A stable lexsort
        on (warp-multiple, GMA, -threads) over the feasible cells leaves
        equal-ranked candidates in ascending flat-index order — the scalar
        sweep's first-minimum-wins tie-break.
        """
        flat = np.flatnonzero(self.feasible.ravel())
        if flat.size == 0:
            return None
        table = self.table
        idx = np.unravel_index(flat, self.shape)
        thr = table.axes[0][idx[0]]
        for ax, ii in zip(table.axes[1:], idx[1:]):
            thr = thr * ax[ii]
        gma = self.gma_bytes[idx]
        warp_bad = thr % warp_size != 0
        at = int(np.lexsort((-thr, gma, warp_bad))[0])
        sel = tuple(int(ii[at]) for ii in idx)
        red = int(self.redundant_macs[sel])
        useful = int(self.useful_macs[sel])
        total = red + useful
        ratio = red / total if total else 0.0
        tiling = {k: int(ax[i]) for k, ax, i in zip(table.keys, table.axes, sel)}
        return tiling, int(gma[at]), ratio


# ---- layer-by-layer (Eq. 2 / Eq. 3) -------------------------------------------


def lbl_table(spec: ConvSpec) -> TileTable:
    """Eq. 2 / Eq. 3 GMA and footprints over the full LBL candidate grid."""
    eb = spec.dtype.nbytes
    if spec.kind is ConvKind.POINTWISE:
        m, c = spec.out_channels, spec.in_channels
        out_hw = spec.out_h * spec.out_w
        tm = _pow2_axis(m)
        thw = _pow2_axis(out_hw, 4)
        n_w = _cdiv(m, tm)[:, None]
        n_sp = _cdiv(out_hw, thw)[None, :]
        reads = n_w * (c * out_hw) + n_sp * (m * c)
        gma = (reads + m * out_hw) * eb
        l1 = (tm[:, None] * thw[None, :] + STREAM_CHUNK * (tm[:, None] + thw[None, :])) * eb
        zero = _zeros(2)
        return TileTable(("tile_m", "tile_hw"), (tm, thw), gma, zero, zero, l1, zero, n_w * n_sp)
    if spec.kind is ConvKind.DEPTHWISE:
        c, k, s = spec.in_channels, spec.kernel, spec.stride
        tc = _pow2_axis(c)
        th = _pow2_axis(spec.out_h)
        tw = _pow2_axis(spec.out_w)
        n_sp = _cdiv(spec.out_h, th)[:, None] * _cdiv(spec.out_w, tw)[None, :]
        weights = c * k * k
        # Eq. 1 overlap is a sum of one th-term and one tw-term.
        ovl = ((_cdiv(spec.in_h, th * s) - 1) * max(k - s, 0) * spec.in_w)[:, None] + (
            (_cdiv(spec.in_w, tw * s) - 1) * max(k - s, 0) * spec.in_h
        )[None, :]
        reads = 2 * c * ovl + c * spec.in_h * spec.in_w + n_sp * weights
        gma = ((reads + c * spec.out_h * spec.out_w) * eb)[None, :, :]
        ext_hw = ((th - 1) * s + k)[:, None] * ((tw - 1) * s + k)[None, :]
        per_c = ext_hw + th[:, None] * tw[None, :] + k * k
        l1 = tc[:, None, None] * per_c[None, :, :] * eb
        blocks = _cdiv(c, tc)[:, None, None] * n_sp[None, :, :]
        zero = _zeros(3)
        return TileTable(
            ("tile_c", "tile_h", "tile_w"), (tc, th, tw), gma, zero, zero, l1, zero, blocks
        )
    raise PlanError(f"{spec.name}: LBL search supports only DW/PW layers")


def lbl_grid(spec: ConvSpec, gpu: GpuSpec) -> TilingGrid:
    """:func:`lbl_table` on one GPU."""
    return lbl_table(spec).on(gpu)


# ---- fused chains (the FCMs are length-2 chains) ---------------------------------


def chain_table(chain: FusedChain, keys: tuple[str, ...]) -> TileTable:
    """Every candidate of one tiling vocabulary, evaluated as arrays.

    ``keys`` is one vocabulary the chain speaks
    (:func:`~repro.planner.chain_costs.tiling_vocabulary`).  Mirrors
    :func:`repro.planner.chain_costs.chain_gma` /
    :func:`~repro.planner.chain_costs.chain_footprints` term for term; the
    per-boundary overlap and window-extent quantities are axis tables, one
    entry per candidate tile size.  Every term broadcasts over the
    canonical ``(tile_f, tile_h, tile_w, tile_m)`` axes, with a size-1 axis
    where the vocabulary has no key; the table keeps views onto the
    vocabulary's own axes, whose order is the canonical one, so C-order
    stays the scalar sweep's order.
    """
    keys = tiling_vocabulary(chain, keys)
    axes = {k: _pow2_axis(*tiling_ladder(chain, k)) for k in keys}
    key_axes = tuple(axes[k] for k in keys)
    if "tile_hw" in keys:
        if not _flattens(chain):  # no flattened plane: no block to launch
            zero = _zeros(len(keys))
            return TileTable(keys, key_axes, zero, zero, zero, zero, zero, zero)
        chain = _flat_view(chain)
    n = chain.length
    first, last = chain.first, chain.last
    eb = chain.dtype.nbytes
    grouped = "tile_f" in keys
    spatial = "tile_h" in keys or "tile_hw" in keys
    out_h, out_w = last.out_h, last.out_w
    if spatial:  # a flattened plane's one row is tile_h = 1
        th, tw = axes.get("tile_h", _ONE), axes.get("tile_w", axes.get("tile_hw"))
    else:  # one tile spans the plane
        th, tw = _axis((out_h,)), _axis((out_w,))
    tf = axes.get("tile_f", _ONE)
    tm = axes.get("tile_m", _ONE)
    th4, tw4 = th[None, :, None, None], tw[None, None, :, None]
    n_sp = _cdiv(out_h, th4) * _cdiv(out_w, tw4)
    weights = sum(s.weights_elements for s in chain.specs)
    writes = last.out_channels * out_h * out_w
    in_b = 1 if first.kind is ConvKind.POINTWISE else 0
    redundant = 0
    useful = last.macs

    def ovl_at(b: int) -> np.ndarray:
        h, w = _grid(chain, b)
        k_eff, s_eff = composed_receptive_field(chain.specs[b:])
        o = max(k_eff - s_eff, 0)
        return (_cdiv(h, th4 * s_eff) - 1) * o * w + (_cdiv(w, tw4 * s_eff) - 1) * o * h

    h_in, w_in = _grid(chain, in_b)
    ifm = first.in_channels * (2 * ovl_at(in_b) + h_in * w_in)
    for b in range(1, n):
        h, w = _grid(chain, b)
        stage = chain.specs[b - 1]
        mpe = _stage_macs_per_elem(stage)
        redundant = redundant + stage.out_channels * ovl_at(b) * mpe
        useful = useful + stage.out_channels * h * w * mpe
    n_f = _cdiv(first.out_channels, tf[:, None, None, None]) if grouped else 1
    gma = (n_f * ifm + n_sp * weights + writes) * eb

    # Footprints: commBuffers from the worst-case window extents, plus the
    # same per-stage residency terms as chain_footprints.
    eh = chain_window_extents(chain, th.tolist())
    ew = chain_window_extents(chain, tw.tolist())
    window = [
        _axis(eh[b])[None, :, None, None] * _axis(ew[b])[None, None, :, None]
        for b in range(n)
    ]
    stream = list(window)
    out_px = th4 * tw4
    if grouped and not spatial:  # PWDW: the plane resident, rows streaming
        h1, w1 = _grid(chain, 1)
        window[1], stream[1], out_px = h1 * w1, w1, out_w

    def ch(b: int):  # channels of boundary b one block holds
        if b == 0:
            return first.in_channels
        return tf[:, None, None, None] if grouped else chain.specs[b - 1].out_channels

    comms = [ch(b) * window[b] * eb for b in range(1, n)]
    if n == 2:
        shared = comms[0]
    else:
        shared = None
        for j in range(len(comms)):
            pair = comms[j] + (comms[j + 1] if j + 1 < len(comms) else 0)
            shared = pair if shared is None else np.maximum(shared, pair)
    l1 = sum(comms)
    if first.kind is ConvKind.DEPTHWISE:
        l1 = l1 + ch(0) * window[0] * eb + ch(0) * first.kernel * first.kernel * eb
    else:
        l1 = l1 + STREAM_CHUNK * (ch(1) + stream[1]) * eb
    for b in range(2, n):
        stage = chain.specs[b - 1]
        if stage.kind is ConvKind.DEPTHWISE:
            l1 = l1 + ch(b) * stage.kernel * stage.kernel * eb
        else:
            l1 = l1 + STREAM_CHUNK * (ch(b) + stream[b]) * eb
    if last.kind is ConvKind.POINTWISE:
        tm4 = tm[None, None, None, :]
        l1 = l1 + (tm4 * out_px + STREAM_CHUNK * (tm4 + out_px)) * eb
    else:
        l1 = l1 + ch(n) * last.kernel * last.kernel * eb + ch(n) * out_px * eb

    # Every term is 4-D (or a constant) with size 1 on the canonical axes
    # the vocabulary lacks; dropping those leaves the vocabulary's own axes.
    on_keys = (
        slice(None) if grouped else 0,
        slice(None) if "tile_h" in keys else 0,
        slice(None) if spatial else 0,
        slice(None) if "tile_m" in keys else 0,
    )

    def own(term) -> np.ndarray:
        term = np.asarray(term, dtype=np.int64)
        return (term if term.ndim else term.reshape(1, 1, 1, 1))[on_keys]

    return TileTable(
        keys, key_axes, own(gma), own(redundant), own(useful), own(l1), own(shared),
        own(n_f * n_sp),
    )


def chain_grid(chain: FusedChain, keys: tuple[str, ...], gpu: GpuSpec) -> TilingGrid:
    """:func:`chain_table` on one GPU."""
    return chain_table(chain, keys).on(gpu)
