"""Whole-grid tile-size evaluation: the search families as array programs.

The scalar sweeps in :mod:`repro.planner.search` visit every pow2 candidate
with Python loops — after the fast-path engine removed kernel execution from
the profile, that interpreter-bound search became the dominant planning cost.
This module evaluates each family's *entire* candidate grid at once: the
pow2 axes are materialized as 1-D ``int64`` arrays, Eq. 2/3/4-family
feasibility and GMA become broadcast expressions over their outer product,
and the winner falls out of one stable lexsort.

Every estimator here is axis-separable: GMA and footprint terms factor into
small per-axis tables (``ceil_div`` ladders, Eq. 1 overlap terms, the
measured convention's clamped ``loaded``/``covered`` extents), so a grid of
thousands of candidates costs a handful of table builds plus a few
broadcast multiplies.  All arithmetic stays in ``int64`` — the same exact
integers the scalar path computes — and the rank order reproduces
``search._rank_key`` bit-for-bit: warp-multiple thread blocks first, then
GMA, then larger tiles, ties broken by the scalar sweep's visiting order
(C-order flat index, axes nested exactly like the reference loops).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..core.chain import FusedChain, composed_receptive_field
from ..errors import PlanError, UnsupportedError
from ..gpu.specs import GpuSpec
from ..ir.layers import ConvKind, ConvSpec
from .chain_costs import (
    _flat_view,
    _flattens,
    _grid,
    _stage_macs_per_elem,
    chain_axis_tables,
    chain_window_extents,
    tiling_ladder,
    tiling_vocabulary,
)
from .costs import STREAM_CHUNK, _check_convention, loaded_axis_table

__all__ = [
    "TilingGrid",
    "pow2_candidates",
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
def _loaded_table(
    out: int, tiles: tuple[int, ...], k: int, s: int, pad: int, in_size: int
) -> np.ndarray:
    """Cached measured-convention loaded-extent table (pure in its args)."""
    return _axis(loaded_axis_table(out, tiles, k, s, pad, in_size))


@dataclass(frozen=True)
class TilingGrid:
    """One search family's full candidate grid, evaluated as arrays.

    ``axes[i]`` holds the pow2 candidates of ``keys[i]``; the result arrays
    all broadcast to the outer-product shape, with axes ordered exactly as
    the scalar sweep nests its loops — so a C-order flat index *is* the
    scalar enumeration index, which is what makes :meth:`best` reproduce
    the reference tie-breaking.
    """

    keys: tuple[str, ...]
    axes: tuple[np.ndarray, ...]
    feasible: np.ndarray
    gma_bytes: np.ndarray
    redundant_macs: np.ndarray
    useful_macs: np.ndarray

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(a.size for a in self.axes)

    @property
    def n_candidates(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64))

    def threads(self) -> np.ndarray:
        """Thread-block size (tile-dimension product) of every candidate."""
        n = len(self.axes)
        out = np.ones(self.shape, dtype=np.int64)
        for i, ax in enumerate(self.axes):
            out = out * ax.reshape((1,) * i + (-1,) + (1,) * (n - i - 1))
        return out

    def tiling_at(self, flat_index: int) -> dict[str, int]:
        """The tiling dict of one candidate by scalar-sweep (C-order) index."""
        idx = np.unravel_index(flat_index, self.shape)
        return {k: int(ax[i]) for k, ax, i in zip(self.keys, self.axes, idx)}

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
        idx = np.unravel_index(flat, self.shape)
        thr = self.axes[0][idx[0]]
        for ax, ii in zip(self.axes[1:], idx[1:]):
            thr = thr * ax[ii]
        gma = self.gma_bytes[idx]
        warp_bad = thr % warp_size != 0
        at = int(np.lexsort((-thr, gma, warp_bad))[0])
        sel = tuple(int(ii[at]) for ii in idx)
        red = int(self.redundant_macs[sel])
        useful = int(self.useful_macs[sel])
        total = red + useful
        ratio = red / total if total else 0.0
        tiling = {k: int(ax[i]) for k, ax, i in zip(self.keys, self.axes, sel)}
        return tiling, int(gma[at]), ratio


# ---- layer-by-layer (Eq. 2 / Eq. 3) -------------------------------------------


def lbl_grid(spec: ConvSpec, gpu: GpuSpec, convention: str = "paper") -> TilingGrid:
    """Eq. 2 / Eq. 3 GMA and feasibility over the full LBL candidate grid."""
    _check_convention(convention)
    eb = spec.dtype.nbytes
    if spec.kind is ConvKind.POINTWISE:
        m, c = spec.out_channels, spec.in_channels
        out_hw = spec.out_h * spec.out_w
        tm = _pow2_axis(m)
        thw = _pow2_axis(out_hw, 4)
        n_w = _cdiv(m, tm)[:, None]
        n_sp = _cdiv(out_hw, thw)[None, :]
        # Eq. 2 is convention-independent (1x1 filters: no halo, no clamping).
        reads = n_w * (c * out_hw) + n_sp * (m * c)
        gma = (reads + m * out_hw) * eb
        l1 = (tm[:, None] * thw[None, :] + STREAM_CHUNK * (tm[:, None] + thw[None, :])) * eb
        feasible = (l1 <= gpu.l1_bytes) & (n_w * n_sp >= gpu.sm_count)
        zeros = np.zeros(gma.shape, dtype=np.int64)
        return TilingGrid(("tile_m", "tile_hw"), (tm, thw), feasible, gma, zeros, zeros)
    if spec.kind is ConvKind.DEPTHWISE:
        c, k, s, pad = spec.in_channels, spec.kernel, spec.stride, spec.padding
        tc = _pow2_axis(c)
        th = _pow2_axis(spec.out_h)
        tw = _pow2_axis(spec.out_w)
        shape = (tc.size, th.size, tw.size)
        n_sp = _cdiv(spec.out_h, th)[:, None] * _cdiv(spec.out_w, tw)[None, :]
        weights = c * k * k
        if convention == "paper":
            # Eq. 1 overlap is a sum of one th-term and one tw-term.
            ovl = ((_cdiv(spec.in_h, th * s) - 1) * max(k - s, 0) * spec.in_w)[:, None] + (
                (_cdiv(spec.in_w, tw * s) - 1) * max(k - s, 0) * spec.in_h
            )[None, :]
            reads = 2 * c * ovl + c * spec.in_h * spec.in_w + n_sp * weights
        else:
            rows = _loaded_table(spec.out_h, pow2_candidates(spec.out_h), k, s, pad, spec.in_h)
            cols = _loaded_table(spec.out_w, pow2_candidates(spec.out_w), k, s, pad, spec.in_w)
            reads = c * rows[:, None] * cols[None, :] + n_sp * weights
        gma = np.broadcast_to(
            ((reads + c * spec.out_h * spec.out_w) * eb)[None, :, :], shape
        )
        ext_hw = ((th - 1) * s + k)[:, None] * ((tw - 1) * s + k)[None, :]
        per_c = ext_hw + th[:, None] * tw[None, :] + k * k
        l1 = tc[:, None, None] * per_c[None, :, :] * eb
        n_ofm = _cdiv(c, tc)[:, None, None] * n_sp[None, :, :]
        feasible = (l1 <= gpu.l1_bytes) & (n_ofm >= gpu.sm_count)
        zeros = np.zeros(shape, dtype=np.int64)
        return TilingGrid(("tile_c", "tile_h", "tile_w"), (tc, th, tw), feasible, gma, zeros, zeros)
    raise PlanError(f"{spec.name}: LBL search supports only DW/PW layers")


# ---- fused chains (the FCMs are length-2 chains) ---------------------------------


def chain_grid(
    chain: FusedChain, keys: tuple[str, ...], gpu: GpuSpec, convention: str = "paper"
) -> TilingGrid:
    """Every candidate of one tiling vocabulary, evaluated as arrays.

    ``keys`` is one vocabulary the chain speaks
    (:func:`~repro.planner.chain_costs.tiling_vocabulary`).  Mirrors
    :func:`repro.planner.chain_costs.chain_gma` /
    :func:`~repro.planner.chain_costs.chain_footprints` term for term; the
    per-boundary overlap, clamped-extent and window-extent quantities come
    from the cost module's axis tables, one entry per candidate tile size.
    Every term broadcasts over the canonical ``(tile_f, tile_h, tile_w,
    tile_m)`` axes, with a size-1 axis where the vocabulary has no key; the
    result arrays are views onto the vocabulary's own axes, whose order is
    the canonical one, so C-order stays the scalar sweep's order.
    """
    keys = tiling_vocabulary(chain, keys)
    if convention not in ("paper", "measured"):
        raise UnsupportedError(f"unknown cost convention {convention!r}")
    axes = {k: _pow2_axis(*tiling_ladder(chain, k)) for k in keys}
    key_axes = tuple(axes[k] for k in keys)
    if "tile_hw" in keys:
        if not _flattens(chain):  # no flattened plane: nothing is feasible
            shape = tuple(a.size for a in key_axes)
            zeros = np.zeros(shape, dtype=np.int64)
            return TilingGrid(keys, key_axes, np.zeros(shape, dtype=bool), zeros, zeros, zeros)
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

    def rows(v) -> np.ndarray:
        return _axis(v)[None, :, None, None]

    def cols(v) -> np.ndarray:
        return _axis(v)[None, None, :, None]

    n_sp = _cdiv(out_h, th4) * _cdiv(out_w, tw4)
    weights = sum(s.weights_elements for s in chain.specs)
    writes = last.out_channels * out_h * out_w
    in_b = 1 if first.kind is ConvKind.POINTWISE else 0
    redundant = 0
    useful = last.macs
    if convention == "paper":

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
    else:
        row_tot, row_cov = chain_axis_tables(chain, th.tolist(), 0)
        col_tot, col_cov = chain_axis_tables(chain, tw.tolist(), 1)
        ifm = first.in_channels * rows(row_tot[in_b]) * cols(col_tot[in_b])
        for b in range(1, n):
            stage = chain.specs[b - 1]
            mpe = _stage_macs_per_elem(stage)
            executed = stage.out_channels * rows(row_tot[b]) * cols(col_tot[b])
            unique = stage.out_channels * rows(row_cov[b]) * cols(col_cov[b])
            redundant = redundant + (executed - unique) * mpe
            useful = useful + unique * mpe
    n_f = _cdiv(first.out_channels, tf[:, None, None, None]) if grouped else 1
    gma = (n_f * ifm + n_sp * weights + writes) * eb

    # Footprints: commBuffers from the worst-case window extents, plus the
    # same per-stage residency terms as chain_footprints.
    eh = chain_window_extents(chain, th.tolist())
    ew = chain_window_extents(chain, tw.tolist())
    window = [rows(eh[b]) * cols(ew[b]) for b in range(n)]
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
    feasible = (l1 <= gpu.l1_bytes) & (shared <= gpu.shared_bytes) & (n_f * n_sp >= gpu.sm_count)

    # feasible spans every axis already; the rest broadcast onto it.
    full = np.zeros(feasible.shape, dtype=np.int64)
    on_keys = (
        slice(None) if grouped else 0,
        slice(None) if "tile_h" in keys else 0,
        slice(None) if spatial else 0,
        slice(None) if "tile_m" in keys else 0,
    )
    return TilingGrid(
        keys, key_axes, feasible[on_keys], (gma + full)[on_keys],
        (redundant + full)[on_keys], (useful + full)[on_keys],
    )
