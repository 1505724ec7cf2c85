"""Tiling descriptors and the paper's overlap model (Eq. 1).

The paper tiles OFMs over GPU thread blocks (Output-Stationary / Local Weight
Stationary dataflow).  For depthwise convolutions the input windows of
neighbouring spatial tiles overlap by ``filter - stride`` rows/columns; those
halo elements are (re)loaded by every tile sharing them — Eq. 1 counts them:

``Overlap = (ceil(W/TileW) - 1) * (FilterW - S) * H
          + (ceil(H/TileH) - 1) * (FilterH - S) * W``

(the count is *per channel*; callers multiply by the channel depth).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ..errors import ShapeError

__all__ = [
    "ceil_div",
    "overlap_elements",
    "input_extent",
    "tile_input_range",
    "tile_windows",
    "PwTiling",
    "DwTiling",
]


def ceil_div(a: int, b: int) -> int:
    """Ceiling integer division, the ``ceil(x/y)`` of the paper's equations."""
    if b <= 0:
        raise ShapeError(f"ceil_div by non-positive {b}")
    return -(-a // b)


def overlap_elements(
    channel_w: int,
    channel_h: int,
    tile_w: int,
    tile_h: int,
    filter_w: int,
    filter_h: int,
    stride: int,
) -> int:
    """Per-channel overlapping input elements between spatial tiles (paper Eq. 1).

    Returns 0 when the filter is 1x1 with stride >= 1 (pointwise — windows
    never overlap) or when a single tile covers the whole axis.
    """
    if min(channel_w, channel_h, tile_w, tile_h, filter_w, filter_h, stride) <= 0:
        raise ShapeError("overlap_elements: all geometry arguments must be positive")
    w_overlap = max(filter_w - stride, 0)
    h_overlap = max(filter_h - stride, 0)
    n_w_bounds = ceil_div(channel_w, tile_w) - 1
    n_h_bounds = ceil_div(channel_h, tile_h) - 1
    return n_w_bounds * w_overlap * channel_h + n_h_bounds * h_overlap * channel_w


def input_extent(out_tile: int, kernel: int, stride: int) -> int:
    """Input elements along one axis needed to compute ``out_tile`` outputs."""
    if out_tile <= 0:
        raise ShapeError(f"non-positive output tile {out_tile}")
    return (out_tile - 1) * stride + kernel


def tile_input_range(
    tile_start_out: int, tile_len_out: int, kernel: int, stride: int, padding: int, in_size: int
) -> tuple[int, int]:
    """Half-open input index range (unpadded coords, clamped) for an output tile.

    The one backward step :func:`tile_windows` composes; clamping models the
    zero-padding border that is never fetched from DRAM.
    """
    lo = tile_start_out * stride - padding
    hi = (tile_start_out + tile_len_out - 1) * stride - padding + kernel
    return max(lo, 0), min(hi, in_size)


@lru_cache(maxsize=None)
def tile_windows(
    out_size: int, tile: int, stages: tuple[tuple[int, int, int, int], ...]
) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Every output tile's clamped window along one axis, per boundary.

    ``stages`` holds each stage's ``(kernel, stride, padding, in_size)``
    along the axis, first stage first; ``out_size`` is the last stage's
    output extent.  ``windows[b][t]`` is the half-open ``(lo, hi)`` range of
    tile ``t`` on boundary ``b`` (0 = the first stage's input, ``len(stages)``
    = the output tiles themselves), found by walking each output tile
    backward through the stages with :func:`tile_input_range`.  This is the
    one window rule: what a thread block loads and computes, what the
    measured cost convention charges, and what fused kernels park in their
    commBuffers.  Pure in its arguments, so cached.
    """
    cur = tuple((t0, min(t0 + tile, out_size)) for t0 in range(0, out_size, tile))
    per = [cur]
    for kernel, stride, padding, in_size in reversed(stages):
        cur = tuple(
            tile_input_range(lo, hi - lo, kernel, stride, padding, in_size) for lo, hi in cur
        )
        per.append(cur)
    per.reverse()
    return tuple(per)


@dataclass(frozen=True)
class PwTiling:
    """Tiling of a pointwise layer: ``tile_m`` filters x ``tile_hw`` pixels.

    The channel (reduction) dimension is never split — the OS-LWS assumption
    that all inputs of one output element live in the same tile (paper §IV-A).
    """

    tile_m: int
    tile_hw: int

    def __post_init__(self) -> None:
        if self.tile_m <= 0 or self.tile_hw <= 0:
            raise ShapeError(f"non-positive PW tile ({self.tile_m},{self.tile_hw})")

    def num_filter_tiles(self, m: int) -> int:
        return ceil_div(m, self.tile_m)

    def num_spatial_tiles(self, out_hw: int) -> int:
        return ceil_div(out_hw, self.tile_hw)

    def num_ofm_tiles(self, m: int, out_hw: int) -> int:
        return self.num_filter_tiles(m) * self.num_spatial_tiles(out_hw)


@dataclass(frozen=True)
class DwTiling:
    """Tiling of a depthwise layer: ``tile_c`` channels x ``tile_h x tile_w`` pixels.

    Depthwise filters are tiny (KhxKw per channel) and are never split across
    their spatial extent (paper §IV-A): a whole filter slice is resident per SM.
    """

    tile_c: int
    tile_h: int
    tile_w: int

    def __post_init__(self) -> None:
        if self.tile_c <= 0 or self.tile_h <= 0 or self.tile_w <= 0:
            raise ShapeError(
                f"non-positive DW tile ({self.tile_c},{self.tile_h},{self.tile_w})"
            )

    def num_channel_tiles(self, c: int) -> int:
        return ceil_div(c, self.tile_c)

    def num_spatial_tiles(self, out_h: int, out_w: int) -> int:
        return ceil_div(out_h, self.tile_h) * ceil_div(out_w, self.tile_w)

    def num_ofm_tiles(self, c: int, out_h: int, out_w: int) -> int:
        return self.num_channel_tiles(c) * self.num_spatial_tiles(out_h, out_w)
