"""Tests for tiling math including the paper's Eq. 1 overlap model."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tiling import (
    DwTiling,
    PwTiling,
    ceil_div,
    input_extent,
    overlap_elements,
    tile_input_range,
)
from repro.errors import ShapeError


class TestCeilDiv:
    @pytest.mark.parametrize(
        "a,b,expected", [(10, 5, 2), (11, 5, 3), (1, 5, 1), (0, 5, 0), (49, 4, 13)]
    )
    def test_values(self, a, b, expected):
        assert ceil_div(a, b) == expected

    def test_invalid(self):
        with pytest.raises(ShapeError):
            ceil_div(5, 0)


class TestOverlapEq1:
    def test_no_overlap_for_pointwise(self):
        # 1x1 filter, stride 1: neighbouring windows never overlap.
        assert overlap_elements(56, 56, 8, 8, 1, 1, 1) == 0

    def test_no_overlap_single_tile(self):
        assert overlap_elements(14, 14, 14, 14, 3, 3, 1) == 0

    def test_hand_computed(self):
        # W=8,H=8, tiles 4x4, 3x3 filter stride 1:
        # (ceil(8/4)-1)*(3-1)*8 twice = 16 + 16.
        assert overlap_elements(8, 8, 4, 4, 3, 3, 1) == 32

    def test_stride_reduces_overlap(self):
        o1 = overlap_elements(16, 16, 4, 4, 3, 3, 1)
        o2 = overlap_elements(16, 16, 4, 4, 3, 3, 2)
        assert o2 < o1

    def test_stride_equal_kernel_no_overlap(self):
        assert overlap_elements(16, 16, 4, 4, 2, 2, 2) == 0

    def test_invalid(self):
        with pytest.raises(ShapeError):
            overlap_elements(0, 8, 4, 4, 3, 3, 1)


@settings(max_examples=60, deadline=None)
@given(
    size=st.integers(4, 64),
    tile=st.integers(1, 64),
    k=st.integers(1, 5),
    stride=st.integers(1, 3),
)
def test_overlap_nonnegative_and_monotone_in_tiles(size, tile, k, stride):
    """Eq. 1 is >= 0 and never increases when tiles get larger."""
    o = overlap_elements(size, size, tile, tile, k, k, stride)
    assert o >= 0
    o_bigger = overlap_elements(size, size, min(tile * 2, size), min(tile * 2, size),
                                k, k, stride)
    assert o_bigger <= o


class TestInputExtent:
    @pytest.mark.parametrize(
        "out,k,s,expected", [(4, 3, 1, 6), (4, 3, 2, 9), (1, 5, 1, 5), (7, 1, 1, 7)]
    )
    def test_values(self, out, k, s, expected):
        assert input_extent(out, k, s) == expected


class TestTileInputRange:
    def test_interior_tile(self):
        # Output rows 4..7 with k=3, pad=1 read input rows 3..8 inclusive.
        lo, hi = tile_input_range(4, 4, 3, 1, 1, 100)
        assert (lo, hi) == (3, 9)

    def test_border_clamps(self):
        lo, hi = tile_input_range(0, 4, 3, 1, 1, 100)
        assert lo == 0  # padding row never loaded
        lo, hi = tile_input_range(96, 4, 3, 1, 1, 100)
        assert hi == 100

    def test_covers_all_outputs(self):
        """Union of tile ranges covers every input the conv reads."""
        out, k, s, pad, in_size = 14, 3, 1, 1, 14
        covered = set()
        for t0 in range(0, out, 4):
            lo, hi = tile_input_range(t0, min(4, out - t0), k, s, pad, in_size)
            covered.update(range(lo, hi))
        assert covered == set(range(in_size))

    def test_only_tile_windows_composes_it(self):
        """One window rule: every clamped tile window in ``src/`` comes from
        ``repro.core.tiling.tile_windows``, so no other module may call
        ``tile_input_range`` and compose its own."""
        src = Path(__file__).resolve().parents[1] / "src"
        callers = set()
        for path in sorted(src.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "attr", None) or getattr(node.func, "id", None)
                    if name == "tile_input_range":
                        callers.add(path.relative_to(src).as_posix())
        assert callers == {"repro/core/tiling.py"}


class TestTilingDataclasses:
    def test_pw_counts(self):
        t = PwTiling(tile_m=16, tile_hw=64)
        assert t.num_filter_tiles(64) == 4
        assert t.num_spatial_tiles(100) == 2
        assert t.num_ofm_tiles(64, 100) == 8

    def test_dw_counts(self):
        t = DwTiling(tile_c=8, tile_h=7, tile_w=7)
        assert t.num_channel_tiles(32) == 4
        assert t.num_spatial_tiles(14, 14) == 4
        assert t.num_ofm_tiles(32, 14, 14) == 16

    def test_validation(self):
        with pytest.raises(ShapeError):
            PwTiling(0, 32)
        with pytest.raises(ShapeError):
            DwTiling(8, -1, 4)
