"""Fast-path launch engine: one vectorized pass over a kernel's whole grid.

The reference executor (:mod:`repro.gpu.executor`) interprets a launch the
way the CUDA runtime schedules it — one Python call per thread block, every
slice metered through :class:`~repro.gpu.memory.GlobalBuffer`.  That fidelity
is the simulator's ground truth, but it pays an interpreter tax per block
that real fused kernels never would, and it dominates the wall-clock of
functional serving, kernel-in-the-loop tuning and every parity test.

This module is the production alternative: a kernel that implements
:class:`GridProgram` executes its **entire grid as whole-tensor NumPy ops**
(one einsum/matmul per stage instead of one per block) and charges the
counters **in bulk** with closed-form per-block totals via
:meth:`~repro.gpu.counters.AccessCounters.read_bulk` /
:meth:`~repro.gpu.counters.AccessCounters.write_bulk` /
:meth:`~repro.gpu.counters.AccessCounters.smem_bulk`.  The bulk charges are
derived from the same clamped tile ranges the interpreted blocks use
(:func:`axis_tile_extents` / :func:`axis_window_extents`), so metered totals,
:class:`~repro.gpu.executor.LaunchStats` and roofline timings are
*bit-identical* to the reference path — enforced by the zoo-wide parity
matrix in ``tests/test_fastpath.py``.

Whole-grid GEMMs go through :func:`repro.core.ops.exact_matmul`: INT8 runs
as float32 BLAS while the reduction depth is at most 1024 and as float64
beyond, bit-equal to the reference engine's integer matmuls.

The engine is a string (``"fast"`` — the default — or ``"reference"``),
validated by :func:`resolve_engine` and taken by ``SimKernel.simulate`` /
``simulate_batch``.  Every session, the tuning harness and serving run the
fast engine; :func:`repro.runtime.session.reference_run` replays a whole
plan on the reference engine for the parity tests and the benches.
"""

from __future__ import annotations

from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from ..core.tiling import input_extent, tile_input_range
from ..errors import SimulationError
from .counters import AccessCounters
from .executor import LaunchStats
from .specs import GpuSpec

__all__ = [
    "ENGINES",
    "DEFAULT_ENGINE",
    "resolve_engine",
    "GridProgram",
    "launch_fast",
    "axis_tile_extents",
    "axis_window_extents",
    "grid_depthwise",
]

#: Execution engines of the simulated kernels.
ENGINES = ("fast", "reference")

#: The fast vectorized engine is the default everywhere; the per-block
#: interpreted path stays available as the reference oracle.
DEFAULT_ENGINE = "fast"


def resolve_engine(engine: str | None) -> str:
    """Normalize an engine name (``None`` -> the default), or raise."""
    if engine is None:
        return DEFAULT_ENGINE
    if engine not in ENGINES:
        raise SimulationError(
            f"unknown execution engine {engine!r}; choose from {ENGINES}"
        )
    return engine


@runtime_checkable
class GridProgram(Protocol):
    """A kernel that can execute its whole grid in one vectorized pass.

    ``run_grid`` runs against the buffers prepared by ``bind``: it computes
    the full OFM with whole-tensor ops, charges the counters in bulk (exactly
    what the per-block path would have metered), and returns the launch's
    peak per-block shared-memory bytes for :class:`LaunchStats`.
    """

    name: str

    def grid(self) -> Sequence[tuple[int, ...]]:
        """Block coordinates of the launch grid (for occupancy stats)."""
        ...

    def run_grid(self) -> int:
        """Execute the whole grid vectorized; returns peak shared bytes."""
        ...


def launch_fast(kernel: GridProgram, gpu: GpuSpec, counters: AccessCounters) -> LaunchStats:
    """Launch a kernel grid through the vectorized fast path.

    Mirrors :func:`repro.gpu.executor.launch` exactly — empty-grid guard,
    one launch charged to the counters, waves from the block count — except
    the blocks execute as a single whole-tensor pass.
    """
    blocks = kernel.grid()
    if not blocks:
        raise SimulationError(f"kernel {kernel.name!r} launched with an empty grid")
    counters.kernel_launches += 1
    peak = int(kernel.run_grid())
    waves = -(-len(blocks) // gpu.sm_count)
    return LaunchStats(
        kernel_name=kernel.name,
        num_blocks=len(blocks),
        peak_shared_bytes=peak,
        waves=waves,
    )


def axis_tile_extents(out_size: int, tile: int) -> list[int]:
    """Clamped output-tile extents along one axis, one entry per tile index.

    ``sum()`` of the result is ``out_size``; the entries reproduce the
    ``min(tile, out_size - t0)`` arithmetic of every ``run_block``.
    """
    return [min(tile, out_size - t0) for t0 in range(0, out_size, tile)]


def axis_window_extents(
    out_size: int, tile: int, kernel: int, stride: int, padding: int, in_size: int
) -> list[int]:
    """Clamped *input-window* extents along one axis, one entry per tile.

    Exactly the ``hi - lo`` of :func:`repro.core.tiling.tile_input_range`
    per output tile — the rows/cols an interpreted block actually loads,
    border clamping included.  Summing these (times channels times element
    bytes) gives the bulk IFM charge of a halo-tiled launch.
    """
    out: list[int] = []
    for t0 in range(0, out_size, tile):
        lo, hi = tile_input_range(
            t0, min(tile, out_size - t0), kernel, stride, padding, in_size
        )
        out.append(hi - lo)
    return out


# ---- whole-tensor compute primitives ------------------------------------------
def grid_depthwise(
    window: np.ndarray,
    weights: np.ndarray,
    rows_out: int,
    cols_out: int,
    row_off: int,
    col_off: int,
    kernel: int,
    stride: int,
    acc_dtype,
) -> np.ndarray:
    """Whole-image depthwise convolution by shifted multiply-accumulate.

    Same canvas/clipping discipline (and argument contract) as
    :func:`repro.kernels.direct_dw.depthwise_tile`, but one fused
    multiply-add per filter tap over the full image instead of a windowed
    einsum — several times faster at grid scale, and tap order matches the
    einsum's ``(k, l)`` reduction order, so integer results are identical
    and floating results agree at dtype tolerance.
    """
    c = window.shape[0]
    canvas_h = input_extent(rows_out, kernel, stride)
    canvas_w = input_extent(cols_out, kernel, stride)
    canvas = np.zeros((c, canvas_h, canvas_w), dtype=acc_dtype)
    use_h = min(window.shape[1], canvas_h - row_off)
    use_w = min(window.shape[2], canvas_w - col_off)
    canvas[:, row_off : row_off + use_h, col_off : col_off + use_w] = window[
        :, :use_h, :use_w
    ]
    wk = weights.astype(acc_dtype, copy=False)
    acc = np.zeros((c, rows_out, cols_out), dtype=acc_dtype)
    h_span = (rows_out - 1) * stride + 1
    w_span = (cols_out - 1) * stride + 1
    for dk in range(kernel):
        for dl in range(kernel):
            acc += (
                canvas[:, dk : dk + h_span : stride, dl : dl + w_span : stride]
                * wk[:, dk : dk + 1, dl : dl + 1]
            )
    return acc
