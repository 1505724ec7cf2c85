"""Fast-path engine: one vectorized pass over a kernel's whole grid.

The reference executor (:mod:`repro.gpu.executor`) interprets a launch the
way the CUDA runtime schedules it — one Python call per thread block, every
slice metered through :class:`~repro.gpu.memory.GlobalBuffer`.  That fidelity
is the simulator's ground truth, but it pays an interpreter tax per block
that real fused kernels never would, and it dominates the wall-clock of
functional serving and every parity test.

The fast engine is the production alternative: one program for every
kernel, :meth:`~repro.kernels.base.SimKernel.forward`, executes the
**entire grid as whole-tensor NumPy ops** (one :func:`grid_depthwise` or
matmul per stage instead of one per block) and counts nothing.  The launch
reports the measured model's counters instead
(:meth:`~repro.kernels.base.SimKernel.model_counters`:
:func:`~repro.planner.analytic.lbl_counters`,
:func:`~repro.planner.analytic.chain_counters`), commBuffer traffic and peak
included.  The reference engine is the independent meter the model is held
to: its metered totals, :class:`~repro.gpu.executor.LaunchStats` and
roofline timings are *bit-identical* to the fast engine's — enforced by the
zoo-wide parity matrix in ``tests/test_fastpath.py`` and the kernel
properties in ``tests/test_properties_kernels.py``.

Whole-grid GEMMs go through :func:`repro.core.ops.exact_matmul`: INT8 runs
as float32 BLAS while the reduction depth is at most 1024 and as float64
beyond, bit-equal to the reference engine's integer matmuls.

The engine is a string (``"fast"`` — the default — or ``"reference"``),
validated by :func:`resolve_engine` and taken by ``SimKernel.simulate`` /
``simulate_batch``.  Every session and serving run the fast engine;
:func:`repro.runtime.session.reference_run` replays a whole plan on the
reference engine for the parity tests and the benches, and
:func:`repro.tune.measure.simulated_kernel_cost_s` prices one step on it.
"""

from __future__ import annotations

import numpy as np

from ..core.tiling import input_extent
from ..errors import SimulationError

__all__ = [
    "ENGINES",
    "DEFAULT_ENGINE",
    "resolve_engine",
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


# ---- whole-tensor compute primitives ------------------------------------------
#: accumulator bytes per channel block of :func:`grid_depthwise`: a block's
#: accumulator, product and canvas rows (about three times this) stay in a
#: core's L2 across all ``k * k`` taps.
_DW_BLOCK_BYTES = 256 * 1024


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
    :func:`repro.kernels.direct_dw.depthwise_tile`, but one multiply-add per
    filter tap over a block of channels instead of a windowed einsum.  The
    padded canvas is flat per channel and output rows are laid out at the
    canvas width, so each tap reads one 1-D stride-``stride`` view of it,
    for every stride; the extra ``canvas_w - cols_out`` columns per row are
    computed and dropped, and the result is a ``(c, rows_out, cols_out)``
    view.  Every element starts at zero and takes ``acc += x * w`` once per
    tap in the einsum's ``(k, l)`` reduction order, so integer results are
    identical and floating results agree at dtype tolerance.
    """
    c = window.shape[0]
    canvas_h = input_extent(rows_out, kernel, stride)
    canvas_w = input_extent(cols_out, kernel, stride)
    n = rows_out * canvas_w
    span = stride * (n - 1) + 1
    # The last tap's view ends (kernel - 1) rows and columns past the first's.
    canvas = np.zeros((c, (kernel - 1) * (canvas_w + 1) + span), dtype=acc_dtype)
    use_h = min(window.shape[1], canvas_h - row_off)
    use_w = min(window.shape[2], canvas_w - col_off)
    plane = canvas[:, : canvas_h * canvas_w].reshape(c, canvas_h, canvas_w)
    plane[:, row_off : row_off + use_h, col_off : col_off + use_w] = window[
        :, :use_h, :use_w
    ]
    taps = weights.astype(acc_dtype, copy=False).reshape(c, kernel * kernel, 1)
    acc = np.zeros((c, n), dtype=acc_dtype)
    block = max(1, _DW_BLOCK_BYTES // acc[0].nbytes)
    prod = np.empty((min(block, c), n), dtype=acc_dtype)
    for c0 in range(0, c, block):
        a = acc[c0 : c0 + block]
        src = canvas[c0 : c0 + block]
        w = taps[c0 : c0 + block]
        p = prod[: a.shape[0]]
        for t in range(kernel * kernel):
            off = (t // kernel) * canvas_w + t % kernel
            np.multiply(src[:, off : off + span : stride], w[:, t], out=p)
            a += p
    return acc.reshape(c, rows_out, canvas_w)[:, :, :cols_out]
