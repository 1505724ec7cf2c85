"""Simulated cuDNN convolution algorithms (paper §V-C baselines).

The paper compares against the three cuDNN algorithms that performed best on
its workloads: ``GEMM`` (explicit im2col), ``IMPLICIT_GEMM`` and
``IMPLICIT_PRECOMP_GEMM``.  Without a physical GPU we model each algorithm's
*global traffic* (what Nsight would count) and its efficiency knobs
(achievable fraction of peak compute / bandwidth), then execute the layer
functionally through the reference ops so end-to-end results stay numerically
real.  Knob values are calibrated to reproduce the paper's orderings:

* implicit GEMM beats explicit GEMM (no patch-matrix round trip, §VI-B);
* precomp beats implicit (offset tables trade a little memory for index math);
* all three handle depthwise convolutions poorly (grouped conv degenerates to
  per-channel 1 x k^2 GEMMs with duplicated window reads) — the source of the
  paper's largest FCM-vs-cuDNN speedups.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ..core.ops import conv2d_standard
from ..core.tiling import ceil_div
from ..errors import ShapeError
from ..gpu.counters import AccessCounters
from ..gpu.roofline import KernelTiming, time_kernel
from ..gpu.specs import GpuSpec
from ..ir.layers import ConvKind, ConvSpec
from ..kernels.params import LayerParams
from .im2col import conv_via_im2col, depthwise_via_im2col

__all__ = [
    "CudnnAlgo",
    "cudnn_counters",
    "cudnn_blocks",
    "cudnn_timing",
    "cudnn_batched",
    "best_cudnn_algo",
    "run_cudnn",
]


class CudnnAlgo(enum.Enum):
    """The three cuDNN algorithms the paper benchmarks against."""

    GEMM = "GEMM"
    IMPLICIT_GEMM = "IMP_GEMM"
    IMPLICIT_PRECOMP_GEMM = "IMPL_PRECOMP_GEMM"


@dataclass(frozen=True)
class _AlgoProfile:
    utilization: float
    bandwidth_efficiency: float


#: Efficiency knobs per (algorithm, is_depthwise).  Grouped (DW) convolutions
#: run degenerate per-channel GEMMs: poor occupancy and small transactions.
_PROFILES: dict[tuple[CudnnAlgo, bool], _AlgoProfile] = {
    (CudnnAlgo.GEMM, False): _AlgoProfile(0.70, 0.85),
    (CudnnAlgo.IMPLICIT_GEMM, False): _AlgoProfile(0.75, 0.85),
    (CudnnAlgo.IMPLICIT_PRECOMP_GEMM, False): _AlgoProfile(0.85, 0.90),
    (CudnnAlgo.GEMM, True): _AlgoProfile(0.06, 0.50),
    (CudnnAlgo.IMPLICIT_GEMM, True): _AlgoProfile(0.10, 0.60),
    (CudnnAlgo.IMPLICIT_PRECOMP_GEMM, True): _AlgoProfile(0.15, 0.65),
}

#: GEMM blocking used by the library kernels (output tile edge).
_GEMM_TILE = 64


def cudnn_counters(spec: ConvSpec, algo: CudnnAlgo, gemm_tile: int = _GEMM_TILE) -> AccessCounters:
    """Analytic traffic + MAC tally of one cuDNN-algorithm launch.

    Traffic model (elements; ``K`` = reduction depth, ``N`` = output pixels,
    ``M`` = output channels):

    * explicit GEMM reads the IFM once to materialize the ``K x N`` patch
      matrix, writes it, reads it back tile-wise, and reads the ``M x K``
      weights once per ``N``-tile;
    * implicit GEMM skips the materialization but re-reads input windows with
      their overlap duplication (``~k^2/2`` after L2 reuse);
    * precomp GEMM moves the same bytes plus a tiny offset table.
    """
    counters = AccessCounters()
    counters.kernel_launches = 1
    eb = spec.dtype.nbytes
    n = spec.out_h * spec.out_w
    ifm_bytes = spec.ifm.nbytes
    if spec.kind is ConvKind.DEPTHWISE:
        c, k = spec.in_channels, spec.kernel
        dup = ceil_div(k * k, 2)  # duplicated window reads surviving L1 reuse
        if algo is CudnnAlgo.GEMM:
            counters.read("ifm", c * spec.in_h * spec.in_w * eb)
            counters.write("im2col", c * k * k * n * eb)
            counters.read("im2col", c * k * k * n * eb)
        else:
            # Duplicated window reads of grouped convolutions are scattered
            # sub-line sector loads: they reach device memory (this is the
            # measured-traffic pathology the paper exploits), so no re-read
            # annotation is given here.
            counters.read("ifm", c * dup * n * eb)
        w_reads = c * k * k * ceil_div(n, gemm_tile * gemm_tile) * eb
        counters.read("weights", w_reads)
        counters.reread(spec.weights_bytes, max(w_reads - spec.weights_bytes, 0))
        counters.write("ofm", c * n * eb)
        counters.compute(spec.macs)
        return counters

    m = spec.out_channels
    kk = spec.kernel * spec.kernel
    kdim = spec.in_channels * kk
    n_tiles_n = ceil_div(n, gemm_tile)
    n_tiles_m = ceil_div(m, gemm_tile)
    if algo is CudnnAlgo.GEMM:
        counters.read("ifm", spec.in_channels * spec.in_h * spec.in_w * eb)
        counters.write("im2col", kdim * n * eb)
        counters.read("im2col", n_tiles_m * kdim * n * eb)
        counters.reread(kdim * n * eb, (n_tiles_m - 1) * kdim * n * eb)
    else:
        dup = max(ceil_div(kk, 2), 1)
        b_reads = n_tiles_m * spec.in_channels * dup * n * eb
        counters.read("ifm", b_reads)
        # Across-m-tile passes re-read the (implicitly formed) input matrix;
        # the within-pass dup factor stays at device memory (sector loads).
        one_pass = spec.in_channels * dup * n * eb
        counters.reread(ifm_bytes, max(b_reads - one_pass, 0))
    w_reads = n_tiles_n * m * kdim * eb
    counters.read("weights", w_reads)
    counters.reread(spec.weights_bytes, max(w_reads - spec.weights_bytes, 0))
    if algo is CudnnAlgo.IMPLICIT_PRECOMP_GEMM:
        counters.read("offsets", kk * n)  # precomputed index table (int32-ish)
    counters.write("ofm", m * n * eb)
    counters.compute(spec.macs)
    return counters


def cudnn_blocks(spec: ConvSpec, gemm_tile: int = _GEMM_TILE) -> int:
    """Thread blocks a library GEMM launches for this layer.

    Grouped (DW) convolutions launch roughly one block per channel group;
    dense GEMMs launch the 2-D blocking grid.
    """
    n = spec.out_h * spec.out_w
    if spec.kind is ConvKind.DEPTHWISE:
        return spec.in_channels * ceil_div(n, gemm_tile * gemm_tile)
    return ceil_div(spec.out_channels, gemm_tile) * ceil_div(n, gemm_tile)


def cudnn_timing(
    spec: ConvSpec, algo: CudnnAlgo, gpu: GpuSpec, gemm_tile: int = _GEMM_TILE
) -> KernelTiming:
    """Roofline timing of one single-image cuDNN launch (:func:`cudnn_batched`
    at batch 1)."""
    return cudnn_batched(spec, algo, gpu, 1, gemm_tile)[1]


def cudnn_batched(
    spec: ConvSpec,
    algo: CudnnAlgo,
    gpu: GpuSpec,
    batch: int,
    gemm_tile: int = _GEMM_TILE,
) -> tuple[AccessCounters, KernelTiming]:
    """Counters + timing of one cuDNN launch covering ``batch`` images, with
    the algorithm's efficiency knobs.

    Occupancy matters: a launch with fewer blocks than SMs leaves compute
    idle in proportion and loses memory-level parallelism roughly with the
    square root of the occupancy deficit — this is why library GEMMs cannot
    simply choose enormous blocking on the paper's small-HW layers.  Batching
    helps library kernels twice: weights are re-streamed from L2 rather than
    DRAM for images beyond the first, and the launch grid grows
    ``batch``-fold, lifting the occupancy of the small-grid layers.
    """
    counters = cudnn_counters(spec, algo, gemm_tile=gemm_tile).batched(
        batch, spec.weights_bytes
    )
    prof = _PROFILES[(algo, spec.kind is ConvKind.DEPTHWISE)]
    occ = min(1.0, batch * cudnn_blocks(spec, gemm_tile) / gpu.sm_count)
    timing = time_kernel(
        counters,
        gpu,
        spec.dtype,
        utilization=prof.utilization * occ,
        bandwidth_efficiency=prof.bandwidth_efficiency * occ**0.5,
    )
    return counters, timing


def best_cudnn_algo(spec: ConvSpec, gpu: GpuSpec) -> tuple[CudnnAlgo, KernelTiming]:
    """The fastest of the three algorithms for this layer on this GPU."""
    choices = [(cudnn_timing(spec, a, gpu).t_total_s, a) for a in CudnnAlgo]
    t, algo = min(choices, key=lambda x: x[0])
    del t
    return algo, cudnn_timing(spec, algo, gpu)


def run_cudnn(
    params: LayerParams,
    ifm: np.ndarray,
    algo: CudnnAlgo,
    gpu: GpuSpec,
    gemm_tile: int = _GEMM_TILE,
) -> tuple[np.ndarray, AccessCounters, KernelTiming]:
    """Execute one layer functionally with cuDNN-modelled accounting.

    The convolution itself goes through the im2col/GEMM oracles (explicit
    algorithm) or the direct reference (implicit ones) — numerically
    identical — and its tail through the layer's ``ConvEpilogue``, like
    every simulated kernel; the counters/timing come from the traffic model.
    """
    spec = params.spec
    if ifm.shape != spec.ifm.shape:
        raise ShapeError(f"{spec.name}: IFM shape {ifm.shape} != {spec.ifm.shape}")
    if spec.kind is ConvKind.DEPTHWISE:
        acc = depthwise_via_im2col(ifm, params.weights, spec.stride, spec.padding)
    elif spec.kind is ConvKind.POINTWISE:
        w4 = params.weights.reshape(spec.out_channels, spec.in_channels, 1, 1)
        acc = conv_via_im2col(ifm, w4, spec.stride, 0)
    else:
        acc = (
            conv_via_im2col(ifm, params.weights, spec.stride, spec.padding)
            if algo is CudnnAlgo.GEMM
            else conv2d_standard(ifm, params.weights, spec.stride, spec.padding)
        )
    out = params.epilogue.apply(acc, 0, acc.shape[0], spec.dtype)
    counters, timing = cudnn_batched(spec, algo, gpu, 1, gemm_tile)
    return out, counters, timing
