"""Figure 9 — FCM and cuDNN algorithms, normalized to IMPLICIT_PRECOMP_GEMM.

For every FP32 fusion case on every GPU, the paper stacks the speedups of
explicit GEMM, implicit GEMM and the FCM over the best library algorithm
(IMPL_PRECOMP_GEMM), the pair executed as two library kernels.  Shape to
reproduce: implicit beats explicit GEMM, our LBL beats all three library
algorithms (max ~3x, avg ~1.5x), FCMs reach ~3.7x max / ~2x avg, and GMA
savings reach ~63% (LBL) / ~83% (FCM) versus the best cuDNN algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..baselines.cudnn import CudnnAlgo, cudnn_counters, cudnn_timing
from ..core.dtypes import DType
from ..gpu.roofline import time_kernel
from ..gpu.specs import ALL_GPUS, GpuSpec
from .fusion_cases import FusionCase, case_runs, select_fusion_cases

__all__ = ["CudnnPoint", "figure9", "cudnn_pair_time_s"]


def cudnn_pair_time_s(case: FusionCase, algo: CudnnAlgo, gpu: GpuSpec) -> float:
    """Library execution of the pair: two kernels of the given algorithm."""
    return (
        cudnn_timing(case.first, algo, gpu).t_total_s
        + cudnn_timing(case.second, algo, gpu).t_total_s
    )


def cudnn_pair_gma_bytes(case: FusionCase, algo: CudnnAlgo) -> int:
    """Library global traffic of the pair."""
    return (
        cudnn_counters(case.first, algo).total_bytes
        + cudnn_counters(case.second, algo).total_bytes
    )


@dataclass(frozen=True)
class CudnnPoint:
    """One case/GPU group of Fig. 9 (all values relative to IMPL_PRECOMP)."""

    case_id: str
    gpu: str
    gemm_speedup: float
    implicit_gemm_speedup: float
    lbl_speedup: float
    fcm_speedup: float
    lbl_gma_saving: float  # vs best cuDNN (IMPL_PRECOMP)
    fcm_gma_saving: float


def figure9(
    dtype: DType = DType.FP32, gpus: tuple[GpuSpec, ...] = ALL_GPUS
) -> list[CudnnPoint]:
    """All Fig. 9 points (paper shows FP32; INT8 is implicit via Fig. 10b)."""
    points: list[CudnnPoint] = []
    for run in case_runs(select_fusion_cases(dtype, gpus), gpus):
        case, gpu = run.case, run.gpu
        t_ref = cudnn_pair_time_s(case, CudnnAlgo.IMPLICIT_PRECOMP_GEMM, gpu)
        gma_ref = cudnn_pair_gma_bytes(case, CudnnAlgo.IMPLICIT_PRECOMP_GEMM)
        c_lbl = run.lbl_pair
        t_lbl = time_kernel(c_lbl, gpu, dtype).t_total_s
        t_fcm = time_kernel(run.fused, gpu, dtype).t_total_s
        points.append(
            CudnnPoint(
                case_id=case.case_id,
                gpu=gpu.name,
                gemm_speedup=t_ref / cudnn_pair_time_s(case, CudnnAlgo.GEMM, gpu),
                implicit_gemm_speedup=t_ref
                / cudnn_pair_time_s(case, CudnnAlgo.IMPLICIT_GEMM, gpu),
                lbl_speedup=t_ref / t_lbl,
                fcm_speedup=t_ref / t_fcm,
                lbl_gma_saving=1.0 - c_lbl.total_bytes / gma_ref,
                fcm_gma_saving=1.0 - run.fused.total_bytes / gma_ref,
            )
        )
    return points
