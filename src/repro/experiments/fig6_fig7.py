"""Figures 6 & 7 — FCM speedup over layer-by-layer execution.

For every Table II fusion case on every GPU: time the two-kernel LBL
execution (FusePlanner-minimal tilings, two launches) against the single
fused kernel, both through the roofline over exact analytic counters.
Paper findings to reproduce in shape: FCMs win in the large majority of the
72 experiments; FP32 max ~1.6x / avg ~1.3x, INT8 max ~1.8x / avg ~1.4x; a
few slowdown cases exist, concentrated on the GPU with the smallest
L1/shared per-SM budget.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.dtypes import DType
from ..gpu.roofline import time_kernel
from ..gpu.specs import ALL_GPUS, GpuSpec
from .fusion_cases import case_runs, select_fusion_cases

__all__ = ["SpeedupPoint", "figure6_7"]


@dataclass(frozen=True)
class SpeedupPoint:
    """One bar of Fig. 6/7: a fusion case on one GPU."""

    case_id: str
    gpu: str
    fcm_type: str
    lbl_time_s: float
    fcm_time_s: float
    lbl_gma_bytes: int
    fcm_gma_bytes: int
    redundancy_ratio: float

    @property
    def speedup(self) -> float:
        return self.lbl_time_s / self.fcm_time_s

    @property
    def gma_saving(self) -> float:
        return 1.0 - self.fcm_gma_bytes / self.lbl_gma_bytes


def figure6_7(
    dtype: DType, gpus: tuple[GpuSpec, ...] = ALL_GPUS
) -> list[SpeedupPoint]:
    """All speedup points of Fig. 6 (FP32) or Fig. 7 (INT8)."""
    points: list[SpeedupPoint] = []
    for run in case_runs(select_fusion_cases(dtype, gpus), gpus):
        c_lbl = run.lbl_pair
        t_lbl = time_kernel(c_lbl, run.gpu, dtype)
        t_fcm = time_kernel(run.fused, run.gpu, dtype)
        points.append(
            SpeedupPoint(
                case_id=run.case.case_id,
                gpu=run.gpu.name,
                fcm_type=run.step.fcm_type.name,
                lbl_time_s=t_lbl.t_total_s,
                fcm_time_s=t_fcm.t_total_s,
                lbl_gma_bytes=c_lbl.total_bytes,
                fcm_gma_bytes=run.fused.total_bytes,
                redundancy_ratio=run.fused.redundancy_ratio,
            )
        )
    return points
