"""Table III — roofline classification of LBL and FCM kernels (GTX, RTX).

For each FP32 fusion case the paper marks, per GPU, whether each constituent
LBL kernel and the fused kernel are compute- ('C') or memory-bound ('M').
Patterns to reproduce: most LBL DW/PW kernels are memory-bound; fusion turns
several memory-bound pairs compute-bound on the smaller GPU (GTX) — the
paper's explanation for GTX's lower speedups — while more cases stay
memory-bound on RTX.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.dtypes import DType
from ..gpu.roofline import time_kernel
from ..gpu.specs import GTX1660, RTX_A4000, GpuSpec
from .fusion_cases import case_runs, select_fusion_cases

__all__ = ["BoundRow", "table3"]


@dataclass(frozen=True)
class BoundRow:
    """One Table III cell group: LBL pair bounds + FCM bound."""

    case_id: str
    gpu: str
    lbl_first_bound: str
    lbl_second_bound: str
    fcm_bound: str

    @property
    def lbl_label(self) -> str:
        return f"{self.lbl_first_bound}, {self.lbl_second_bound}"


def table3(
    gpus: tuple[GpuSpec, ...] = (GTX1660, RTX_A4000), dtype: DType = DType.FP32
) -> list[BoundRow]:
    """Classify the kernels of every fusion case selected on all three GPUs
    on the requested GPUs."""
    return [
        BoundRow(
            run.case.case_id,
            run.gpu.name,
            *(time_kernel(c, run.gpu, dtype).bound for c in (*run.lbl, run.fused)),
        )
        for run in case_runs(select_fusion_cases(dtype), gpus)
    ]
