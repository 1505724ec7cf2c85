"""Figure 8 — global-memory access time, loads/stores split, FCM vs LBL.

The paper normalizes every bar to the LBL execution's total global-memory
time and splits each into read (load) and write (store) shares, on GTX and
RTX with FP32.  Fusion's signature is visible in both components: stores
drop because the intermediate is never written back; loads drop because it
is never re-read (minus the halo-recompute overhead of PWDW_R cases).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.dtypes import DType
from ..gpu.roofline import time_kernel
from ..gpu.specs import GTX1660, RTX_A4000, GpuSpec
from .fusion_cases import case_runs, select_fusion_cases

__all__ = ["GmaTimeBar", "figure8"]


@dataclass(frozen=True)
class GmaTimeBar:
    """One stacked bar: read/write GM time normalized to the LBL total."""

    case_id: str
    gpu: str
    variant: str  # 'LBL' | 'FCM'
    read_share: float
    write_share: float

    @property
    def total(self) -> float:
        return self.read_share + self.write_share


def figure8(
    gpus: tuple[GpuSpec, ...] = (GTX1660, RTX_A4000), dtype: DType = DType.FP32
) -> list[GmaTimeBar]:
    """Compute all Fig. 8 bars (paper uses GTX and RTX at FP32) for the
    cases selected on all three GPUs."""
    bars: list[GmaTimeBar] = []
    for run in case_runs(select_fusion_cases(dtype), gpus):
        t_lbl = time_kernel(run.lbl_pair, run.gpu, dtype)
        t_fcm = time_kernel(run.fused, run.gpu, dtype)
        base = t_lbl.t_memory_s
        for variant, t in (("LBL", t_lbl), ("FCM", t_fcm)):
            bars.append(
                GmaTimeBar(
                    run.case.case_id, run.gpu.name, variant,
                    t.t_mem_read_s / base, t.t_mem_write_s / base,
                )
            )
    return bars
