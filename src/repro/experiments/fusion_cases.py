"""Fusion-case selection — regenerating the paper's Table II.

Paper §V-B: "We do a fine-grained evaluation using pairs of layers, or fusion
cases, from these DNNs that FusePlanner suggested.  These cases represent the
scenarios where FusePlanner suggests the same fusion type across the three
GPUs" — two cases per DNN, 12 per precision (F1-F12 for FP32, F1_8-F12_8 for
INT8).  A case may stand for several identical pairs (replicated blocks); the
``multiplicity`` field records that.

This module reruns that exact selection procedure against our planner.  The
chosen layer pairs need not be literally the paper's (the paper does not name
them beyond examples), but the *distribution of module types* must reproduce
the paper's headline: FP32 dominated by PWDW_R (redundant recomputation),
INT8 dominated by redundancy-free modules (DWPW/PWDW/PWPW) because halved
elements double the feasible tile extents (§VI-A).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.dtypes import DType
from ..core.fcm import FcmType
from ..gpu.specs import ALL_GPUS, GpuSpec
from ..ir.layers import ConvSpec
from ..models.zoo import MODELS, PAPER_LABELS, build_model
from ..planner.plan import ChainStep
from ..planner.planner import FusePlanner

__all__ = ["FusionCase", "select_fusion_cases", "table2_rows"]

#: Model order of the paper's Table II columns (two cases per model).
_CASE_MODEL_ORDER = (
    "mobilenet_v1",
    "mobilenet_v2",
    "xception",
    "proxylessnas",
    "ceit",
    "cmt",
)


@dataclass(frozen=True)
class FusionCase:
    """One Table II column: a DW/PW pair with an all-GPU-agreed FCM type."""

    case_id: str
    model: str
    first: ConvSpec
    second: ConvSpec
    fcm_type: FcmType
    redundancy_ratio: float
    multiplicity: int

    @property
    def dtype(self) -> DType:
        return self.first.dtype

    def describe(self) -> str:
        red = f"{self.redundancy_ratio:.0%}" if self.redundancy_ratio > 0 else "-"
        return (
            f"{self.case_id:6s} {PAPER_LABELS[self.model]:7s} {self.fcm_type.name:7s} "
            f"{self.first.describe()} + {self.second.describe()} "
            f"redundancy={red} x{self.multiplicity}"
        )


def _geometry_key(first: ConvSpec, second: ConvSpec) -> tuple:
    """Two pairs with this key are replicated blocks (identical hyperparams)."""
    return (
        first.kind,
        first.in_channels,
        first.out_channels,
        first.in_h,
        first.kernel,
        first.stride,
        second.kind,
        second.in_channels,
        second.out_channels,
        second.kernel,
        second.stride,
    )


def select_fusion_cases(
    dtype: DType, gpus: tuple[GpuSpec, ...] = ALL_GPUS, per_model: int = 2
) -> list[FusionCase]:
    """Run FusePlanner per model x GPU and pick all-GPU-agreeing pairs.

    Deterministic: pairs are keyed by the first layer's name; agreement
    requires the same FCM type on every GPU; within a model, distinct
    geometries are preferred and ranked by estimated savings on the first GPU.
    """
    cases: list[FusionCase] = []
    counter = 1
    suffix = "_8" if dtype is DType.INT8 else ""
    for model_name in _CASE_MODEL_ORDER:
        if model_name not in MODELS:
            continue
        graph = build_model(model_name, dtype)
        per_gpu: list[dict[str, ChainStep]] = []
        for gpu in gpus:
            plan = FusePlanner(gpu).plan(graph)
            per_gpu.append({s.first.name: s for s in plan.fcm_steps})
        # Tier 1: pairs fused on every GPU with one agreed module type.
        # Tier 2: fused on every GPU, types differ (majority type reported).
        # Tier 3: fused on at least two GPUs.  The paper's strict criterion is
        # tier 1; lower tiers only fill a model's quota of two cases so the
        # fine-grained figures keep the paper's 12-case layout.
        common = set(per_gpu[0])
        for d in per_gpu[1:]:
            common &= set(d)
        tier1 = [
            n for n in sorted(common) if len({d[n].fcm_type for d in per_gpu}) == 1
        ]
        tier2 = [n for n in sorted(common) if n not in tier1]
        seen_2plus: dict[str, int] = {}
        for d in per_gpu:
            for n in d:
                seen_2plus[n] = seen_2plus.get(n, 0) + 1
        tier3 = [
            n
            for n in sorted(seen_2plus)
            if seen_2plus[n] >= 2 and n not in common
        ]
        # Count replicated geometries, keep one representative each, tiered.
        by_geom: dict[tuple, tuple[int, list[str]]] = {}
        for tier, names in enumerate((tier1, tier2, tier3)):
            for name in names:
                step = next(d[name] for d in per_gpu if name in d)
                key = _geometry_key(step.first, step.second)
                if key not in by_geom:
                    by_geom[key] = (tier, [])
                if by_geom[key][0] == tier:
                    by_geom[key][1].append(name)
        ranked = sorted(
            by_geom.values(),
            key=lambda tn: (
                tn[0],
                -next(d[tn[1][0]] for d in per_gpu if tn[1][0] in d).est_savings_bytes,
            ),
        )
        for _tier, names in ranked[:per_model]:
            step = next(d[names[0]] for d in per_gpu if names[0] in d)
            cases.append(
                FusionCase(
                    case_id=f"F{counter}{suffix}",
                    model=model_name,
                    first=step.first,
                    second=step.second,
                    fcm_type=step.fcm_type,
                    redundancy_ratio=step.redundancy_ratio,
                    multiplicity=len(names),
                )
            )
            counter += 1
    return cases


def table2_rows(dtype: DType) -> list[dict[str, str]]:
    """Table II: case id, model, FCM type, redundancy ratio."""
    rows = []
    for case in select_fusion_cases(dtype):
        rows.append(
            {
                "case": case.case_id,
                "model": PAPER_LABELS[case.model],
                "fcm": case.fcm_type.name,
                "redundancy": (
                    f"{case.redundancy_ratio:.0%}" if case.redundancy_ratio > 0 else "-"
                ),
                "pairs": str(case.multiplicity),
            }
        )
    return rows
