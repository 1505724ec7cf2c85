"""FCM global-memory-access estimators (paper §IV-B, Eq. 4 and derivatives).

Two key differences from the layer-by-layer estimators (paper §IV-B): the
intermediate feature maps never touch global memory, and each fused layer's
accesses depend on the other's tiling.  Eq. 4 is given for PWDW_R; "the
equations of the other FCMs are constructed from the PW and DW Equations 2
and 3 similarly".  Every FCM is the length-2 chain under its own tiling
vocabulary, so each function here is a pair check plus one call into
:mod:`repro.planner.chain_costs`, whose ``measured`` convention matches the
simulated kernels byte-for-byte.

Feasibility adds the fused constraints: the working set incl. commBuffer
within L1, the commBuffer within the shared partition, and at least #SMs
blocks.
"""

from __future__ import annotations

from typing import Mapping

from ..core.chain import FusedChain
from ..core.fcm import FcmType
from ..errors import ShapeError
from ..gpu.specs import GpuSpec
from ..ir.layers import ConvSpec
from .chain_costs import (
    FCM_TILING_KEYS,
    FcmCost,
    chain_feasible,
    chain_footprints,
    chain_gma,
)

__all__ = [
    "FcmCost",
    "fcm_chain",
    "fcm_gma",
    "fcm_feasible",
    "fcm_footprints",
]


def fcm_chain(
    fcm_type: FcmType,
    first: ConvSpec,
    second: ConvSpec,
    tiling: Mapping[str, int] | None = None,
) -> FusedChain:
    """The length-2 chain one FCM fuses, after the pair checks.

    The layers must be the type's kinds in order, connect shape-wise and
    share one precision; a ``tiling`` must speak the type's vocabulary
    (:data:`~repro.planner.chain_costs.FCM_TILING_KEYS`).
    """
    kinds = (fcm_type.first_kind, fcm_type.second_kind)
    if (first.kind.short, second.kind.short) != kinds:
        raise ShapeError(
            f"{fcm_type}: expected {kinds[0]}->{kinds[1]}, "
            f"got {first.kind.short}->{second.kind.short}"
        )
    if tiling is not None and set(tiling) != set(FCM_TILING_KEYS[fcm_type]):
        raise ShapeError(
            f"{fcm_type}: tiling keys {sorted(tiling)} != {list(FCM_TILING_KEYS[fcm_type])}"
        )
    return FusedChain((first, second))


def fcm_gma(
    fcm_type: FcmType,
    first: ConvSpec,
    second: ConvSpec,
    tiling: Mapping[str, int],
    convention: str = "paper",
) -> FcmCost:
    """Estimate the global memory accesses of one FCM configuration."""
    return chain_gma(fcm_chain(fcm_type, first, second, tiling), tiling, convention)


def fcm_footprints(
    fcm_type: FcmType, first: ConvSpec, second: ConvSpec, tiling: Mapping[str, int]
) -> tuple[int, int, int]:
    """(L1 working set, shared-memory need, #blocks) of a configuration."""
    return chain_footprints(fcm_chain(fcm_type, first, second, tiling), tiling)


def fcm_feasible(
    fcm_type: FcmType,
    first: ConvSpec,
    second: ConvSpec,
    tiling: Mapping[str, int],
    gpu: GpuSpec,
) -> bool:
    """Eq. 4 constraints: L1 fit (incl. commBuffer), shared fit, >= #SMs blocks."""
    return chain_feasible(fcm_chain(fcm_type, first, second, tiling), tiling, gpu)
