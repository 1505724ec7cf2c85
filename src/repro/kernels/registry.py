"""Kernel registry: build LBL or FCM kernels from specs + tiling choices.

The planner emits *what* to run (fuse or not, which FCM type, which tile
sizes); this registry turns those decisions into concrete simulated kernels.
Tile-size vocabularies differ per kernel family: LBL kernels take their own
keys, and every fused module is the length-2 chain kernel under its type's
vocabulary (:data:`~repro.planner.chain_costs.FCM_TILING_KEYS`) and name.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..core.fcm import FcmType
from ..core.tiling import DwTiling, PwTiling
from ..errors import UnsupportedError
from ..ir.layers import ConvKind
from ..planner.chain_costs import FCM_TILING_KEYS
from .base import SimKernel
from .direct_dw import DwDirectKernel
from .direct_pw import PwDirectKernel
from .fused_chain import (
    DwPwFusedKernel,
    FusedChainKernel,
    PwDwFusedKernel,
    PwDwRFusedKernel,
    PwPwFusedKernel,
)
from .params import LayerParams

__all__ = ["build_lbl_kernel", "build_fcm_kernel", "build_chain_kernel"]


def build_lbl_kernel(params: LayerParams, tiling: Mapping[str, int]) -> SimKernel:
    """Build the layer-by-layer kernel for one DW or PW layer.

    ``tiling`` keys: PW -> ``tile_m``, ``tile_hw``; DW -> ``tile_c``,
    ``tile_h``, ``tile_w``.
    """
    kind = params.spec.kind
    if kind is ConvKind.POINTWISE:
        return PwDirectKernel(params, PwTiling(tiling["tile_m"], tiling["tile_hw"]))
    if kind is ConvKind.DEPTHWISE:
        return DwDirectKernel(
            params, DwTiling(tiling["tile_c"], tiling["tile_h"], tiling["tile_w"])
        )
    raise UnsupportedError(f"no direct LBL kernel for {kind} layers in this library")


#: the kernel class of each FCM: constructor-only chain kernels that check
#: their pair and carry the module's name.
_FCM_KERNELS = {
    FcmType.DWPW: DwPwFusedKernel,
    FcmType.PWDW: PwDwFusedKernel,
    FcmType.PWDW_R: PwDwRFusedKernel,
    FcmType.PWPW: PwPwFusedKernel,
}


def build_fcm_kernel(
    fcm_type: FcmType,
    first: LayerParams,
    second: LayerParams,
    tiling: Mapping[str, int],
) -> SimKernel:
    """Build a fused kernel of the given FCM type.

    ``tiling`` keys per type (:data:`~repro.planner.chain_costs.FCM_TILING_KEYS`):

    * DWPW   -> ``tile_h``, ``tile_w``, ``tile_m`` (the chain vocabulary)
    * PWDW   -> ``tile_f``
    * PWDW_R -> ``tile_f``, ``tile_h``, ``tile_w``
    * PWPW   -> ``tile_hw``, ``tile_m``
    """
    keys = FCM_TILING_KEYS[fcm_type]
    return _FCM_KERNELS[fcm_type](first, second, **{k: tiling[k] for k in keys})


def build_chain_kernel(
    stages: Sequence[LayerParams],
    tiling: Mapping[str, int],
    fcm_type: FcmType | None = None,
) -> SimKernel:
    """Build the fused kernel for a chain of any length.

    Length-2 chains carrying their pairwise ``fcm_type`` route through
    :func:`build_fcm_kernel`, which names the chain kernel after its module;
    other chains build the generic
    :class:`~repro.kernels.fused_chain.FusedChainKernel` with the chain
    vocabulary ``tile_h``/``tile_w``[/``tile_m``].
    """
    if len(stages) < 2:
        raise UnsupportedError("a fused chain kernel needs at least two stages")
    if len(stages) == 2 and fcm_type is not None:
        return build_fcm_kernel(fcm_type, stages[0], stages[1], tiling)
    return FusedChainKernel(
        stages, tiling["tile_h"], tiling["tile_w"], tiling.get("tile_m")
    )
