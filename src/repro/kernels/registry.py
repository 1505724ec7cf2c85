"""Kernel registry: build LBL or fused kernels from specs + tiling choices.

The planner emits *what* to run (fuse or not, which stages, which tile
sizes); this registry turns those decisions into concrete simulated kernels.
Tile-size vocabularies differ per kernel family: LBL kernels take their own
keys, and every fused module is the chain kernel under one of its chain's
vocabularies (:func:`~repro.planner.chain_costs.tiling_vocabulary`), named
after the FCM the stage kinds and tiling keys speak, if any.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..core.chain import FusedChain
from ..core.tiling import DwTiling, PwTiling
from ..errors import UnsupportedError
from ..ir.layers import ConvKind
from ..planner.chain_costs import fcm_type_of, tiling_vocabulary
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

__all__ = ["build_lbl_kernel", "build_chain_kernel"]


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
    cls.FCM: cls for cls in (DwPwFusedKernel, PwDwFusedKernel, PwDwRFusedKernel, PwPwFusedKernel)
}


def build_chain_kernel(stages: Sequence[LayerParams], tiling: Mapping[str, int]) -> SimKernel:
    """Build the fused kernel for a chain of any length.

    A pair whose tiling speaks an FCM builds that module's kernel class
    (``tiling`` keys per type in
    :data:`~repro.planner.chain_costs.FCM_TILING_KEYS`); any other chain
    builds the generic :class:`~repro.kernels.fused_chain.FusedChainKernel`
    with the chain vocabulary ``tile_h``/``tile_w``[/``tile_m``].  A key set
    naming no vocabulary of the chain raises :class:`~repro.errors.ShapeError`.
    """
    if len(stages) < 2:
        raise UnsupportedError("a fused chain kernel needs at least two stages")
    specs = tuple(p.spec for p in stages)
    fcm_type = fcm_type_of(specs, tiling)
    if fcm_type is not None:
        return _FCM_KERNELS[fcm_type](*stages, **tiling)
    tiling_vocabulary(FusedChain(specs), tiling)
    return FusedChainKernel(stages, **tiling)
