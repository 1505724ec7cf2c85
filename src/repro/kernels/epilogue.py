"""Fused convolution epilogues: normalization + activation (+ requantization).

Every kernel in the comparison (cuDNN, TVM, LBL, FCM) fuses the elementwise
tail of a convolution into the kernel itself — the FCM additionally fuses the
*next convolution*.  The epilogue is applied to the accumulator while it still
lives in registers, so it contributes MACs-worth-of-nothing to global traffic.

For INT8 the epilogue also performs the dp4a pipeline's requantization:
``int32 acc -> fp32 (in_scale * w_scale) -> norm -> act -> int8 (out_scale)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.dtypes import DType
from ..core.ops import apply_activation
from ..core.quantize import QuantParams
from ..errors import ShapeError, UnsupportedError

__all__ = ["ConvEpilogue"]


@dataclass(frozen=True)
class ConvEpilogue:
    """Parameters of one convolution's folded norm/activation tail.

    Attributes:
        norm_scale / norm_shift: folded batch-norm affine per out-channel,
            or ``None`` for layers without normalization.
        activation: activation name (see :data:`repro.core.ops.ACTIVATIONS`).
        in_scale / w_scale / out_scale: symmetric quantization parameters for
            the INT8 path (``None`` for FP32 kernels).
    """

    norm_scale: np.ndarray | None = None
    norm_shift: np.ndarray | None = None
    activation: str | None = None
    in_scale: QuantParams | None = None
    w_scale: QuantParams | None = None
    out_scale: QuantParams | None = None

    def __post_init__(self) -> None:
        if (self.norm_scale is None) != (self.norm_shift is None):
            raise ShapeError("norm_scale and norm_shift must be provided together")

    @property
    def is_quantized(self) -> bool:
        return self.out_scale is not None

    def dequant_multiplier(self) -> float:
        """``in_scale * w_scale`` — real value per accumulator unit."""
        if self.in_scale is None or self.w_scale is None:
            raise UnsupportedError("dequant_multiplier needs int8 scales")
        return self.in_scale.scale * self.w_scale.scale

    def apply(self, acc: np.ndarray, ch0: int, ch1: int, dtype: DType) -> np.ndarray:
        """Apply the epilogue to an accumulator tile.

        Args:
            acc: accumulator with out-channels on axis 0 (fp32 or int32).
            ch0, ch1: which out-channel range this tile covers (for slicing
                the per-channel norm parameters).
            dtype: storage precision of the kernel's outputs.

        Returns:
            The tile in storage dtype (fp32 or int8).

        ``acc`` is never written, though an fp32 tile without norm may be
        returned as-is.  INT8 dequantizes into one float64 copy, then
        normalizes, divides, rounds and clips that copy in place; FP32
        allocates once, for the norm.
        """
        quantized = dtype is DType.INT8
        if quantized:
            if not self.is_quantized:
                raise UnsupportedError("INT8 kernel requires quantization scales")
            x = acc.astype(np.float64)
            x *= self.dequant_multiplier()
        else:
            x = acc.astype(np.float32, copy=False)
        if self.norm_scale is not None:
            bshape = (-1,) + (1,) * (acc.ndim - 1)
            scale = self.norm_scale[ch0:ch1].reshape(bshape)
            shift = self.norm_shift[ch0:ch1].reshape(bshape)
            if scale.shape[0] != acc.shape[0]:
                raise ShapeError(
                    f"epilogue norm slice [{ch0}:{ch1}] does not cover tile of {acc.shape[0]}"
                )
            if x is acc:
                x = x * scale
            else:
                x *= scale
            x += shift
        x = apply_activation(x, self.activation)
        if quantized:
            x /= self.out_scale.scale
            np.rint(x, out=x)
            np.clip(x, -128, 127, out=x)
            return x.astype(np.int8)
        return x.astype(np.float32, copy=False)
