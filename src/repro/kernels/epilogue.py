"""Fused convolution epilogues: normalization + activation (+ requantization).

Every kernel in the comparison (cuDNN, TVM, LBL, FCM) fuses the elementwise
tail of a convolution into the kernel itself — the FCM additionally fuses the
*next convolution*.  The epilogue is applied to the accumulator while it still
lives in registers, so it contributes MACs-worth-of-nothing to global traffic.

For INT8 the epilogue also performs the dp4a pipeline's requantization:
``int32 acc -> fp32 (in_scale * w_scale) -> norm -> act -> int8 (out_scale)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

    A quantized epilogue also keeps float64 copies of the norm affine
    (derived, not passed): its float64 working copy is normalized by them,
    so no call casts the float32 parameters again.  The cast is exact, so
    the products are the same bits.
    """

    norm_scale: np.ndarray | None = None
    norm_shift: np.ndarray | None = None
    activation: str | None = None
    in_scale: QuantParams | None = None
    w_scale: QuantParams | None = None
    out_scale: QuantParams | None = None
    _norm64: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if (self.norm_scale is None) != (self.norm_shift is None):
            raise ShapeError("norm_scale and norm_shift must be provided together")
        if self.is_quantized and self.norm_scale is not None:
            object.__setattr__(self, "_norm64", (
                np.asarray(self.norm_scale, dtype=np.float64),
                np.asarray(self.norm_shift, dtype=np.float64),
            ))

    @property
    def is_quantized(self) -> bool:
        return self.out_scale is not None

    def dequant_multiplier(self) -> float:
        """``in_scale * w_scale`` — real value per accumulator unit."""
        if self.in_scale is None or self.w_scale is None:
            raise UnsupportedError("dequant_multiplier needs int8 scales")
        return self.in_scale.scale * self.w_scale.scale

    def apply(
        self,
        acc: np.ndarray,
        ch0: int,
        ch1: int,
        dtype: DType,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Apply the epilogue to an accumulator tile.

        Args:
            acc: accumulator with out-channels on axis 0 (fp32 or int32).
            ch0, ch1: which out-channel range this tile covers (for slicing
                the per-channel norm parameters).
            dtype: storage precision of the kernel's outputs.
            out: where to write the finished tile (a kernel's output
                buffer): an array of ``acc``'s shape in the storage dtype,
                or ``None`` for a fresh one.

        Returns:
            The tile in storage dtype (fp32 or int8): ``out`` when given.

        ``acc`` is never written.  FP32 normalizes and activates straight
        into ``out``; without it, it allocates once, for the norm (a tile
        without norm or activation is returned as-is).  INT8 dequantizes
        into one float64 copy, normalizes, activates, divides, rounds and
        clips that copy in place, then narrows it into ``out`` (or a fresh
        int8 array).  GELU allocates two temporaries of its own.
        """
        # ``dst`` is where the next step writes: the INT8 working copy, or
        # ``out`` until an FP32 step has produced an array of its own.
        quantized = dtype is DType.INT8
        if quantized:
            if not self.is_quantized:
                raise UnsupportedError("INT8 kernel requires quantization scales")
            x = acc.astype(np.float64)
            x *= self.dequant_multiplier()
            dst = x
        else:
            x = acc.astype(np.float32, copy=False)
            dst = out
        if self.norm_scale is not None:
            bshape = (-1,) + (1,) * (acc.ndim - 1)
            norm_scale, norm_shift = (
                self._norm64 if quantized else (self.norm_scale, self.norm_shift)
            )
            scale = norm_scale[ch0:ch1].reshape(bshape)
            shift = norm_shift[ch0:ch1].reshape(bshape)
            if scale.shape[0] != acc.shape[0]:
                raise ShapeError(
                    f"epilogue norm slice [{ch0}:{ch1}] does not cover tile of {acc.shape[0]}"
                )
            x = np.multiply(x, scale, out=dst)
            x += shift
            dst = x
        x = apply_activation(x, self.activation, out=dst)
        if quantized:
            x /= self.out_scale.scale
            np.rint(x, out=x)
            np.clip(x, -128, 127, out=x)
            if out is None:
                return x.astype(np.int8)
            np.copyto(out, x, casting="unsafe")
            return out
        return x.astype(np.float32, copy=False)
