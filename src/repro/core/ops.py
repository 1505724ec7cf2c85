"""Reference (non-tiled) convolution and epilogue operators.

These are the *golden* implementations every simulated GPU kernel is tested
against.  They are fully vectorized NumPy (``sliding_window_view`` + einsum):
no Python-level loops over pixels, views instead of copies wherever possible,
per the HPC guidance for this repo.

NumPy has no BLAS path for integer matmuls, so integer convolutions (the
INT8 dp4a pipeline) run on BLAS through :func:`exact_matmul`, the one exact
integer GEMM every kernel and baseline shares: a float GEMM chosen so that
every partial sum is an exactly representable integer.

Layout convention: single-image inference, channels-first ``(C, H, W)``.
Weights are ``(M, C, KH, KW)`` for standard convolution, ``(C, KH, KW)`` for
depthwise (one filter slice per channel) and ``(M, C)`` for pointwise
(1x1 filters spanning all channels).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import ShapeError

__all__ = [
    "out_dim",
    "exact_matmul",
    "conv2d_standard",
    "conv2d_depthwise",
    "conv2d_pointwise",
    "fold_batchnorm",
    "apply_norm",
    "apply_activation",
    "ACTIVATIONS",
]


def out_dim(size: int, kernel: int, stride: int, padding: int) -> int:
    """Output spatial extent of a convolution along one axis.

    Standard "floor" convolution arithmetic:
    ``out = floor((size + 2*padding - kernel) / stride) + 1``.
    """
    if size <= 0 or kernel <= 0 or stride <= 0 or padding < 0:
        raise ShapeError(
            f"invalid conv geometry: size={size} kernel={kernel} "
            f"stride={stride} padding={padding}"
        )
    span = size + 2 * padding - kernel
    if span < 0:
        raise ShapeError(f"kernel {kernel} larger than padded input {size + 2 * padding}")
    return span // stride + 1


def _pad_spatial(ifm: np.ndarray, padding: int) -> np.ndarray:
    """Zero-pad the two trailing (spatial) axes of a ``(C, H, W)`` tensor."""
    if padding == 0:
        return ifm
    return np.pad(ifm, ((0, 0), (padding, padding), (padding, padding)))


def _windows(ifm: np.ndarray, kh: int, kw: int, stride: int, padding: int) -> np.ndarray:
    """Strided view of all ``(kh, kw)`` input windows: ``(C, Ho, Wo, KH, KW)``."""
    x = _pad_spatial(ifm, padding)
    win = sliding_window_view(x, (kh, kw), axis=(1, 2))
    return win[:, ::stride, ::stride]


def exact_matmul(w: np.ndarray, x: np.ndarray, acc_dtype) -> np.ndarray:
    """``w @ x`` at the accumulator dtype, on BLAS wherever that is exact.

    Floating accumulators go straight to BLAS.  An integer accumulator gets
    exactly what ``w.astype(acc) @ x.astype(acc)`` returns, computed by the
    cheapest float GEMM that provably equals it: with int8 operands every
    partial sum, in any summation order, is an integer of magnitude at most
    ``K * 128**2`` (``K`` = reduction depth), so float32 is exact while that
    bound is at most ``2**24`` (``K <= 1024``) and float64 while it fits the
    accumulator (and ``2**53``).  Other integer operands, or deeper
    reductions, fall back to NumPy's integer matmul.
    """
    acc = np.dtype(acc_dtype)
    if np.issubdtype(acc, np.integer) and w.dtype == x.dtype == np.int8:
        bound = w.shape[-1] * 128 * 128
        if bound <= 2**24:
            return (w.astype(np.float32) @ x.astype(np.float32)).astype(acc)
        if bound <= min(2**53, np.iinfo(acc).max):
            return (w.astype(np.float64) @ x.astype(np.float64)).astype(acc)
    return w.astype(acc, copy=False) @ x.astype(acc, copy=False)


def conv2d_standard(
    ifm: np.ndarray, weights: np.ndarray, stride: int = 1, padding: int = 0
) -> np.ndarray:
    """Direct standard convolution.

    Args:
        ifm: input feature maps, shape ``(C, H, W)``.
        weights: filters, shape ``(M, C, KH, KW)``.
        stride: spatial stride (same for H and W).
        padding: symmetric zero padding.

    Returns:
        OFMs of shape ``(M, Ho, Wo)``.  Integer inputs accumulate in int32
        (through :func:`exact_matmul`), floating inputs in float32.
    """
    if ifm.ndim != 3 or weights.ndim != 4:
        raise ShapeError(f"expected (C,H,W) and (M,C,KH,KW), got {ifm.shape}, {weights.shape}")
    if ifm.shape[0] != weights.shape[1]:
        raise ShapeError(f"channel mismatch: ifm C={ifm.shape[0]}, weights C={weights.shape[1]}")
    m, c, kh, kw = weights.shape
    win = _windows(ifm, kh, kw, stride, padding)
    if np.issubdtype(ifm.dtype, np.integer):
        _, ho, wo, _, _ = win.shape
        # (C, Ho, Wo, KH, KW) -> (C*KH*KW, Ho*Wo), rows ordered like the
        # flattened (C, KH, KW) filters.
        cols = win.transpose(0, 3, 4, 1, 2).reshape(c * kh * kw, ho * wo)
        return exact_matmul(weights.reshape(m, -1), cols, np.int32).reshape(m, ho, wo)
    # optimize=True lowers the reduction to a BLAS contraction — an order of
    # magnitude over the naive einsum loop on stem-sized convolutions, which
    # otherwise dominates the fast engine's end-to-end floor.
    return np.einsum(
        "chwkl,mckl->mhw",
        win.astype(np.float32, copy=False),
        weights.astype(np.float32, copy=False),
        optimize=True,
    )


def conv2d_depthwise(
    ifm: np.ndarray, weights: np.ndarray, stride: int = 1, padding: int = 0
) -> np.ndarray:
    """Depthwise convolution: one ``(KH, KW)`` filter slice per input channel.

    Args:
        ifm: ``(C, H, W)`` input.
        weights: ``(C, KH, KW)`` filter slices.

    Returns:
        OFMs of shape ``(C, Ho, Wo)`` (depthwise preserves the channel count).
    """
    if ifm.ndim != 3 or weights.ndim != 3:
        raise ShapeError(f"expected (C,H,W) and (C,KH,KW), got {ifm.shape}, {weights.shape}")
    if ifm.shape[0] != weights.shape[0]:
        raise ShapeError(f"channel mismatch: ifm C={ifm.shape[0]}, weights C={weights.shape[0]}")
    win = _windows(ifm, weights.shape[1], weights.shape[2], stride, padding)
    acc = np.int32 if np.issubdtype(ifm.dtype, np.integer) else np.float32
    return np.einsum(
        "chwkl,ckl->chw", win.astype(acc, copy=False), weights.astype(acc, copy=False)
    )


def conv2d_pointwise(ifm: np.ndarray, weights: np.ndarray, stride: int = 1) -> np.ndarray:
    """Pointwise (1x1) convolution across the channel dimension.

    Args:
        ifm: ``(C, H, W)`` input.
        weights: ``(M, C)`` — each of the M filters spans all C channels.
        stride: spatial subsampling (1x1 filters need no padding/halo).

    Returns:
        OFMs of shape ``(M, Ho, Wo)``.
    """
    if ifm.ndim != 3 or weights.ndim != 2:
        raise ShapeError(f"expected (C,H,W) and (M,C), got {ifm.shape}, {weights.shape}")
    if ifm.shape[0] != weights.shape[1]:
        raise ShapeError(f"channel mismatch: ifm C={ifm.shape[0]}, weights C={weights.shape[1]}")
    x = ifm[:, ::stride, ::stride]
    acc = np.int32 if np.issubdtype(ifm.dtype, np.integer) else np.float32
    return np.tensordot(
        weights.astype(acc, copy=False), x.astype(acc, copy=False), axes=([1], [0])
    )


def fold_batchnorm(
    gamma: np.ndarray,
    beta: np.ndarray,
    mean: np.ndarray,
    var: np.ndarray,
    eps: float = 1e-5,
) -> tuple[np.ndarray, np.ndarray]:
    """Fold inference-time batch-norm statistics into a per-channel affine.

    Returns ``(scale, shift)`` such that ``norm(x) == scale * x + shift``.
    This is the standard offline transformation the paper's kernels rely on:
    the normalization layer of an FCM becomes one FMA in the epilogue.
    """
    inv_std = 1.0 / np.sqrt(var + eps)
    scale = gamma * inv_std
    shift = beta - mean * scale
    return scale.astype(np.float32), shift.astype(np.float32)


def apply_norm(x: np.ndarray, scale: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Apply a folded per-channel affine normalization to ``(C, H, W)`` data."""
    if x.shape[0] != scale.shape[0] or x.shape[0] != shift.shape[0]:
        raise ShapeError(f"norm params of {scale.shape} do not match {x.shape}")
    return x * scale[:, None, None] + shift[:, None, None]


def _relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.maximum(x, 0, out=out)


def _relu6(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.clip(x, 0, 6, out=out)


def _hswish(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    gate = x + 3.0
    np.clip(gate, 0.0, 6.0, out=gate)
    y = np.multiply(x, gate, out=gate if out is None else out)
    y /= 6.0
    return y


def _gelu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # tanh approximation, standard in ViT inference kernels:
    # 0.5 * x * (1 + tanh(sqrt(2 / pi) * (x + 0.044715 * x**3))).  The cube
    # is two products: NumPy computes ``x**3`` through libm ``pow``, ~80x
    # slower.  The constant is a NumPy float64 scalar, so a float32 ``x``
    # takes the tanh and the final product in float64.
    inner = x * x * x
    inner *= 0.044715
    inner += x
    t = np.sqrt(2.0 / np.pi) * inner
    np.tanh(t, out=t)
    t += 1.0
    half = np.multiply(x, 0.5, out=inner)
    return np.multiply(half, t, out=out)


def _identity(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    if out is None or out is x:
        return x
    np.copyto(out, x)
    return out


#: Activation registry: name -> elementwise ``fn(x, out=None)`` on float
#: arrays.  ``fn`` writes its result into ``out`` when given (``out`` may be
#: ``x`` itself), else into a fresh array (``identity`` returns ``x``).
ACTIVATIONS = {
    "relu": _relu,
    "relu6": _relu6,
    "hswish": _hswish,
    "gelu": _gelu,
    "identity": _identity,
    None: _identity,
}


def apply_activation(
    x: np.ndarray, name: str | None, out: np.ndarray | None = None
) -> np.ndarray:
    """Apply a named activation (see :data:`ACTIVATIONS`), into ``out`` if given."""
    try:
        fn = ACTIVATIONS[name]
    except KeyError:
        raise ShapeError(f"unknown activation {name!r}") from None
    return fn(x, out=out)
