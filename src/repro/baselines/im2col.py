"""Explicit im2col lowering — the substrate of the cuDNN ``GEMM`` algorithm.

cuDNN's explicit-GEMM path materializes the input-patch matrix in global
memory and then runs a plain GEMM on it; the materialization round trip is
exactly why implicit GEMM outperforms it (paper §VI-B).  The lowering here is
fully vectorized (one ``sliding_window_view`` + reshape) and is also reused by
tests as an independent oracle for the direct convolutions.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..core.ops import exact_matmul
from ..errors import ShapeError

__all__ = ["im2col", "conv_via_im2col", "depthwise_via_im2col"]


def im2col(ifm: np.ndarray, kernel: int, stride: int, padding: int) -> np.ndarray:
    """Lower ``(C, H, W)`` input to the ``(C*k*k, out_h*out_w)`` patch matrix."""
    if ifm.ndim != 3:
        raise ShapeError(f"im2col expects (C,H,W), got {ifm.shape}")
    c = ifm.shape[0]
    x = np.pad(ifm, ((0, 0), (padding, padding), (padding, padding)))
    win = sliding_window_view(x, (kernel, kernel), axis=(1, 2))[:, ::stride, ::stride]
    # (C, Ho, Wo, k, k) -> (C, k, k, Ho*Wo) -> (C*k*k, Ho*Wo)
    out_h, out_w = win.shape[1], win.shape[2]
    return (
        win.transpose(0, 3, 4, 1, 2).reshape(c * kernel * kernel, out_h * out_w).copy()
    )


def conv_via_im2col(
    ifm: np.ndarray, weights: np.ndarray, stride: int = 1, padding: int = 0
) -> np.ndarray:
    """Standard convolution as ``weights_matrix @ im2col`` (GEMM oracle).

    Args:
        weights: ``(M, C, k, k)`` filters.
    """
    m, c, kh, kw = weights.shape
    if kh != kw:
        raise ShapeError("conv_via_im2col supports square kernels")
    cols = im2col(ifm, kh, stride, padding)
    acc = np.int32 if np.issubdtype(ifm.dtype, np.integer) else np.float32
    y = exact_matmul(weights.reshape(m, c * kh * kw), cols, acc)
    out_h = (ifm.shape[1] + 2 * padding - kh) // stride + 1
    out_w = (ifm.shape[2] + 2 * padding - kw) // stride + 1
    return y.reshape(m, out_h, out_w)


def depthwise_via_im2col(
    ifm: np.ndarray, weights: np.ndarray, stride: int = 1, padding: int = 0
) -> np.ndarray:
    """Depthwise convolution as C independent ``(1 x k*k) @ (k*k x HW)`` GEMMs.

    This is exactly how a grouped-GEMM backend treats DW — one degenerate
    matrix product per channel, which is why it is so inefficient there.
    """
    c, kh, kw = weights.shape
    if kh != kw:
        raise ShapeError("depthwise_via_im2col supports square kernels")
    cols = im2col(ifm, kh, stride, padding)  # (C*k*k, HW)
    hw = cols.shape[1]
    cols3 = cols.reshape(c, kh * kw, hw)
    w2 = weights.reshape(c, 1, kh * kw)
    if np.issubdtype(ifm.dtype, np.integer):
        y = exact_matmul(w2, cols3, np.int32)[:, 0, :]
    else:
        # Floats stay on the einsum: a batched GEMM sums in another order
        # and would round FP32 outputs differently.
        y = np.einsum(
            "cik,ckj->cij", w2.astype(np.float32), cols3.astype(np.float32)
        )[:, 0, :]
    out_h = (ifm.shape[1] + 2 * padding - kh) // stride + 1
    out_w = (ifm.shape[2] + 2 * padding - kw) // stride + 1
    return y.reshape(c, out_h, out_w)
