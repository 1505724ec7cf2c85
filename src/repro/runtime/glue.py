"""Functional + accounting semantics of non-convolutional glue nodes.

Glue ops (residual adds, pooling, attention, classifier) execute identically
in our runtime and the TVM baseline — with one deliberate exception: TVM's
injective fusion folds residual adds into the producing kernel (no extra
traffic), whereas our conv-conv-fused runtime pays for them.  That asymmetry
is the paper's explanation for TVM being closest on complex-DAG models.
"""

from __future__ import annotations

import numpy as np

from ..core.dtypes import DType
from ..core.quantize import QuantParams
from ..errors import ShapeError, UnsupportedError
from ..gpu.counters import AccessCounters
from ..ir.graph import GlueSpec

__all__ = ["apply_glue", "glue_counters"]


def _maxpool2(x: np.ndarray) -> np.ndarray:
    """3x3 stride-2 max pooling with padding 1 (the CNN downsampling pool).

    Nine shifted :func:`np.maximum` passes instead of a windowed reduction —
    the strided-view ``max`` walks a 5-D view tap by tap and is an order of
    magnitude slower at feature-map scale.
    """
    pad_val = np.iinfo(x.dtype).min if np.issubdtype(x.dtype, np.integer) else -np.inf
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1)), constant_values=pad_val)
    out_h = (xp.shape[1] - 3) // 2 + 1
    out_w = (xp.shape[2] - 3) // 2 + 1
    h_span = (out_h - 1) * 2 + 1
    w_span = (out_w - 1) * 2 + 1
    out = None
    for dk in range(3):
        for dl in range(3):
            tap = xp[:, dk : dk + h_span : 2, dl : dl + w_span : 2]
            out = tap.copy() if out is None else np.maximum(out, tap, out=out)
    return out.astype(x.dtype, copy=False)


def apply_glue(
    spec: GlueSpec,
    inputs: list[np.ndarray],
    scales: list[QuantParams | None],
    dtype: DType,
) -> tuple[np.ndarray, QuantParams | None]:
    """Execute one glue node; returns (output, output quant scale).

    INT8 residual adds dequantize both operands, add in fp32, and requantize
    onto the first operand's grid — the standard static-quantization add.
    """
    if not inputs:
        raise ShapeError(f"glue {spec.name!r} has no inputs")
    if spec.op == "add":
        if len(inputs) != 2:
            raise ShapeError(f"add glue {spec.name!r} needs exactly 2 inputs")
        a, b = inputs
        if a.shape != b.shape:
            raise ShapeError(f"add glue {spec.name!r}: shapes {a.shape} vs {b.shape}")
        if dtype is DType.INT8:
            sa = scales[0] or QuantParams(1.0)
            sb = scales[1] or QuantParams(1.0)
            real = a.astype(np.float32) * sa.scale + b.astype(np.float32) * sb.scale
            q = np.clip(np.rint(real / sa.scale), -128, 127).astype(np.int8)
            return q, sa
        return (a + b).astype(a.dtype, copy=False), scales[0]
    if spec.op == "maxpool2":
        return _maxpool2(inputs[0]), scales[0]
    if spec.op == "gap":
        x = inputs[0]
        if dtype is DType.INT8 and scales[0] is not None:
            x = x.astype(np.float32) * scales[0].scale
        return x.mean(axis=(1, 2), dtype=np.float64).astype(np.float32), None
    if spec.op in ("attention", "dense", "noop"):
        # Carried for accounting; numerically a passthrough in this substrate.
        return inputs[0], scales[0]
    raise UnsupportedError(f"unknown glue op {spec.op!r} ({spec.name})")


def glue_counters(spec: GlueSpec, dtype: DType, fused: bool = False) -> AccessCounters:
    """Traffic/compute tally of one glue node.

    ``fused=True`` (TVM's injective fusion of adds) charges nothing — the add
    happens in the producer kernel's epilogue.
    """
    counters = AccessCounters()
    if fused:
        return counters
    counters.kernel_launches = 1
    nbytes = spec.out_elements * dtype.nbytes
    if spec.op == "add":
        counters.read("glue", 2 * nbytes)
    elif spec.op == "maxpool2":
        counters.read("glue", 4 * nbytes)  # ~2x2 input pixels per output
    else:
        counters.read("glue", nbytes)
    counters.write("glue", nbytes)
    counters.compute(spec.flops // 2)  # MAC-equivalents of the node's FLOPs
    return counters
