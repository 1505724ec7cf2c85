"""Network-wide parameters with chained INT8 scales, generated on first read.

Static-quantized inference fixes every tensor's scale offline; a layer's
input scale is its producer's output scale, propagated through
scale-preserving glue (adds requantize onto their first operand's grid,
pooling is scale-invariant).  Generating parameters once per *network*
— rather than per kernel — guarantees our runtime, the LBL runtime and the
TVM baseline execute numerically identical networks, so end-to-end outputs
can be compared bit-for-bit (INT8) or to fp32 tolerance.

Analytic (counters-only) execution prices every step from shapes alone, so
a :class:`NetworkParams` handle generates nothing until something reads its
weights or scales: analytic sweeps and serving set-up never pay for tensors
they do not touch.
"""

from __future__ import annotations

from functools import cached_property

from ..core.dtypes import DType
from ..core.quantize import QuantParams
from ..ir.graph import GlueSpec, ModelGraph
from ..ir.layers import ConvSpec
from ..kernels.params import LayerParams, make_layer_params

__all__ = ["NetworkParams", "materialize_network"]

#: Scale of the quantized network input (symmetric [-1, 1] image range).
INPUT_SCALE = QuantParams(scale=1.0 / 127.0)


class NetworkParams:
    """Per-layer parameters plus the propagated activation scales.

    The first read of :attr:`layers`, :attr:`out_scales` or ``params[name]``
    generates every layer in one topological pass; later reads reuse it.
    """

    def __init__(self, graph: ModelGraph, dtype: DType, seed: int = 0) -> None:
        self.graph = graph
        self.dtype = dtype
        self.seed = seed

    @property
    def layers(self) -> dict[str, LayerParams]:
        return self._generated[0]

    @property
    def out_scales(self) -> dict[str, QuantParams | None]:
        """Activation quant scale at each node's *output* (None for FP32)."""
        return self._generated[1]

    @cached_property
    def _generated(
        self,
    ) -> tuple[dict[str, LayerParams], dict[str, QuantParams | None]]:
        layers: dict[str, LayerParams] = {}
        out_scales: dict[str, QuantParams | None] = {}

        def in_scale(name: str) -> QuantParams | None:
            preds = self.graph.predecessors(name)
            if not preds:
                return INPUT_SCALE if self.dtype is DType.INT8 else None
            return out_scales[preds[0]]

        for spec in self.graph.topological():
            if isinstance(spec, GlueSpec):
                # Scale-preserving ops propagate the first producer's scale;
                # gap/dense leave the quantized domain (fp32 head).
                if spec.op in ("gap", "dense"):
                    out_scales[spec.name] = None
                else:
                    out_scales[spec.name] = in_scale(spec.name)
                continue
            assert isinstance(spec, ConvSpec)
            spec = spec.with_dtype(self.dtype)
            params = make_layer_params(
                spec, seed=self.seed, in_scale=in_scale(spec.name)
            )
            layers[spec.name] = params
            out_scales[spec.name] = params.out_scale
        return layers, out_scales

    def __getitem__(self, name: str) -> LayerParams:
        return self.layers[name]


def materialize_network(graph: ModelGraph, dtype: DType, seed: int = 0) -> NetworkParams:
    """Deterministic weights/scales for a whole model, generated on first read."""
    return NetworkParams(graph, dtype, seed)
