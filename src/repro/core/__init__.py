"""Core primitives: dtypes, reference operators, tiling math, quantization, FCM taxonomy."""

from .chain import FusedChain, composed_receptive_field
from .dtypes import DType
from .fcm import FcmType, candidate_fcm_types
from .ops import (
    ACTIVATIONS,
    apply_activation,
    apply_norm,
    conv2d_depthwise,
    conv2d_pointwise,
    conv2d_standard,
    exact_matmul,
    fold_batchnorm,
    out_dim,
)
from .quantize import (
    QuantParams,
    choose_scale,
    dequantize,
    dp4a_dot,
    pack_int8x4,
    quantize,
    requantize,
    unpack_int8x4,
)
from .tensor import FeatureMapSpec, TensorSpec
from .tiling import (
    DwTiling,
    PwTiling,
    ceil_div,
    input_extent,
    overlap_elements,
    tile_input_range,
)

__all__ = [
    "DType",
    "FusedChain",
    "composed_receptive_field",
    "FcmType",
    "candidate_fcm_types",
    "ACTIVATIONS",
    "apply_activation",
    "apply_norm",
    "conv2d_depthwise",
    "conv2d_pointwise",
    "conv2d_standard",
    "exact_matmul",
    "fold_batchnorm",
    "out_dim",
    "QuantParams",
    "choose_scale",
    "dequantize",
    "dp4a_dot",
    "pack_int8x4",
    "quantize",
    "requantize",
    "unpack_int8x4",
    "FeatureMapSpec",
    "TensorSpec",
    "DwTiling",
    "PwTiling",
    "ceil_div",
    "input_extent",
    "overlap_elements",
    "tile_input_range",
]
