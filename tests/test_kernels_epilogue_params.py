"""Epilogue and parameter-generation coverage beyond the kernel paths."""

from __future__ import annotations

import numpy as np
import pytest

from helpers import dw_spec, pw_spec
from repro.core.dtypes import DType
from repro.core.ops import apply_activation
from repro.core.quantize import QuantParams
from repro.errors import ShapeError, UnsupportedError
from repro.kernels.epilogue import ConvEpilogue
from repro.kernels.params import chain_quant, make_layer_params


class TestConvEpilogue:
    def test_fp32_norm_and_act(self, rng):
        scale = np.array([2.0, 0.5], dtype=np.float32)
        shift = np.array([1.0, -1.0], dtype=np.float32)
        epi = ConvEpilogue(norm_scale=scale, norm_shift=shift, activation="relu")
        acc = rng.standard_normal((2, 5)).astype(np.float32)
        out = epi.apply(acc, 0, 2, DType.FP32)
        want = np.maximum(acc * scale[:, None] + shift[:, None], 0)
        np.testing.assert_allclose(out, want, rtol=1e-6)
        assert out.dtype == np.float32

    def test_channel_slice(self, rng):
        scale = np.arange(1, 9, dtype=np.float32)
        shift = np.zeros(8, dtype=np.float32)
        epi = ConvEpilogue(norm_scale=scale, norm_shift=shift, activation=None)
        acc = np.ones((2, 3), dtype=np.float32)
        out = epi.apply(acc, 4, 6, DType.FP32)
        np.testing.assert_allclose(out[:, 0], [5.0, 6.0])

    def test_slice_mismatch_rejected(self):
        epi = ConvEpilogue(
            norm_scale=np.ones(8, np.float32), norm_shift=np.zeros(8, np.float32)
        )
        with pytest.raises(ShapeError):
            epi.apply(np.ones((3, 2), np.float32), 0, 2, DType.FP32)

    def test_norm_pair_required(self):
        with pytest.raises(ShapeError):
            ConvEpilogue(norm_scale=np.ones(2, np.float32), norm_shift=None)

    def test_int8_requires_scales(self):
        epi = ConvEpilogue(activation=None)
        with pytest.raises(UnsupportedError):
            epi.apply(np.ones((2, 2), np.int32), 0, 2, DType.INT8)

    def test_int8_saturates(self):
        epi = ConvEpilogue(
            activation=None,
            in_scale=QuantParams(1.0),
            w_scale=QuantParams(1.0),
            out_scale=QuantParams(1.0),
        )
        acc = np.array([[10**6, -(10**6)]], dtype=np.int32)
        out = epi.apply(acc, 0, 1, DType.INT8)
        np.testing.assert_array_equal(out, [[127, -128]])

    @pytest.mark.parametrize("dtype", [DType.FP32, DType.INT8], ids=["fp32", "int8"])
    @pytest.mark.parametrize("norm", [False, True], ids=["plain", "norm"])
    @pytest.mark.parametrize("activation", ["identity", "relu", "relu6", "hswish", "gelu"])
    def test_equals_out_of_place_and_keeps_acc(self, rng, dtype, norm, activation):
        """Bit-identical to the out-of-place expression; ``acc`` unchanged."""
        c = 3
        scale = rng.uniform(0.5, 2.0, c).astype(np.float32) if norm else None
        shift = rng.standard_normal(c).astype(np.float32) if norm else None
        int8 = dtype is DType.INT8
        quant = {
            "in_scale": QuantParams(0.02),
            "w_scale": QuantParams(0.01),
            "out_scale": QuantParams(0.05),
        } if int8 else {}
        epi = ConvEpilogue(scale, shift, activation, **quant)
        if int8:
            acc = rng.integers(-20000, 20000, (c, 4, 5)).astype(np.int32)
            x = acc.astype(np.float64) * epi.dequant_multiplier()
        else:
            acc = 4 * rng.standard_normal((c, 4, 5)).astype(np.float32)
            x = acc
        if norm:
            x = x * scale[:, None, None] + shift[:, None, None]
        x = apply_activation(x, activation)
        if int8:
            want = np.clip(np.rint(x / 0.05), -128, 127).astype(np.int8)
        else:
            want = x.astype(np.float32)
        before = acc.copy()
        out = epi.apply(acc, 0, c, dtype)
        np.testing.assert_array_equal(acc, before)
        assert out.dtype == want.dtype
        np.testing.assert_array_equal(out, want)


class TestLayerParams:
    def test_deterministic_per_seed(self):
        spec = pw_spec()
        a = make_layer_params(spec, seed=3)
        b = make_layer_params(spec, seed=3)
        c = make_layer_params(spec, seed=4)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert not np.array_equal(a.weights, c.weights)

    def test_weight_shapes(self):
        assert make_layer_params(pw_spec(c_in=8, c_out=16)).weights.shape == (16, 8)
        assert make_layer_params(dw_spec(c=8, kernel=5)).weights.shape == (8, 5, 5)

    def test_int8_weights_are_int8(self):
        p = make_layer_params(pw_spec(dtype=DType.INT8))
        assert p.weights.dtype == np.int8
        assert p.epilogue.is_quantized
        assert p.out_scale is not None and p.out_scale.scale > 0

    def test_chain_quant_links_scales(self):
        p1 = make_layer_params(pw_spec("a", dtype=DType.INT8))
        p2 = chain_quant(p1, dw_spec("b", c=16, dtype=DType.INT8))
        assert p2.in_scale is p1.out_scale

    def test_chain_quant_fp32_noop(self):
        p1 = make_layer_params(pw_spec("a"))
        p2 = chain_quant(p1, dw_spec("b", c=16))
        assert p2.in_scale is None and p2.out_scale is None

    def test_no_norm_layer(self):
        p = make_layer_params(pw_spec(norm=False))
        assert p.epilogue.norm_scale is None
