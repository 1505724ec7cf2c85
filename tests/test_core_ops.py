"""Unit + property tests for the reference convolution operators."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import int32_conv2d
from repro.core.ops import (
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
from repro.errors import ShapeError


class TestOutDim:
    def test_basic(self):
        assert out_dim(112, 3, 2, 1) == 56
        assert out_dim(224, 3, 2, 1) == 112
        assert out_dim(14, 3, 1, 1) == 14
        assert out_dim(299, 3, 2, 0) == 149

    def test_kernel_one(self):
        assert out_dim(10, 1, 1, 0) == 10
        assert out_dim(10, 1, 2, 0) == 5

    def test_invalid(self):
        with pytest.raises(ShapeError):
            out_dim(0, 3, 1, 1)
        with pytest.raises(ShapeError):
            out_dim(10, 3, 0, 1)
        with pytest.raises(ShapeError):
            out_dim(2, 5, 1, 0)


class TestStandardConv:
    def test_identity_filter(self, rng):
        x = rng.standard_normal((3, 6, 6)).astype(np.float32)
        w = np.zeros((3, 3, 1, 1), dtype=np.float32)
        for i in range(3):
            w[i, i, 0, 0] = 1.0
        np.testing.assert_allclose(conv2d_standard(x, w), x, rtol=1e-6)

    def test_matches_manual_small(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 4, 4)
        w = np.ones((1, 1, 2, 2), dtype=np.float32)
        y = conv2d_standard(x, w)
        assert y.shape == (1, 3, 3)
        assert y[0, 0, 0] == x[0, 0, 0] + x[0, 0, 1] + x[0, 1, 0] + x[0, 1, 1]

    def test_stride_and_padding_shape(self, rng):
        x = rng.standard_normal((2, 9, 9)).astype(np.float32)
        w = rng.standard_normal((4, 2, 3, 3)).astype(np.float32)
        assert conv2d_standard(x, w, stride=2, padding=1).shape == (4, 5, 5)

    def test_int_accumulates_int32(self, rng):
        x = rng.integers(-128, 128, (2, 5, 5)).astype(np.int8)
        w = rng.integers(-128, 128, (3, 2, 3, 3)).astype(np.int8)
        y = conv2d_standard(x, w, padding=1)
        assert y.dtype == np.int32
        np.testing.assert_array_equal(y, int32_conv2d(x, w, padding=1))

    @pytest.mark.parametrize("c", [2, 128], ids=["float32-gemm", "float64-gemm"])
    def test_int_values_at_int8_extremes(self, rng, c):
        """Operands at the int8 extremes, at a reduction depth each side of
        the float32 limit (2 * 9 and 128 * 9 = 1152 > 1024)."""
        x = rng.choice(np.array([-128, -127, 127], dtype=np.int8), (c, 6, 6))
        w = rng.choice(np.array([-128, -127, 127], dtype=np.int8), (3, c, 3, 3))
        for stride, padding in ((1, 1), (2, 0)):
            y = conv2d_standard(x, w, stride, padding)
            assert y.dtype == np.int32
            np.testing.assert_array_equal(y, int32_conv2d(x, w, stride, padding))

    def test_channel_mismatch(self, rng):
        x = rng.standard_normal((2, 5, 5)).astype(np.float32)
        w = rng.standard_normal((3, 4, 3, 3)).astype(np.float32)
        with pytest.raises(ShapeError):
            conv2d_standard(x, w)


class TestExactMatmul:
    """Each case checks ``exact_matmul`` against NumPy's int32 matmul."""

    @staticmethod
    def _check(w, x):
        y = exact_matmul(w, x, np.int32)
        assert y.dtype == np.int32
        np.testing.assert_array_equal(y, w.astype(np.int32) @ x.astype(np.int32))
        return y

    def test_depth_1024_sums_to_float32_limit(self):
        """Every product is 128**2: the sum is exactly 2**24."""
        w = np.full((2, 1024), -128, dtype=np.int8)
        x = np.full((1024, 3), -128, dtype=np.int8)
        assert (self._check(w, x) == 2**24).all()

    def test_depth_1025_sum_no_float32_gemm_can_return(self):
        """1024 products of 128**2 and one of 127**2: 2**24 + 16129 is odd
        and above 2**24, so a float32 GEMM would round it."""
        w = np.full((2, 1025), -128, dtype=np.int8)
        x = np.full((1025, 3), -128, dtype=np.int8)
        w[:, -1] = 127
        x[-1, :] = 127
        assert (self._check(w, x) == 2**24 + 127 * 127).all()

    def test_depth_2048_same_sign(self, rng):
        w = rng.integers(100, 128, (4, 2048)).astype(np.int8)
        x = rng.integers(100, 128, (2048, 5)).astype(np.int8)
        assert (self._check(w, x) > 2**24).all()

    def test_int16_operand(self, rng):
        """Not int8 x int8: NumPy's integer matmul, sums above 2**24."""
        w = rng.integers(2000, 3000, (3, 96)).astype(np.int16)
        x = rng.integers(-128, 128, (96, 4)).astype(np.int8)
        x[:, 0] = 127
        y = self._check(w, x)
        assert (y[:, 0] > 2**24).all()


class TestDepthwiseConv:
    def test_equals_grouped_standard(self, rng):
        """DW == a standard conv with a block-diagonal filter bank."""
        c, h, w = 4, 8, 8
        x = rng.standard_normal((c, h, w)).astype(np.float32)
        wd = rng.standard_normal((c, 3, 3)).astype(np.float32)
        ws = np.zeros((c, c, 3, 3), dtype=np.float32)
        for i in range(c):
            ws[i, i] = wd[i]
        np.testing.assert_allclose(
            conv2d_depthwise(x, wd, padding=1),
            conv2d_standard(x, ws, padding=1),
            rtol=1e-5,
        )

    def test_stride2(self, rng):
        x = rng.standard_normal((3, 8, 8)).astype(np.float32)
        wd = rng.standard_normal((3, 3, 3)).astype(np.float32)
        assert conv2d_depthwise(x, wd, stride=2, padding=1).shape == (3, 4, 4)

    def test_channel_mismatch(self, rng):
        with pytest.raises(ShapeError):
            conv2d_depthwise(
                rng.standard_normal((3, 5, 5)).astype(np.float32),
                rng.standard_normal((4, 3, 3)).astype(np.float32),
            )


class TestPointwiseConv:
    def test_equals_standard_1x1(self, rng):
        x = rng.standard_normal((5, 7, 7)).astype(np.float32)
        w = rng.standard_normal((8, 5)).astype(np.float32)
        np.testing.assert_allclose(
            conv2d_pointwise(x, w),
            conv2d_standard(x, w.reshape(8, 5, 1, 1)),
            rtol=1e-5,
        )

    def test_stride_subsamples(self, rng):
        x = rng.standard_normal((3, 8, 8)).astype(np.float32)
        w = rng.standard_normal((2, 3)).astype(np.float32)
        y = conv2d_pointwise(x, w, stride=2)
        assert y.shape == (2, 4, 4)
        np.testing.assert_allclose(y, conv2d_pointwise(x[:, ::2, ::2], w), rtol=1e-6)


class TestEpilogueOps:
    def test_fold_batchnorm_matches_direct(self, rng):
        c = 6
        x = rng.standard_normal((c, 4, 4)).astype(np.float32)
        gamma = rng.uniform(0.5, 2, c).astype(np.float32)
        beta = rng.uniform(-1, 1, c).astype(np.float32)
        mean = rng.uniform(-1, 1, c).astype(np.float32)
        var = rng.uniform(0.1, 2, c).astype(np.float32)
        scale, shift = fold_batchnorm(gamma, beta, mean, var, eps=1e-5)
        direct = gamma[:, None, None] * (x - mean[:, None, None]) / np.sqrt(
            var[:, None, None] + 1e-5
        ) + beta[:, None, None]
        np.testing.assert_allclose(apply_norm(x, scale, shift), direct, rtol=1e-4)

    def test_activations_pointwise_props(self, rng):
        x = rng.standard_normal(100).astype(np.float32)
        assert (apply_activation(x, "relu") >= 0).all()
        assert (apply_activation(x, "relu6") <= 6).all()
        np.testing.assert_array_equal(apply_activation(x, None), x)
        np.testing.assert_array_equal(apply_activation(x, "identity"), x)

    def test_unknown_activation(self):
        with pytest.raises(ShapeError):
            apply_activation(np.zeros(3), "swishh")

    def test_registry_complete(self):
        for name in ("relu", "relu6", "hswish", "gelu", "identity", None):
            assert name in ACTIVATIONS


@settings(max_examples=25, deadline=None)
@given(
    c=st.integers(1, 6),
    m=st.integers(1, 8),
    h=st.integers(3, 10),
    w=st.integers(3, 10),
    k=st.sampled_from([1, 3, 5]),
    stride=st.integers(1, 2),
)
def test_conv_linearity_property(c, m, h, w, k, stride):
    """Convolution is linear: conv(a*x + b*y) == a*conv(x) + b*conv(y)."""
    if h + 2 * (k // 2) < k or w + 2 * (k // 2) < k:
        return
    rng = np.random.default_rng(c * 1000 + m * 100 + h * 10 + w)
    pad = k // 2
    x = rng.standard_normal((c, h, w)).astype(np.float64)
    y = rng.standard_normal((c, h, w)).astype(np.float64)
    wt = rng.standard_normal((m, c, k, k)).astype(np.float64)
    lhs = conv2d_standard(2.0 * x + 3.0 * y, wt, stride, pad)
    rhs = 2.0 * conv2d_standard(x, wt, stride, pad) + 3.0 * conv2d_standard(
        y, wt, stride, pad
    )
    # conv2d_standard accumulates in fp32 for float inputs.
    np.testing.assert_allclose(lhs, rhs, rtol=1e-4, atol=1e-5)


@settings(max_examples=25, deadline=None)
@given(
    c=st.integers(1, 6),
    h=st.integers(4, 12),
    w=st.integers(4, 12),
    k=st.sampled_from([2, 3]),
    stride=st.integers(1, 2),
)
def test_depthwise_channel_independence(c, h, w, k, stride):
    """Each DW output channel depends only on its own input channel."""
    rng = np.random.default_rng(c + h * 7 + w * 13 + k)
    x = rng.standard_normal((c, h, w)).astype(np.float32)
    wt = rng.standard_normal((c, k, k)).astype(np.float32)
    base = conv2d_depthwise(x, wt, stride, k // 2)
    x2 = x.copy()
    x2[0] += 100.0  # perturb channel 0 only
    pert = conv2d_depthwise(x2, wt, stride, k // 2)
    np.testing.assert_allclose(base[1:], pert[1:], rtol=1e-5)
    assert not np.allclose(base[0], pert[0])
