"""Tests for dtypes, tensor specs and the FCM taxonomy."""

from __future__ import annotations

import numpy as np
import pytest

from helpers import dw_spec, pw_spec
from repro.core.chain import FusedChain
from repro.core.dtypes import DType
from repro.core.fcm import FcmType, candidate_fcm_types
from repro.core.tensor import FeatureMapSpec, TensorSpec
from repro.errors import ShapeError, UnsupportedError
from repro.planner.chain_costs import chain_gma


class TestDType:
    def test_sizes(self):
        assert DType.FP32.nbytes == 4
        assert DType.INT8.nbytes == 1

    def test_numpy_mapping(self):
        assert DType.FP32.np_dtype == np.float32
        assert DType.INT8.np_dtype == np.int8
        assert DType.INT8.acc_dtype == np.int32
        assert DType.FP32.acc_dtype == np.float32

    def test_dp4a_throughput_ratio(self):
        assert DType.INT8.macs_per_core_cycle == 4 * DType.FP32.macs_per_core_cycle

    def test_pack_factor(self):
        assert DType.INT8.pack_factor == 4
        assert DType.FP32.pack_factor == 1


class TestTensorSpec:
    def test_sizes(self):
        t = TensorSpec((4, 8, 8), DType.FP32)
        assert t.num_elements == 256
        assert t.nbytes == 1024
        assert t.with_dtype(DType.INT8).nbytes == 256

    def test_zeros(self):
        z = TensorSpec((2, 3), DType.INT8).zeros()
        assert z.shape == (2, 3) and z.dtype == np.int8

    def test_invalid(self):
        with pytest.raises(ShapeError):
            TensorSpec((0, 3))

    def test_feature_map(self):
        f = FeatureMapSpec(16, 14, 14, DType.INT8)
        assert f.hw == 196
        assert f.nbytes == 16 * 196
        assert f.as_tensor().shape == (16, 14, 14)
        with pytest.raises(ShapeError):
            FeatureMapSpec(0, 1, 1)


class TestFcmTaxonomy:
    def test_candidate_types(self):
        assert candidate_fcm_types("dw", "pw") == (FcmType.DWPW,)
        assert set(candidate_fcm_types("pw", "dw")) == {FcmType.PWDW, FcmType.PWDW_R}
        assert candidate_fcm_types("pw", "pw") == (FcmType.PWPW,)

    def test_dw_dw_rejected(self):
        with pytest.raises(UnsupportedError):
            candidate_fcm_types("dw", "dw")

    def test_redundancy_flag(self):
        """Only PWDW_R recomputes intermediate halo values (paper Table II):
        each type's module tiled as finely as its vocabulary allows."""
        dw_pw = FusedChain((dw_spec(), pw_spec()))
        pw_dw = FusedChain((pw_spec(c_out=16), dw_spec(c=16)))
        pw_pw = FusedChain((pw_spec(), pw_spec(c_in=16)))
        modules = {
            FcmType.DWPW: (dw_pw, {"tile_h": 2, "tile_w": 2, "tile_m": 4}),
            FcmType.PWDW: (pw_dw, {"tile_f": 4}),
            FcmType.PWDW_R: (pw_dw, {"tile_f": 4, "tile_h": 2, "tile_w": 2}),
            FcmType.PWPW: (pw_pw, {"tile_hw": 4, "tile_m": 4}),
        }
        for t, (chain, tiling) in modules.items():
            assert (chain_gma(chain, tiling).redundant_macs > 0) == (t is FcmType.PWDW_R)

    def test_kind_properties(self):
        assert FcmType.DWPW.first_kind == "dw" and FcmType.DWPW.second_kind == "pw"
        assert FcmType.PWDW_R.first_kind == "pw" and FcmType.PWDW_R.second_kind == "dw"
        assert FcmType.PWPW.first_kind == "pw" and FcmType.PWPW.second_kind == "pw"
