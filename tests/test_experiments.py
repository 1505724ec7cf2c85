"""Tests of the paper-artifact harnesses (Fig. 1/6/7/8/9/10/11, Tables II/III)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dtypes import DType
from repro.experiments.fig1 import figure1
from repro.experiments.fig10_fig11 import end_to_end_point
from repro.experiments.fig6_fig7 import fcm_vs_lbl_case, figure6_7
from repro.experiments.fig8 import figure8
from repro.experiments.fig9 import figure9
from repro.experiments.fusion_cases import select_fusion_cases, table2_rows
from repro.experiments.reporting import format_table
from repro.experiments.table3 import table3
from repro.gpu.specs import GTX1660, ORIN, RTX_A4000
from repro.planner.analytic import chain_counters, lbl_counters, pair_lbl_counters


@pytest.fixture(scope="module")
def fp32_cases():
    return select_fusion_cases(DType.FP32)


@pytest.fixture(scope="module")
def int8_cases():
    return select_fusion_cases(DType.INT8)


class TestFig1:
    def test_paper_shape(self):
        std, dsc, fused = figure1()
        assert std.operations == 1.0 and std.memory_accesses == 1.0
        # DSC: ~12% of the operations (paper Fig. 1 reports 12%).
        assert 0.10 < dsc.operations < 0.14
        # DSC *raises* memory accesses; fusion brings them back down.
        assert dsc.memory_accesses > 1.2
        assert fused.memory_accesses < 1.0
        assert fused.operations == dsc.operations

    def test_fusion_saves_dsc_intermediate(self):
        _, dsc, fused = figure1()
        # The saving is exactly the intermediate round trip.
        assert fused.feature_maps < dsc.feature_maps


class TestTable2:
    def test_case_count_and_ids(self, fp32_cases, int8_cases):
        assert 8 <= len(fp32_cases) <= 12
        assert 8 <= len(int8_cases) <= 12
        assert fp32_cases[0].case_id == "F1"
        assert int8_cases[0].case_id == "F1_8"

    def test_every_model_contributes(self, fp32_cases):
        assert len({c.model for c in fp32_cases}) == 6

    def test_fp32_dominated_by_redundant_modules(self, fp32_cases):
        """Paper: the dominant FCM using FP32 is PWDW_R."""
        redundant = [c for c in fp32_cases if c.fcm_type.name == "PWDW_R"]
        assert len(redundant) > len(fp32_cases) / 2

    def test_int8_less_redundancy_than_fp32(self, fp32_cases, int8_cases):
        """Paper §VI-A: INT8 fusions have less redundant computation."""
        mean32 = np.mean([c.redundancy_ratio for c in fp32_cases])
        mean8 = np.mean([c.redundancy_ratio for c in int8_cases])
        assert mean8 < mean32

    def test_redundancy_only_on_pwdw_r(self, fp32_cases, int8_cases):
        for c in fp32_cases + int8_cases:
            if c.fcm_type.name != "PWDW_R":
                assert c.redundancy_ratio == 0.0
            else:
                assert c.redundancy_ratio > 0.0

    def test_rows_render(self):
        rows = table2_rows(DType.FP32)
        assert rows and {"case", "model", "fcm", "redundancy", "pairs"} <= set(rows[0])
        assert format_table(list(rows[0]), [list(r.values()) for r in rows])


class TestFig6Fig7:
    def test_fcm_wins_vast_majority(self, fp32_cases):
        pts = figure6_7(DType.FP32)
        wins = sum(p.speedup > 1 for p in pts)
        assert wins / len(pts) > 0.85  # paper: 67/72

    def test_every_point_has_positive_times(self):
        for p in figure6_7(DType.FP32, gpus=(GTX1660,)):
            assert p.lbl_time_s > 0 and p.fcm_time_s > 0
            assert 0 <= p.redundancy_ratio < 0.5

    def test_int8_average_not_worse(self):
        """Paper: INT8 average speedup >= FP32's."""
        s32 = np.mean([p.speedup for p in figure6_7(DType.FP32)])
        s8 = np.mean([p.speedup for p in figure6_7(DType.INT8)])
        assert s8 >= 0.9 * s32

    def test_gma_always_saved_when_faster(self):
        for p in figure6_7(DType.FP32, gpus=(ORIN,)):
            if p.speedup > 1.05:
                assert p.fcm_gma_bytes < p.lbl_gma_bytes

    def test_single_case_api(self, fp32_cases):
        p = fcm_vs_lbl_case(fp32_cases[0], RTX_A4000)
        assert p is not None and p.gpu == "RTX"


class TestFig8:
    def test_bars_normalized_to_lbl(self):
        bars = figure8(gpus=(GTX1660,))
        by_case = {}
        for b in bars:
            by_case.setdefault((b.case_id, b.gpu), {})[b.variant] = b
        for (case, _gpu), d in by_case.items():
            assert d["LBL"].total == pytest.approx(1.0)
            assert d["FCM"].total < 1.0, f"{case}: fusion must cut GM time"
            for b in d.values():
                assert b.read_share >= 0 and b.write_share >= 0

    def test_fcm_cuts_writes(self):
        """The intermediate's store disappears in every fused case."""
        bars = figure8(gpus=(RTX_A4000,))
        by_case = {}
        for b in bars:
            by_case.setdefault(b.case_id, {})[b.variant] = b
        for case, d in by_case.items():
            assert d["FCM"].write_share < d["LBL"].write_share, case


class TestFig9:
    @pytest.fixture(scope="class")
    def points(self):
        return figure9(gpus=(GTX1660, RTX_A4000))

    def test_implicit_beats_explicit(self, points):
        for p in points:
            assert p.implicit_gemm_speedup > p.gemm_speedup

    def test_ours_beats_best_cudnn(self, points):
        """Paper §VI-B: LBL outperforms cuDNN in all cases; FCM more so."""
        assert all(p.lbl_speedup > 1 for p in points)
        assert all(p.fcm_speedup >= p.lbl_speedup * 0.95 for p in points)

    def test_headline_gma_savings(self, points):
        """Paper: LBL saves up to 63%, FCM up to 83% of GMA vs cuDNN."""
        assert 0.4 < max(p.lbl_gma_saving for p in points) < 0.75
        assert 0.7 < max(p.fcm_gma_saving for p in points) < 0.95


class TestTable3:
    def test_rows_cover_cases_and_gpus(self):
        rows = table3()
        assert {r.gpu for r in rows} == {"GTX", "RTX"}
        for r in rows:
            assert r.lbl_first_bound in "CM" and r.fcm_bound in "CM"

    def test_memory_bound_lbl_majority(self):
        """DW/PW LBL kernels are mostly memory-bound (paper Table III)."""
        rows = table3()
        lbl_bounds = [r.lbl_first_bound for r in rows] + [
            r.lbl_second_bound for r in rows
        ]
        assert lbl_bounds.count("M") > len(lbl_bounds) / 2

    def test_fusion_shifts_toward_compute(self):
        """Fusing removes traffic: some M,M pairs become C (paper's GTX story)."""
        rows = table3()
        flips = [
            r for r in rows
            if r.lbl_first_bound == r.lbl_second_bound == "M" and r.fcm_bound == "C"
        ]
        assert flips


class TestEndToEnd:
    @pytest.mark.parametrize("model", ["mobilenet_v1", "mobilenet_v2"])
    def test_we_beat_tvm(self, model):
        p = end_to_end_point(model, GTX1660, DType.FP32)
        assert p.speedup_vs_tvm > 1.0
        assert p.energy_vs_tvm < 1.0
        assert 0 < p.fused_fraction < 1

    def test_energy_savings_exceed_latency_savings(self):
        """Paper §VI-C: normalized energy < 1/speedup on average."""
        pts = [
            end_to_end_point(m, ORIN, DType.FP32)
            for m in ("mobilenet_v1", "mobilenet_v2")
        ]
        mean_energy = np.mean([p.energy_vs_tvm for p in pts])
        mean_inv_speedup = np.mean([1 / p.speedup_vs_tvm for p in pts])
        assert mean_energy <= mean_inv_speedup + 0.05


class TestAnalyticCounters:
    def test_pair_merge(self):
        from helpers import dw_spec, pw_spec

        pw = pw_spec(c_in=8, c_out=16, h=12, w=12)
        dw = dw_spec(c=16, h=12, w=12)
        a = lbl_counters(pw, {"tile_m": 8, "tile_hw": 36})
        b = lbl_counters(dw, {"tile_c": 8, "tile_h": 4, "tile_w": 4})
        pair = pair_lbl_counters(
            pw, dw, {"tile_m": 8, "tile_hw": 36}, {"tile_c": 8, "tile_h": 4, "tile_w": 4}
        )
        assert pair.total_bytes == a.total_bytes + b.total_bytes
        assert pair.kernel_launches == 2

    def test_fcm_counters_track_redundancy(self):
        from helpers import dw_spec, pw_spec

        pw = pw_spec(c_in=8, c_out=16, h=12, w=12)
        dw = dw_spec(c=16, h=12, w=12)
        c = chain_counters((pw, dw), {"tile_f": 8, "tile_h": 4, "tile_w": 4})
        assert c.redundant_macs > 0 and c.kernel_launches == 1
