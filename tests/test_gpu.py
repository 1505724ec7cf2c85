"""Tests for the simulated GPU substrate: specs, counters, memory, roofline, energy."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dtypes import DType
from repro.errors import CapacityError, ShapeError, SimulationError
from repro.gpu.counters import AccessCounters
from repro.gpu.energy import energy_of
from repro.gpu.executor import launch
from repro.gpu.memory import GlobalBuffer, SharedMemory
from repro.gpu.roofline import time_kernel
from repro.gpu.specs import ALL_GPUS, GTX1660, ORIN, RTX_A4000, gpu_by_name


class TestSpecs:
    def test_table1_capacities(self):
        """Paper Table I: SMs / CUDA cores / L1 per SM / L2."""
        assert (GTX1660.sm_count, GTX1660.cuda_cores, GTX1660.l1_kb) == (22, 1408, 96)
        assert (RTX_A4000.cuda_cores, RTX_A4000.l1_kb) == (6144, 128)
        assert (ORIN.sm_count, ORIN.cuda_cores, ORIN.l1_kb) == (16, 2048, 192)
        assert GTX1660.dram == "GDDR5" and RTX_A4000.dram == "GDDR6" and ORIN.dram == "LPDDR5"

    def test_lookup(self):
        assert gpu_by_name("rtx") is RTX_A4000
        with pytest.raises(ShapeError):
            gpu_by_name("H100")

    def test_derived(self):
        assert RTX_A4000.cores_per_sm == 128
        assert GTX1660.l1_bytes == 96 * 1024
        for g in ALL_GPUS:
            assert g.shared_bytes <= g.l1_bytes
            assert g.machine_balance(DType.INT8) == pytest.approx(
                4 * g.machine_balance(DType.FP32)
            )
            assert g.pj_per_mac(DType.INT8) == pytest.approx(g.pj_per_mac_fp32 / 4)


class TestCounters:
    def test_tally_and_merge(self):
        a = AccessCounters()
        a.read("ifm", 100)
        a.write("ofm", 50)
        a.compute(1000, redundant=100)
        a.smem(16)
        b = AccessCounters()
        b.read("weights", 10)
        b.kernel_launches = 1
        a.merge(b)
        assert a.read_bytes == 110
        assert a.write_bytes == 50
        assert a.total_bytes == 160
        assert a.total_macs == 1100
        assert a.redundancy_ratio == pytest.approx(100 / 1100)
        assert a.kernel_launches == 1
        snap = a.snapshot()
        assert snap["shared_bytes"] == 16

    def test_empty_redundancy(self):
        assert AccessCounters().redundancy_ratio == 0.0


class TestGlobalBuffer:
    def test_load_store_metered(self, rng):
        c = AccessCounters()
        arr = rng.standard_normal((4, 8)).astype(np.float32)
        buf = GlobalBuffer("x", arr, "ifm", c)
        v = buf.load((slice(0, 2), slice(None)))
        assert v.shape == (2, 8)
        assert c.global_reads["ifm"] == 2 * 8 * 4
        buf.store((slice(0, 1), slice(None)), np.ones((1, 8), np.float32))
        assert c.global_writes["ifm"] == 8 * 4
        np.testing.assert_array_equal(buf.array[0], np.ones(8))

    def test_custom_elem_bytes(self, rng):
        c = AccessCounters()
        arr = rng.integers(-5, 5, (4, 4)).astype(np.int8)
        buf = GlobalBuffer("q", arr, "ifm", c, elem_bytes=1)
        buf.load((slice(None), slice(None)))
        assert c.read_bytes == 16

    def test_store_shape_mismatch(self):
        c = AccessCounters()
        buf = GlobalBuffer("x", np.zeros((2, 2), np.float32), "ofm", c)
        with pytest.raises(SimulationError):
            buf.store((slice(None), slice(None)), np.zeros(3, np.float32))


class TestSharedMemory:
    def test_alloc_and_capacity(self):
        c = AccessCounters()
        sm = SharedMemory(100, c)
        sm.alloc("a", (10,), np.float32, elem_bytes=4)
        assert sm.used_bytes == 40
        with pytest.raises(CapacityError):
            sm.alloc("b", (20,), np.float32, elem_bytes=4)
        sm.free("a")
        assert sm.used_bytes == 0
        assert sm.peak_bytes == 40

    def test_traffic_charged(self):
        c = AccessCounters()
        sm = SharedMemory(1000, c)
        sm.alloc("comm", (5,), np.float32, elem_bytes=4)
        sm.write("comm", np.ones(5, np.float32))
        out = sm.read("comm")
        np.testing.assert_array_equal(out, np.ones(5))
        assert c.shared_bytes == 2 * 20

    def test_double_alloc_and_missing(self):
        sm = SharedMemory(100, AccessCounters())
        sm.alloc("a", (2,), np.float32, 4)
        with pytest.raises(SimulationError):
            sm.alloc("a", (2,), np.float32, 4)
        with pytest.raises(SimulationError):
            sm.read("nope")


class _ToyKernel:
    """Counts blocks and allocates a fixed shared slab per block."""

    name = "toy"

    def __init__(self, blocks: int, shared_bytes: int):
        self._blocks = blocks
        self._shared = shared_bytes
        self.ran = 0

    def grid(self):
        return [(i,) for i in range(self._blocks)]

    def run_block(self, coord, shared):
        shared.alloc("slab", (self._shared,), np.int8, 1)
        self.ran += 1


class TestExecutor:
    def test_launch_counts(self, tiny_gpu):
        c = AccessCounters()
        k = _ToyKernel(blocks=9, shared_bytes=128)
        stats = launch(k, tiny_gpu, c)
        assert k.ran == 9
        assert stats.num_blocks == 9
        assert stats.waves == 3  # 9 blocks over 4 SMs
        assert stats.peak_shared_bytes == 128
        assert c.kernel_launches == 1
        assert stats.occupies_all_sms(tiny_gpu)

    def test_shared_overflow_fails_launch(self, tiny_gpu):
        k = _ToyKernel(blocks=1, shared_bytes=tiny_gpu.shared_bytes + 1)
        with pytest.raises(CapacityError):
            launch(k, tiny_gpu, AccessCounters())

    def test_empty_grid_rejected(self, tiny_gpu):
        k = _ToyKernel(blocks=0, shared_bytes=1)
        with pytest.raises(SimulationError):
            launch(k, tiny_gpu, AccessCounters())


class TestRoofline:
    def _counters(self, nbytes=1000, macs=1000):
        c = AccessCounters()
        c.read("x", nbytes // 2)
        c.write("y", nbytes - nbytes // 2)
        c.compute(macs)
        c.kernel_launches = 1
        return c

    def test_memory_bound_classification(self, tiny_gpu):
        # Tons of bytes, no compute -> memory bound.
        t = time_kernel(self._counters(nbytes=10**6, macs=10), tiny_gpu, DType.FP32)
        assert t.bound == "M"
        t2 = time_kernel(self._counters(nbytes=10, macs=10**7), tiny_gpu, DType.FP32)
        assert t2.bound == "C"

    def test_total_is_max_plus_launch(self, tiny_gpu):
        c = self._counters()
        t = time_kernel(c, tiny_gpu, DType.FP32)
        assert t.t_total_s == pytest.approx(
            max(t.t_memory_s, t.t_compute_s) + tiny_gpu.kernel_launch_us * 1e-6
        )

    def test_int8_compute_4x_faster(self, tiny_gpu):
        c = self._counters(nbytes=10, macs=10**6)
        t32 = time_kernel(c, tiny_gpu, DType.FP32)
        t8 = time_kernel(c, tiny_gpu, DType.INT8)
        assert t32.t_compute_s == pytest.approx(4 * t8.t_compute_s)

    def test_read_write_split(self, tiny_gpu):
        c = AccessCounters()
        c.read("x", 300)
        c.write("y", 100)
        t = time_kernel(c, tiny_gpu, DType.FP32)
        assert t.t_mem_read_s == pytest.approx(0.75 * t.t_memory_s)
        assert t.t_mem_write_s == pytest.approx(0.25 * t.t_memory_s)

    def test_knob_validation(self, tiny_gpu):
        with pytest.raises(ValueError):
            time_kernel(self._counters(), tiny_gpu, DType.FP32, utilization=0)
        with pytest.raises(ValueError):
            time_kernel(self._counters(), tiny_gpu, DType.FP32, bandwidth_efficiency=1.5)


class TestEnergy:
    def test_components_positive_and_additive(self, tiny_gpu):
        c = AccessCounters()
        c.read("x", 10**6)
        c.compute(10**6)
        c.smem(10**4)
        c.kernel_launches = 1
        t = time_kernel(c, tiny_gpu, DType.FP32)
        e = energy_of(c, t, tiny_gpu, DType.FP32)
        assert e.total_j == pytest.approx(e.static_j + e.dram_j + e.compute_j + e.shared_j)
        assert min(e.static_j, e.dram_j, e.compute_j, e.shared_j) > 0

    def test_dram_energy_tracks_bytes(self, tiny_gpu):
        c1, c2 = AccessCounters(), AccessCounters()
        c1.read("x", 1000)
        c2.read("x", 2000)
        t1 = time_kernel(c1, tiny_gpu, DType.FP32)
        t2 = time_kernel(c2, tiny_gpu, DType.FP32)
        e1 = energy_of(c1, t1, tiny_gpu, DType.FP32)
        e2 = energy_of(c2, t2, tiny_gpu, DType.FP32)
        assert e2.dram_j == pytest.approx(2 * e1.dram_j)
