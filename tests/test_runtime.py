"""Runtime tests: glue ops, network params, sessions, profiler."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from helpers import assert_records_match, check_replay, parity_sessions, register_tiny_zoo
from repro.baselines.tvm import TvmCompiler
from repro.core.dtypes import DType
from repro.core.quantize import QuantParams
from repro.errors import PlanError, ShapeError, UnsupportedError
from repro.experiments.fig10_fig11 import end_to_end_point
from repro.gpu.specs import ALL_GPUS, GTX1660, ORIN, RTX_A4000
from repro.ir.blocks import dsc_block, inverted_residual_block, standard_conv
from repro.ir.graph import GlueSpec, ModelGraph
from repro.ir.layers import ConvKind, ConvSpec
from repro.models.zoo import build_model, model_names
from repro.planner.plan import ExecutionPlan, GlueStep, LblStep
from repro.planner.planner import FusePlanner
from repro.runtime import network_params
from repro.runtime.glue import apply_glue, glue_counters
from repro.runtime.network_params import materialize_network
from repro.runtime.session import (
    InferenceSession,
    TvmSession,
    build_session,
    price_key,
    seeded_input,
    step_record,
)
from repro.serve import FakeClock, Fleet, ModelServer, fleet_replay

SRC = Path(__file__).resolve().parents[1] / "src"

#: Digest of every mobilenet_v2 weight tensor, FP32 then INT8 (seed 0).
MOBILENET_V2_WEIGHTS_DIGEST = "7d481fdaa10309f1147eafbc034b1070"

_DIGEST_SCRIPT = """
import hashlib
from repro.core.dtypes import DType
from repro.models.zoo import build_model
from repro.runtime.network_params import materialize_network

h = hashlib.blake2b(digest_size=16)
for dtype in (DType.FP32, DType.INT8):
    net = materialize_network(build_model("mobilenet_v2", dtype), dtype)
    for name, p in net.layers.items():
        h.update(name.encode())
        h.update(p.weights.tobytes())
print(h.hexdigest())
"""


def _toy_graph(dtype=DType.FP32):
    g = ModelGraph("toy")
    first = standard_conv(g, "stem", 3, 16, 32, 32, stride=2, dtype=dtype)
    last = inverted_residual_block(g, "ir1", 16, 16, 16, 16, after=first, dtype=dtype)
    last = dsc_block(g, "b1", 16, 32, 16, 16, after=last, dtype=dtype)
    g.add(GlueSpec("gap", "gap", 32), after=last)
    g.validate()
    return g


class TestGlue:
    def test_add_fp32(self, rng):
        a = rng.standard_normal((2, 3, 3)).astype(np.float32)
        b = rng.standard_normal((2, 3, 3)).astype(np.float32)
        spec = GlueSpec("add", "add", 18)
        out, _ = apply_glue(spec, [a, b], [None, None], DType.FP32)
        np.testing.assert_allclose(out, a + b)

    def test_add_int8_requantizes(self, rng):
        a = rng.integers(-100, 100, (2, 4, 4)).astype(np.int8)
        b = rng.integers(-100, 100, (2, 4, 4)).astype(np.int8)
        sa, sb = QuantParams(0.1), QuantParams(0.05)
        out, scale = apply_glue(GlueSpec("add", "add", 32), [a, b], [sa, sb], DType.INT8)
        assert out.dtype == np.int8 and scale is sa
        # Mirror the implementation's fp32 arithmetic (float64 here can round
        # differently by one quantization step at exact .5 boundaries).
        real = a.astype(np.float32) * np.float32(0.1) + b.astype(np.float32) * np.float32(0.05)
        want = np.clip(np.rint(real / np.float32(0.1)), -128, 127).astype(np.int8)
        np.testing.assert_array_equal(out, want)

    def test_maxpool_halves(self, rng):
        x = rng.standard_normal((3, 8, 8)).astype(np.float32)
        out, _ = apply_glue(GlueSpec("p", "maxpool2", 0), [x], [None], DType.FP32)
        assert out.shape == (3, 4, 4)
        assert out.max() == pytest.approx(x.max())

    def test_gap(self, rng):
        x = rng.standard_normal((5, 6, 6)).astype(np.float32)
        out, scale = apply_glue(GlueSpec("g", "gap", 5), [x], [None], DType.FP32)
        assert out.shape == (5,)
        assert scale is None
        np.testing.assert_allclose(out, x.mean(axis=(1, 2)), rtol=1e-5)

    def test_add_shape_mismatch(self):
        with pytest.raises(ShapeError):
            apply_glue(
                GlueSpec("a", "add", 1),
                [np.zeros((1, 2, 2)), np.zeros((1, 3, 3))],
                [None, None],
                DType.FP32,
            )

    def test_unknown_op(self):
        with pytest.raises(UnsupportedError):
            apply_glue(GlueSpec("x", "fft", 1), [np.zeros(1)], [None], DType.FP32)

    def test_counters_fused_free(self):
        spec = GlueSpec("a", "add", 100)
        assert glue_counters(spec, DType.FP32, fused=True).total_bytes == 0
        paid = glue_counters(spec, DType.FP32, fused=False)
        assert paid.total_bytes == 3 * 100 * 4
        assert paid.kernel_launches == 1


class TestNetworkParams:
    def test_scales_chain_through_convs(self):
        g = _toy_graph(DType.INT8)
        net = materialize_network(g, DType.INT8)
        # b1_dw consumes b1's predecessor output scale.
        pred = g.predecessors("b1_dw")[0]
        assert net["b1_dw"].in_scale is net.out_scales[pred]

    def test_scales_propagate_through_add(self):
        g = _toy_graph(DType.INT8)
        net = materialize_network(g, DType.INT8)
        add_scale = net.out_scales["ir1_add"]
        assert add_scale is not None
        assert net["b1_dw"].in_scale is not None

    def test_fp32_has_no_scales(self):
        net = materialize_network(_toy_graph(), DType.FP32)
        assert all(s is None for s in net.out_scales.values())

    def test_deterministic(self):
        g = _toy_graph()
        a = materialize_network(g, DType.FP32, seed=5)
        b = materialize_network(g, DType.FP32, seed=5)
        np.testing.assert_array_equal(a["b1_pw"].weights, b["b1_pw"].weights)

    def test_same_weights_under_every_hash_seed(self):
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _DIGEST_SCRIPT],
                env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": seed},
                stdout=subprocess.PIPE, text=True,
            )
            for seed in ("1", "2")
        ]
        digests = [proc.communicate(timeout=120)[0].strip() for proc in procs]
        assert [proc.returncode for proc in procs] == [0, 0]
        assert digests == [MOBILENET_V2_WEIGHTS_DIGEST] * 2


class TestWeightsOnFirstRead:
    """Analytic paths price every step from shapes alone, so they generate
    no weights; the first functional request generates each conv once."""

    @pytest.fixture
    def generated(self, monkeypatch) -> list[str]:
        register_tiny_zoo(monkeypatch)
        names: list[str] = []
        real = network_params.make_layer_params

        def counting(spec, *args, **kwargs):
            names.append(spec.name)
            return real(spec, *args, **kwargs)

        monkeypatch.setattr(network_params, "make_layer_params", counting)
        return names

    def test_analytic_paths_generate_no_weights(self, generated):
        end_to_end_point("mobilenet_v1", RTX_A4000, DType.FP32)

        clock = FakeClock()
        gpus = [RTX_A4000, GTX1660]
        fleet = Fleet(gpus, clock=clock, sleep=clock.sleep)
        assert fleet.preplan(["tiny_a"], (DType.FP32, DType.INT8)) == 4
        report = fleet_replay(gpus, ["tiny_a"], 16, 1e4, fleet=fleet)
        check_replay(report)
        assert report.served == 16

        graph = build_model("mobilenet_v1", DType.FP32)
        tvm_plan = TvmCompiler(RTX_A4000).compile(graph, DType.FP32)
        TvmSession(graph, tvm_plan).run_analytic()
        assert generated == []

    def test_first_functional_submit_generates_each_conv_once(self, generated):
        server = ModelServer(GTX1660)
        graph = build_model("tiny_a", DType.FP32)
        x = seeded_input(graph, DType.FP32)
        server.submit("tiny_a", x)
        convs = [s.name for s in graph.topological() if isinstance(s, ConvSpec)]
        assert generated == convs
        generated.clear()
        server.submit("tiny_a", x)
        assert generated == []


class TestSessions:
    @pytest.mark.parametrize("dtype", [DType.FP32, DType.INT8])
    def test_ours_equals_tvm_numerically(self, dtype, rng):
        g = _toy_graph(dtype)
        net = materialize_network(g, dtype)
        plan = FusePlanner(GTX1660).plan(g)
        x = (
            rng.integers(-128, 128, (3, 32, 32)).astype(np.int8)
            if dtype is DType.INT8
            else rng.standard_normal((3, 32, 32)).astype(np.float32)
        )
        ours = InferenceSession(g, plan, net).run(x)
        tvm = TvmSession(g, TvmCompiler(GTX1660).compile(g, dtype), net).run(x)
        assert ours.output is not None and tvm.output is not None
        if dtype is DType.FP32:
            np.testing.assert_allclose(ours.output, tvm.output, rtol=1e-3, atol=1e-4)
        else:
            # INT8 pipelines may differ by one quantization step on a few
            # values at layer borders; outputs are fp32 after gap.
            np.testing.assert_allclose(ours.output, tvm.output, rtol=0.1, atol=0.2)

    def test_analytic_matches_functional_traffic(self, monkeypatch):
        """Single images: ours agrees step by step (energy aside); the TVM
        session's functional and analytic records are equal in every field."""
        for graph, sess in parity_sessions(monkeypatch):
            x = seeded_input(graph, sess.dtype)
            assert_records_match(sess.run_batch(x[None]), sess.run_analytic_batch(1))
            tvm_plan = TvmCompiler(GTX1660).compile(graph, sess.dtype)
            tvm = TvmSession(graph, tvm_plan, sess.params)
            assert tvm.run(x).records == tvm.run_analytic().records

    def test_fusion_reduces_launches(self, rng):
        g = _toy_graph()
        net = materialize_network(g, DType.FP32)
        plan = FusePlanner(ORIN).plan(g)
        ours = InferenceSession(g, plan, net).run_analytic()
        tvm = TvmSession(g, TvmCompiler(ORIN).compile(g), net).run_analytic()
        if plan.fcm_steps:
            # TVM launches one kernel per conv; we fuse pairs (but pay glue
            # kernels TVM fused away).
            assert ours.kernel_launches <= tvm.kernel_launches + 2

    def test_report_totals_sum_records_in_order(self, rng):
        g = _toy_graph()
        sess = InferenceSession(g, FusePlanner(GTX1660).plan(g))
        x = rng.standard_normal((2, 3, 32, 32)).astype(np.float32)
        for rep in (sess.run_batch(x), sess.run_analytic_batch(2)):
            assert isinstance(rep.records, tuple)
            assert rep.latency_s == sum(r.time_s for r in rep.records)
            assert rep.energy_j == sum(r.energy_j for r in rep.records)
            assert rep.total_gma_bytes == sum(
                r.counters.total_bytes for r in rep.records
            )
            assert rep.kernel_launches == sum(
                r.counters.kernel_launches for r in rep.records
            )

    def test_report_describe(self):
        g = _toy_graph()
        plan = FusePlanner(GTX1660).plan(g)
        rep = InferenceSession(g, plan, None).run_analytic()
        assert "toy on GTX" in rep.describe()

    def test_functional_walk_drops_outputs_after_their_last_read(self):
        """A functional run holds each step output only until its last
        reader has run: one xception FP32 image peaks at about 56 MB of
        traced allocations (153 MB while every output lived to the end)."""
        import tracemalloc

        sess = build_session("xception", RTX_A4000)
        x = seeded_input(sess.graph, DType.FP32)
        sess.params.layers  # generate the weights before tracing
        tracemalloc.start()
        try:
            sess.run(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100e6

    def test_missing_producer_is_an_error(self, rng):
        """A step reads its producers' outputs, and only the first step reads
        the network input: a plan that lost the stem step cannot run, nor can
        a graph with a second source."""
        g = _toy_graph()
        plan = FusePlanner(GTX1660).plan(g)
        x = rng.standard_normal((3, 32, 32)).astype(np.float32)
        with pytest.raises(KeyError, match="stem"):
            InferenceSession(g, replace(plan, steps=plan.steps[1:])).run(x)
        g.add(GlueSpec("gap2", "gap", 3), after=[])
        with pytest.raises(PlanError, match="gap2"):
            InferenceSession(g, FusePlanner(GTX1660).plan(g)).run(x)


def _hash_records(h, report) -> None:
    """Feed every field of every record (counter breakdowns included, floats
    by ``repr``) into ``h``."""
    for r in report.records:
        c = r.counters
        h.update(repr((
            r.name, r.kind, repr(float(r.time_s)), repr(float(r.energy_j)), r.bound,
            sorted(c.global_reads.items()), sorted(c.global_writes.items()),
            c.shared_bytes, c.rereads, c.macs, c.redundant_macs, c.kernel_launches,
        )).encode())


class TestPinnedReports:
    """Regression guard: the simulated reports of the whole zoo, pinned.

    A change that means to move simulated numbers re-pins the digest and
    says so; any other change must leave it as it is.
    """

    #: SHA-256 over every analytic report below, in sweep order.
    DIGEST = "654fdc9f2ecb3c76200fe0b7a6220f358c8d007cb01273f2725d9b559672da24"

    def test_analytic_reports_are_pinned(self):
        h = hashlib.sha256()
        for model in model_names():
            for dtype in (DType.FP32, DType.INT8):
                graph = build_model(model, dtype)
                for gpu in ALL_GPUS:
                    for max_chain in (1, 2, 3):
                        plan = FusePlanner(gpu, max_chain=max_chain).plan(graph)
                        sess = InferenceSession(graph, plan)
                        for n in (1, 8):
                            h.update(f"{model}/{gpu.name}/{dtype}/{max_chain}/{n}".encode())
                            _hash_records(h, sess.run_analytic_batch(n))
                    tvm = TvmSession(graph, TvmCompiler(gpu).compile(graph, dtype))
                    h.update(f"tvm/{model}/{gpu.name}/{dtype}".encode())
                    _hash_records(h, tvm.run_analytic())
        assert h.hexdigest() == self.DIGEST


def _assert_priced_per_step(report, plan) -> None:
    """Each record of an analytic ``report`` of ``plan`` equals
    :func:`step_record` of its own step alone, field by field: name, kind,
    time, energy, bound and every counter (reads and writes per tensor kind,
    re-reads, MACs, redundant MACs, launches, shared bytes)."""
    assert len(report.records) == len(plan.steps)
    for record, step in zip(report.records, plan.steps):
        assert record == step_record(step, plan.gpu, plan.dtype, report.batch_size)


class TestPricedOncePerKey:
    """An analytic walk prices each distinct step once and hands the price
    to later steps with the same :func:`price_key`: no record may differ
    from pricing its own step alone."""

    def test_zoo_records_equal_their_own_step_record(self):
        for model in model_names():
            for dtype in (DType.FP32, DType.INT8):
                graph = build_model(model, dtype)
                for gpu in ALL_GPUS:
                    for max_chain in (1, 2, 3):
                        plan = FusePlanner(gpu, max_chain=max_chain).plan(graph)
                        sess = InferenceSession(graph, plan)
                        for n in range(1, 9):
                            _assert_priced_per_step(sess.run_analytic_batch(n), plan)
                    tvm = TvmCompiler(gpu).compile(graph, dtype)
                    _assert_priced_per_step(TvmSession(graph, tvm).run_analytic(), tvm)

    def test_key_keeps_apart_steps_differing_in_one_priced_input(self):
        """Each DW layer after ``base`` differs from it in exactly one input
        the pricer reads (tiling, padding, stride), except ``twin``, which
        differs only in its name, as ``add2`` does from ``add1``."""
        geometry = {
            "base": (1, 1), "twin": (1, 1), "tiled": (1, 1), "unpadded": (1, 0),
            "strided": (2, 1),
        }
        whole = {"tile_c": 16, "tile_h": 16, "tile_w": 16}
        tilings = dict.fromkeys(geometry, whole) | {
            "tiled": {"tile_c": 16, "tile_h": 4, "tile_w": 4}
        }
        for dtype in (DType.FP32, DType.INT8):
            g = ModelGraph("keys")
            g.add(ConvSpec("stem", ConvKind.POINTWISE, 16, 16, 16, 16, dtype=dtype))
            for name, (stride, padding) in geometry.items():
                g.add(ConvSpec(
                    name, ConvKind.DEPTHWISE, 16, 16, 16, 16, kernel=3,
                    stride=stride, padding=padding, dtype=dtype,
                ), after="stem")
            g.add(GlueSpec("add1", "add", 16 * 16 * 16), after=["base", "twin"])
            g.add(GlueSpec("add2", "add", 16 * 16 * 16), after=["base", "tiled"])
            steps = [LblStep(g.spec("stem"), {"tile_m": 16, "tile_hw": 256}, 0)]
            steps += [LblStep(g.spec(name), tilings[name], 0) for name in geometry]
            steps += [GlueStep(g.spec("add1")), GlueStep(g.spec("add2"))]
            assert len({price_key(s) for s in steps}) == len(steps) - 2
            plan = ExecutionPlan("keys", RTX_A4000, dtype, steps)
            sess = InferenceSession(g, plan)
            for n in (1, 3):
                report = sess.run_analytic_batch(n)
                _assert_priced_per_step(report, plan)
                rec = {r.name: r for r in report.records}
                # A reused price hands its counters object on.
                assert rec["twin"].counters is rec["base"].counters
                assert rec["add2"].counters is rec["add1"].counters
                for name in ("tiled", "unpadded", "strided"):
                    assert replace(rec[name], name="base") != rec["base"], name
