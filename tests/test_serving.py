"""Serving subsystem tests: plan cache, batched execution, micro-batching.

Registers tiny synthetic models into the zoo so planning stays subsecond;
the full-size acceptance sweep lives in benchmarks/bench_serving_throughput.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    assert_records_match,
    check_replay,
    parity_sessions,
    register_tiny_zoo,
    rescan_drain_s,
    rescan_next_deadline,
    rescan_queue_cost_s,
    rescan_queue_due,
    tiny_model_builder,
)

from repro.core.dtypes import DType
from repro.errors import PlanError, ShapeError
from repro.gpu.specs import GTX1660, ORIN, RTX_A4000
from repro.planner.planner import FusePlanner
from repro.runtime.network_params import materialize_network
from repro.runtime.session import InferenceSession, seeded_input
from repro.serve import FakeClock, ModelServer, PlanCache, TraceRequest, fleet_replay

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(autouse=True)
def tiny_zoo(monkeypatch):
    """Register fast-to-plan models the cache/server tests serve."""
    register_tiny_zoo(monkeypatch)


def _toy_session(dtype=DType.FP32):
    g = tiny_model_builder("toy", 16)(dtype)
    net = materialize_network(g, dtype)
    plan = FusePlanner(GTX1660).plan(g)
    return InferenceSession(g, plan, net)


def _server(**kw) -> ModelServer:
    clock = FakeClock()
    kw.setdefault("clock", clock)
    kw.setdefault("sleep", clock.sleep)
    srv = ModelServer(GTX1660, **kw)
    srv.test_clock = clock  # convenience handle for tests
    return srv


class TestPlanCache:
    def test_hit_miss_accounting(self):
        cache = PlanCache(capacity=4)
        a1 = cache.get("tiny_a", DType.FP32, GTX1660)
        a2 = cache.get("tiny_a", DType.FP32, GTX1660)
        assert a1 is a2
        assert (cache.stats.hits, cache.stats.misses) == (1, 1)
        assert cache.stats.planner_invocations == 1
        cache.get("tiny_a", DType.INT8, GTX1660)  # dtype is part of the key
        assert cache.stats.misses == 2
        assert cache.stats.planner_invocations == 2
        assert cache.stats.hit_rate == pytest.approx(1 / 3)

    def test_lru_eviction_order(self):
        cache = PlanCache(capacity=2)
        cache.get("tiny_a", DType.FP32, GTX1660)
        cache.get("tiny_b", DType.FP32, GTX1660)
        cache.get("tiny_a", DType.FP32, GTX1660)  # refresh a's recency
        cache.get("tiny_c", DType.FP32, GTX1660)  # evicts b, not a
        models = [k.model for k in cache.keys()]
        assert models == ["tiny_a", "tiny_c"]
        assert cache.stats.evictions == 1
        cache.get("tiny_b", DType.FP32, GTX1660)  # re-planned after eviction
        assert cache.stats.planner_invocations == 4

    def test_capacity_validated(self):
        with pytest.raises(PlanError):
            PlanCache(capacity=0)

    def test_generation_moves_with_residency_only(self):
        cache = PlanCache(capacity=1)
        seen = [cache.generation]
        cache.get("tiny_a", DType.FP32, GTX1660)  # miss: insert
        seen.append(cache.generation)
        cache.get("tiny_a", DType.FP32, GTX1660)  # hit: recency only
        seen.append(cache.generation)
        entry = cache.get("tiny_b", DType.FP32, GTX1660)  # insert, evict
        seen.append(cache.generation)
        cache.adopt(entry)  # already resident: no-op
        seen.append(cache.generation)
        cache.clear()
        seen.append(cache.generation)
        assert seen == [0, 1, 1, 2, 2, 3]

    def test_32_requests_plan_once(self):
        """Acceptance: serving N=32 requests invokes FusePlanner exactly once."""
        srv = _server(max_batch=8)
        for _ in range(32):
            srv.enqueue("tiny_a")
        results = srv.serve_forever()
        assert len(results) == 32
        assert srv.cache.stats.planner_invocations == 1
        assert srv.stats.batches == 4 and srv.stats.images_served == 32


class TestBatchedExecution:
    @pytest.mark.parametrize("dtype", [DType.FP32, DType.INT8])
    def test_batched_equals_sequential(self, dtype, rng):
        sess = _toy_session(dtype)
        x = (
            rng.integers(-128, 128, (3, 3, 32, 32)).astype(np.int8)
            if dtype is DType.INT8
            else rng.standard_normal((3, 3, 32, 32)).astype(np.float32)
        )
        batched = sess.run_batch(x)
        assert batched.batch_size == 3 and batched.output.shape[0] == 3
        for i in range(3):
            np.testing.assert_array_equal(batched.output[i], sess.run(x[i]).output)

    def test_batched_accounting(self, rng):
        sess = _toy_session()
        x = rng.standard_normal((4, 3, 32, 32)).astype(np.float32)
        per_image = sess.run(x[0])
        batched = sess.run_batch(x)
        # One launch per step regardless of batch; GMA scales with the batch.
        assert batched.kernel_launches == per_image.kernel_launches
        assert batched.total_gma_bytes == 4 * per_image.total_gma_bytes
        # Launch overhead + weight re-stream amortization: the batch runs
        # strictly faster and cheaper per image than four sequential passes.
        assert batched.latency_per_image_s < per_image.latency_s
        assert batched.energy_per_image_j < per_image.energy_j

    def test_analytic_matches_functional_batched(self, monkeypatch):
        for graph, sess in parity_sessions(monkeypatch):
            x = np.stack([seeded_input(graph, sess.dtype, seed=i) for i in range(3)])
            assert_records_match(sess.run_batch(x), sess.run_analytic_batch(3))

    def test_batch_one_reduces_to_single_image(self):
        sess = _toy_session()
        single = sess.run_analytic()
        b1 = sess.run_analytic_batch(1)
        assert b1.total_gma_bytes == single.total_gma_bytes
        assert b1.latency_s == pytest.approx(single.latency_s, rel=1e-12)

    def test_throughput_strictly_improves(self):
        sess = _toy_session()
        tp = [sess.run_analytic_batch(b).throughput_img_s for b in (1, 2, 4, 8)]
        assert all(b > a for a, b in zip(tp, tp[1:])), tp

    def test_run_batch_rejects_unbatched_input(self, rng):
        sess = _toy_session()
        with pytest.raises(ShapeError):
            sess.run_batch(rng.standard_normal((3, 32, 32)).astype(np.float32))


_MEMO_KEYS = [(m, d) for m in ("tiny_a", "tiny_b", "tiny_c") for d in (DType.FP32, DType.INT8)]
#: arrival gaps: 0 keeps requests at one instant, the others stagger them
#: around the 40 us formation delay.
_MEMO_DT = st.sampled_from([0.0, 5e-6, 2e-5, 1e-4])
_MEMO_ENQUEUE = st.tuples(
    st.just("enqueue"), _MEMO_DT, st.sampled_from([_MEMO_KEYS[0], _MEMO_KEYS[3]]),
    st.sampled_from([None, 2e-5, 6e-5, 1e-3]), st.integers(-1, 2),
)
#: one operation on a server: arrivals on two queue keys (the likeliest
#: op, so queues fill past ``max_batch``), clock + flush, cancellation,
#: crash drain, and every way a resident plan comes or goes (planning miss,
#: LRU eviction, clear, adoption).
_MEMO_OPS = st.one_of(
    _MEMO_ENQUEUE,
    _MEMO_ENQUEUE,
    _MEMO_ENQUEUE,
    st.tuples(st.just("step"), _MEMO_DT),
    st.tuples(st.just("step"), _MEMO_DT),
    st.tuples(st.just("cancel"), st.integers(0, 7)),
    st.tuples(st.just("drain")),
    st.tuples(st.just("clear")),
    st.tuples(st.just("get"), st.sampled_from(_MEMO_KEYS)),
    st.tuples(st.just("adopt"), st.sampled_from(_MEMO_KEYS)),
)


class TestBookkeepingMemos:
    def test_memos_equal_a_rescan(self):
        """After any sequence of queue and plan-residency changes, every
        memoized figure equals a rescan of the queues and resident plans."""
        peer = ModelServer(GTX1660)
        for model, dtype in _MEMO_KEYS:
            peer.cache.get(model, dtype, GTX1660)

        @settings(max_examples=200, deadline=None)
        @given(capacity=st.integers(1, 2), ops=st.lists(_MEMO_OPS, max_size=50))
        def run(capacity, ops):
            srv = _server(cache_capacity=capacity, max_batch=2, max_delay_s=4e-5)
            for op, *args in ops:
                if op == "enqueue":
                    dt, (model, dtype), slo, priority = args
                    srv.test_clock.advance(dt)
                    srv.enqueue(model, dtype=dtype, slo_s=slo, priority=priority)
                elif op == "step":
                    srv.test_clock.advance(args[0])
                    srv.step()
                elif op == "cancel":  # a queued request, else an unknown id
                    queued = [r.id for q in srv._queues.values() for r in q]
                    srv.cancel(queued[args[0] % len(queued)] if queued else args[0])
                elif op == "drain":
                    srv.drain()
                elif op == "clear":
                    srv.cache.clear()
                elif op == "get":
                    srv.cache.get(*args[0], GTX1660)
                else:
                    srv.cache.adopt(peer.cache.peek(peer.plan_key(*args[0])))
                assert srv.next_deadline() == rescan_next_deadline(srv)
                assert srv.estimated_queue_cost_s() == rescan_queue_cost_s(srv)
                for key, queue in srv._queues.items():
                    assert srv._queue_due(key, queue) == rescan_queue_due(srv, key, queue)
                for extra in [None] + [(m, d.value) for m, d in _MEMO_KEYS]:
                    assert srv.estimated_drain_s(extra) == rescan_drain_s(srv, extra)

        run()


class TestMicroBatching:
    def test_deadline_flushes_partial_batch(self):
        srv = _server(max_batch=8, max_delay_s=0.01)
        for _ in range(3):
            srv.enqueue("tiny_a")
        assert srv.step() == []  # neither full nor past deadline
        srv.test_clock.advance(0.011)
        results = srv.step()
        assert len(results) == 3
        assert {r.batch_seq for r in results} == {results[0].batch_seq}
        assert all(r.batch_size == 3 for r in results)
        assert all(r.wait_s >= 0.01 for r in results)

    def test_flush_exactly_at_deadline(self):
        # Regression: a clock pinned to next_deadline() must flush even when
        # float rounding makes (enqueued + delay) - enqueued < delay.
        srv = _server(max_batch=8, max_delay_s=2e-3)
        srv.test_clock.t = 0.02327244060848874
        srv.enqueue("tiny_a")
        srv.test_clock.t = srv.next_deadline()
        assert len(srv.step()) == 1

    def test_full_batches_flush_immediately(self):
        srv = _server(max_batch=4, max_delay_s=10.0)
        for _ in range(8):
            srv.enqueue("tiny_a")
        results = srv.step()  # no clock movement needed: two full batches
        assert len(results) == 8
        assert sorted({r.batch_seq for r in results}) == [0, 1]
        assert all(r.batch_size == 4 for r in results)

    def test_models_never_share_a_batch(self):
        srv = _server(max_batch=8)
        srv.enqueue("tiny_a"), srv.enqueue("tiny_b"), srv.enqueue("tiny_a")
        results = srv.step(force=True)
        by_model = {r.model: r.batch_seq for r in results}
        assert by_model["tiny_a"] != by_model["tiny_b"]
        assert sum(r.model == "tiny_a" for r in results) == 2

    def test_serve_forever_drains_via_deadline(self):
        srv = _server(max_batch=8, max_delay_s=0.005)
        for _ in range(5):
            srv.enqueue("tiny_a")
        results = srv.serve_forever()  # FakeClock sleep ages the batch out
        assert len(results) == 5 and srv.pending() == 0

    def test_functional_queue_returns_outputs(self, rng):
        srv = _server(max_batch=2, max_delay_s=10.0)
        xs = [rng.standard_normal((3, 32, 32)).astype(np.float32) for _ in range(2)]
        ids = [srv.enqueue("tiny_a", x) for x in xs]
        results = {r.request_id: r for r in srv.step()}
        want = srv.submit("tiny_a", np.stack(xs))
        for i, rid in enumerate(ids):
            np.testing.assert_array_equal(results[rid].output, want.output[i])

    def test_submit_single_image(self, rng):
        srv = _server()
        rep = srv.submit("tiny_a", rng.standard_normal((3, 32, 32)).astype(np.float32))
        assert rep.batch_size == 1 and rep.output.shape[0] == 1

    def test_mixed_batch_returns_real_outputs(self, rng):
        """Regression: an analytic placeholder in the queue must not demote
        real-tensor requests to output=None — the flush partitions by kind."""
        srv = _server(max_batch=8)
        xs = [rng.standard_normal((3, 32, 32)).astype(np.float32) for _ in range(2)]
        rid_real0 = srv.enqueue("tiny_a", xs[0])
        rid_analytic = srv.enqueue("tiny_a")
        rid_real1 = srv.enqueue("tiny_a", xs[1])
        results = {r.request_id: r for r in srv.step(force=True)}
        assert len(results) == 3
        # Interleaved kinds split into three homogeneous micro-batches.
        assert len({r.batch_seq for r in results.values()}) == 3
        assert results[rid_analytic].output is None
        # Real outputs must match the synchronous batched path exactly.
        ref = srv.submit("tiny_a", np.stack(xs))
        np.testing.assert_array_equal(results[rid_real0].output, ref.output[0])
        np.testing.assert_array_equal(results[rid_real1].output, ref.output[1])

    def test_mixed_batch_preserves_contiguous_runs(self, rng):
        """Contiguous same-kind requests stay in one micro-batch: the split
        is per run, not per request."""
        srv = _server(max_batch=8)
        xs = [rng.standard_normal((3, 32, 32)).astype(np.float32) for _ in range(2)]
        real_ids = [srv.enqueue("tiny_a", x) for x in xs]
        analytic_ids = [srv.enqueue("tiny_a") for _ in range(3)]
        results = {r.request_id: r for r in srv.step(force=True)}
        real_seqs = {results[i].batch_seq for i in real_ids}
        analytic_seqs = {results[i].batch_seq for i in analytic_ids}
        assert len(real_seqs) == 1 and len(analytic_seqs) == 1
        assert real_seqs != analytic_seqs
        assert all(results[i].batch_size == 2 for i in real_ids)
        assert all(results[i].batch_size == 3 for i in analytic_ids)
        assert all(results[i].output is not None for i in real_ids)


class TestServeForeverCap:
    def test_max_batches_one_is_exact(self):
        """Regression: max_batches=1 must flush exactly one micro-batch even
        when several full batches are already due."""
        srv = _server(max_batch=4)
        for _ in range(12):
            srv.enqueue("tiny_a")
        results = srv.serve_forever(max_batches=1)
        assert len(results) == 4
        assert {r.batch_seq for r in results} == {results[0].batch_seq}
        assert srv.stats.batches == 1 and srv.pending() == 8

    def test_max_batches_all_but_one(self):
        """Regression: stopping one short of the drain leaves exactly one
        batch's worth of requests queued (N = batches - 1 boundary)."""
        srv = _server(max_batch=4)
        for _ in range(12):  # 3 full batches
            srv.enqueue("tiny_a")
        results = srv.serve_forever(max_batches=2)
        assert len(results) == 8 and srv.stats.batches == 2
        assert srv.pending() == 4
        rest = srv.serve_forever()  # no cap: drains the remainder
        assert len(rest) == 4 and srv.pending() == 0
        assert srv.stats.batches == 3

    def test_max_batches_cap_spans_models(self):
        """The cap is global across per-model queues, not per queue."""
        srv = _server(max_batch=2)
        for _ in range(2):
            srv.enqueue("tiny_a")
        for _ in range(2):
            srv.enqueue("tiny_b")
        results = srv.serve_forever(max_batches=1)
        assert len(results) == 2
        assert {r.model for r in results} == {"tiny_a"}
        assert srv.pending() == 2

    def test_max_batches_validated(self):
        srv = _server()
        srv.enqueue("tiny_a")
        with pytest.raises(PlanError):
            srv.serve_forever(max_batches=0)


class TestReplay:
    def test_replay_saturates_batches(self):
        report = fleet_replay(
            [GTX1660], "tiny_a", n_requests=32, rate_rps=1e7, max_batch=8
        )
        check_replay(report)
        assert report.planner_invocations == 1
        assert report.mean_batch == pytest.approx(8.0)
        assert report.latency_p99_s >= report.latency_p50_s > 0
        assert report.throughput_img_s > 0

    def test_overload_latency_reflects_backlog(self):
        # All requests arrive at once; a deeper backlog must surface as a
        # worse latency tail (device-busy wait counts toward latency).
        shallow = fleet_replay(
            [GTX1660], "tiny_a", n_requests=8, rate_rps=1e9, max_batch=8
        )
        deep = fleet_replay(
            [GTX1660], "tiny_a", n_requests=64, rate_rps=1e9, max_batch=8
        )
        check_replay(shallow)
        check_replay(deep)
        assert deep.latency_p99_s > 2 * shallow.latency_p99_s

    def test_slow_arrivals_flush_by_deadline(self):
        # At 10 req/s every request ages out alone: batches of 1.
        report = fleet_replay(
            [GTX1660], "tiny_a", n_requests=4, rate_rps=10.0,
            max_batch=8, max_delay_s=1e-3,
        )
        check_replay(report)
        assert report.mean_batch == pytest.approx(1.0)
        assert report.n_requests == 4

    def test_p99_nearest_rank_on_small_stream(self):
        """Regression: p99 on a 10-sample stream must be the worst observed
        latency (nearest-rank-above), not an optimistic interpolation below
        it."""
        # Burst arrivals with max_batch=1 serialize on the device, so the 10
        # latencies form a strictly increasing staircase — distinct samples.
        report = fleet_replay(
            [GTX1660], "tiny_a", n_requests=10, rate_rps=1e9, max_batch=1
        )
        check_replay(report)
        latencies = report.latencies_s
        assert len(latencies) == 10
        assert len(set(latencies)) == 10
        assert report.latency_p99_s == latencies[-1]
        # Linear interpolation would have under-reported the tail.
        assert float(np.percentile(latencies, 99)) < report.latency_p99_s
        # p50 follows the same convention: an observed sample, rank above.
        assert report.latency_p50_s == latencies[5]

    def test_percentile_helper_convention(self):
        from repro.serve import percentile

        samples = [1.0, 2.0, 3.0, 4.0]
        # "higher" rounds the interpolated rank up to an observed sample.
        assert percentile(samples, 50) == 3.0
        assert percentile(samples, 99) == 4.0
        assert percentile([7.0], 99) == 7.0


#: the heterogeneous fleet of the repo benchmark's replays, on the tiny zoo.
_PIN_FLEET = [RTX_A4000, GTX1660, ORIN, RTX_A4000]
_PIN_MODELS = ["tiny_a", "tiny_b", "tiny_c"]


def _pinned_trace() -> list[TraceRequest]:
    """64 requests mixing priorities, SLOs (some best effort) and dtypes."""
    return [
        TraceRequest(
            t=i * 2.5e-6,
            model=_PIN_MODELS[i % 3],
            dtype="int8" if i % 4 == 1 else "fp32",
            slo_s=None if i % 5 == 2 else (4e-5 if i % 2 else 8e-5),
            priority=(i * 7) % 3,
        )
        for i in range(64)
    ]


def _pinned_replays():
    """Yield ``(label, text)`` for every pinned replay, in order."""
    from repro.obs import MetricsRegistry, Tracer, chrome_trace_json, prometheus_text
    from repro.planner.memo import shared_memo
    from repro.serve import AutoscalePolicy, FaultEvent, FaultPlan, RetryPolicy

    for policy in ("affinity", "round_robin"):
        for admission in ("degrade", "shed"):
            report = fleet_replay(
                _PIN_FLEET, _PIN_MODELS, 96, 1e6, arrival="poisson", seed=3,
                slo_s=4e-5, admission=admission, policy=policy, trace=True,
                max_batch=4, max_delay_s=2e-5, spill_factor=0.5,
            )
            check_replay(report)
            yield f"{policy}/{admission}", repr(report)
    # cache_capacity=1: every model or dtype switch evicts a plan mid-replay.
    report = fleet_replay(
        [GTX1660, RTX_A4000], request_trace=_pinned_trace(), admission="degrade",
        max_batch=4, max_delay_s=2e-5, cache_capacity=1,
    )
    check_replay(report)
    yield "trace/capacity-1", repr(report)
    # The exports count planner-memo hits: start from a cold memo.
    shared_memo().clear()
    tracer, metrics = Tracer(), MetricsRegistry()
    report = fleet_replay(
        [GTX1660], ["tiny_a", "tiny_b"], 48, 8e5, arrival="lognormal", seed=7,
        slo_s=6e-5, admission="degrade", max_batch=4, max_delay_s=2e-5,
        autoscale=AutoscalePolicy(
            min_workers=1, max_workers=3, grow_backlog_s=2e-5, shrink_backlog_s=1e-6,
        ),
        tracer=tracer, metrics=metrics,
    )
    check_replay(report)
    assert report.scale_events
    yield "autoscale", repr(report)
    yield "autoscale/trace", chrome_trace_json(tracer)
    yield "autoscale/metrics", prometheus_text(metrics)
    plan = FaultPlan((
        FaultEvent(t=4e-6, worker=1, kind="crash"),
        FaultEvent(t=6e-6, worker=0, kind="transient"),
        FaultEvent(t=8e-6, worker=2, kind="slowdown", factor=4.0),
        FaultEvent(t=1e-5, worker=3, kind="transient"),
        FaultEvent(t=1.6e-5, worker=1, kind="recover"),
    ))
    report = fleet_replay(
        [GTX1660] * 4, ["tiny_a", "tiny_b"], 48, 1e6, slo_s=5e-5, max_batch=4,
        max_delay_s=2e-5, faults=plan, probe_s=1e-6,
        retry=RetryPolicy(max_attempts=3, budget=0.5, hedge_delay_s=2e-5),
    )
    check_replay(report)
    stats = report.fault_stats
    assert stats.retries and stats.requeues and stats.hedges
    yield "chaos", repr(report)


class TestPinnedReplays:
    """Regression guard: fleet replay reports, pinned byte for byte.

    The replay counterpart of ``test_runtime.TestPinnedReports``: routing
    (with its backlog trace), admission, deadline flushing, plan eviction,
    autoscaling with both exports, and the fault path.  A change that
    means to move a replay re-pins the digest and says so.
    """

    #: SHA-256 over every replay of :func:`_pinned_replays`, in order.
    DIGEST = "602e7434e6d81e1797a4e107506729564133dee70fe96b8cc56659cc00b9746f"

    def test_replay_reports_are_pinned(self):
        h = hashlib.sha256()
        for label, text in _pinned_replays():
            h.update(label.encode())
            h.update(text.encode())
        assert h.hexdigest() == self.DIGEST


#: A chaos fleet replay with a crash, transient failures, retries and hedging
#: (its accounting written by the CLI's --chaos-out), then one functional
#: ModelServer.submit per precision, digested.
_CROSS_PROCESS_SCRIPT = """
import hashlib
from repro.cli import main
from repro.core.dtypes import DType
from repro.gpu.specs import RTX_A4000
from repro.models.zoo import build_model
from repro.runtime.session import seeded_input
from repro.serve import FaultEvent, FaultPlan, ModelServer

FaultPlan((
    FaultEvent(t=1e-3, worker=1, kind="crash"),
    FaultEvent(t=1.5e-3, worker=0, kind="transient"),
    FaultEvent(t=2e-3, worker=2, kind="slowdown", factor=4.0),
    FaultEvent(t=2.5e-3, worker=3, kind="transient"),
    FaultEvent(t=4e-3, worker=1, kind="recover"),
)).save("PLAN.jsonl")
main([
    "fleet", "--gpus", "GTX,GTX,GTX,GTX", "--models", "mobilenet_v1",
    "--requests", "48", "--rate", "8000", "--slo-ms", "12",
    "--faults", "PLAN.jsonl", "--retries", "2", "--hedge-ms", "4",
    "--chaos-out", "CHAOS.json",
])
server = ModelServer(RTX_A4000)
h = hashlib.blake2b(digest_size=16)
for dtype in (DType.FP32, DType.INT8):
    x = seeded_input(build_model("mobilenet_v2", dtype), dtype)
    h.update(server.submit("mobilenet_v2", x, dtype).output.tobytes())
print("outputs", h.hexdigest())
"""


class TestCrossProcessDeterminism:
    def test_same_bytes_under_every_hash_seed(self, tmp_path):
        """Chaos accounting and functional outputs do not depend on the
        process's hash seed (server weights always use the default seed)."""
        seeds = ("1", "2")
        procs = []
        for seed in seeds:
            (tmp_path / seed).mkdir()
            procs.append(subprocess.Popen(
                [sys.executable, "-c", _CROSS_PROCESS_SCRIPT],
                cwd=tmp_path / seed,
                env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": seed},
                stdout=subprocess.PIPE, text=True,
            ))
        outs = [proc.communicate(timeout=120)[0] for proc in procs]
        assert [proc.returncode for proc in procs] == [0, 0]
        assert outs[0] == outs[1]
        assert "outputs " in outs[0]
        chaos = [(tmp_path / seed / "CHAOS.json").read_bytes() for seed in seeds]
        assert chaos[0] == chaos[1]
        accounting = json.loads(chaos[0])
        assert accounting["retries"] > 0 and accounting["hedges"] > 0
