"""Fleet serving tests: plan-affinity routing, deterministic multi-GPU
replay, scaling, and the PlanCache behavior the fleet depends on.

Uses the tiny zoo from helpers so planning stays subsecond; the full-size
scaling sweep lives in benchmarks/bench_fleet_scaling.py.
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers import check_replay, register_tiny_zoo

from repro.core.dtypes import DType
from repro.errors import PlanError
from repro.gpu.specs import GTX1660, ORIN, RTX_A4000
from repro.serve import (
    FakeClock,
    Fleet,
    FleetScheduler,
    ModelServer,
    PlanCache,
    fleet_replay,
)

HETERO = (GTX1660, RTX_A4000, ORIN, RTX_A4000)


@pytest.fixture(autouse=True)
def tiny_zoo(monkeypatch):
    register_tiny_zoo(monkeypatch)


def _fleet(gpus, **kw) -> Fleet:
    clock = FakeClock()
    kw.setdefault("clock", clock)
    kw.setdefault("sleep", clock.sleep)
    fleet = Fleet(gpus, **kw)
    fleet.test_clock = clock  # convenience handle for tests
    return fleet


class TestPlanCacheFleetContract:
    """The PlanCache behavior fleet routing and accounting lean on."""

    def test_interleaved_multi_key_eviction_order(self):
        cache = PlanCache(capacity=3)
        cache.get("tiny_a", DType.FP32, GTX1660)
        cache.get("tiny_b", DType.FP32, GTX1660)
        cache.get("tiny_c", DType.FP32, GTX1660)
        # Interleave hits so recency diverges from insertion order.
        cache.get("tiny_a", DType.FP32, GTX1660)
        cache.get("tiny_b", DType.FP32, GTX1660)
        cache.get("tiny_a", DType.FP32, GTX1660)
        # LRU order is now c < b < a: a fourth key evicts c first.
        cache.get("tiny_a", DType.INT8, GTX1660)
        models = [(k.model, k.dtype) for k in cache.keys()]
        assert models == [("tiny_b", "fp32"), ("tiny_a", "fp32"), ("tiny_a", "int8")]
        # Next eviction takes b, never the freshly-hit a.
        cache.get("tiny_c", DType.FP32, GTX1660)
        assert ("tiny_b", "fp32") not in [(k.model, k.dtype) for k in cache.keys()]

    def test_hit_rate_and_eviction_accounting(self):
        cache = PlanCache(capacity=2)
        cache.get("tiny_a", DType.FP32, GTX1660)  # miss
        cache.get("tiny_a", DType.FP32, GTX1660)  # hit
        cache.get("tiny_b", DType.FP32, GTX1660)  # miss
        cache.get("tiny_c", DType.FP32, GTX1660)  # miss, evicts a
        cache.get("tiny_a", DType.FP32, GTX1660)  # miss again (was evicted)
        stats = cache.stats
        assert (stats.hits, stats.misses) == (1, 4)
        assert stats.evictions == 2
        assert stats.lookups == 5
        assert stats.hit_rate == pytest.approx(1 / 5)
        assert stats.planner_invocations == 4

    def test_peek_does_not_touch_stats_or_recency(self):
        cache = PlanCache(capacity=2)
        entry = cache.get("tiny_a", DType.FP32, GTX1660)
        cache.get("tiny_b", DType.FP32, GTX1660)
        before = (cache.stats.hits, cache.stats.misses)
        key_a = cache.keys()[0]  # tiny_a is LRU
        assert cache.peek(key_a) is entry
        assert (cache.stats.hits, cache.stats.misses) == before
        # Recency unchanged: tiny_a is still first out.
        cache.get("tiny_c", DType.FP32, GTX1660)
        assert all(k.model != "tiny_a" for k in cache.keys())

    def test_workers_with_different_gpus_never_share_a_key(self):
        fleet = _fleet([GTX1660, ORIN])
        for worker in fleet.workers:
            worker.server.submit_analytic("tiny_a", 1)
        keys = [set(w.server.cache.keys()) for w in fleet.workers]
        assert keys[0].isdisjoint(keys[1])
        gpus = {k.gpu for keys_ in keys for k in keys_}
        assert gpus == {"GTX", "Orin"}


class TestFleetConstruction:
    def test_heterogeneous_workers_are_first_class(self):
        fleet = _fleet(HETERO)
        assert [w.name for w in fleet.workers] == ["GTX#0", "RTX#1", "Orin#2", "RTX#3"]
        assert len({id(w.server.cache) for w in fleet.workers}) == 4
        assert fleet.policy == "affinity"

    def test_empty_fleet_rejected(self):
        with pytest.raises(PlanError):
            Fleet([])

    def test_unknown_policy_rejected(self):
        with pytest.raises(PlanError):
            Fleet([GTX1660], policy="random")

    def test_scheduler_validates_spill_factor(self):
        fleet = _fleet([GTX1660])
        with pytest.raises(PlanError):
            FleetScheduler(fleet.workers, spill_factor=-1.0)


class TestRouting:
    def test_affinity_prefers_plan_holder(self):
        fleet = _fleet([GTX1660, RTX_A4000], trace=True)
        # Warm worker 1 only; routing must then stick to it.
        fleet.workers[1].server.submit_analytic("tiny_a", 1)
        worker, _ = fleet.submit_analytic("tiny_a", 1)
        assert worker.name == "RTX#1"
        decision = fleet.trace[-1]
        assert decision.affinity_hit and not decision.spilled
        assert decision.worker == "RTX#1"

    def test_unplanned_model_routes_to_least_backlog(self):
        fleet = _fleet([GTX1660, RTX_A4000], trace=True)
        fleet.workers[0].busy_until = 1.0  # worker 0 is occupied
        worker, _ = fleet.submit_analytic("tiny_a", 1)
        assert worker.name == "RTX#1"
        assert not fleet.trace[-1].affinity_hit

    def test_overloaded_holder_spills(self):
        fleet = _fleet([GTX1660, RTX_A4000], trace=True)
        fleet.workers[0].server.submit_analytic("tiny_a", 1)
        # Pin a backlog on the holder far beyond the spill threshold.
        fleet.workers[0].busy_until = 10.0
        worker, _ = fleet.submit_analytic("tiny_a", 1)
        assert worker.name == "RTX#1"
        decision = fleet.trace[-1]
        assert decision.spilled and not decision.affinity_hit
        assert "spill" in decision.describe()

    def test_round_robin_cycles_workers(self):
        fleet = _fleet(HETERO, policy="round_robin")
        names = [fleet.submit_analytic("tiny_a", 1)[0].name for _ in range(6)]
        assert names == ["GTX#0", "RTX#1", "Orin#2", "RTX#3", "GTX#0", "RTX#1"]

    def test_routing_probe_does_not_perturb_cache_stats(self):
        fleet = _fleet([GTX1660, RTX_A4000])
        fleet.workers[0].server.submit_analytic("tiny_a", 1)
        before = [
            (w.server.cache.stats.hits, w.server.cache.stats.misses)
            for w in fleet.workers
        ]
        fleet.scheduler.route("tiny_a", DType.FP32, 0.0)
        after = [
            (w.server.cache.stats.hits, w.server.cache.stats.misses)
            for w in fleet.workers
        ]
        assert before == after

    def test_queued_fleet_path_attributes_workers(self):
        fleet = _fleet([GTX1660, RTX_A4000])
        for _ in range(4):
            fleet.enqueue("tiny_a")
        assert fleet.pending() == 4
        flushed = fleet.step(force=True)
        assert len(flushed) == 4
        assert fleet.pending() == 0
        workers = {worker.name for worker, _ in flushed}
        assert workers <= {"GTX#0", "RTX#1"}
        stats = fleet.stats()
        assert stats.requests == 4 and stats.images_served == 4


class TestFleetReplay:
    def test_replay_is_deterministic(self):
        """Acceptance: the same Poisson stream over a 4-worker fleet twice
        yields identical FleetStreamReports (shared FakeClock, no real time)."""
        kw = dict(n_requests=48, rate_rps=2e5, poisson=True, max_batch=8)
        first = fleet_replay(HETERO, ["tiny_a", "tiny_b"], **kw)
        second = fleet_replay(HETERO, ["tiny_a", "tiny_b"], **kw)
        check_replay(first)
        assert first == second

    def test_homogeneous_fleet_scales_throughput(self):
        """Acceptance: 4 identical workers reach >= 3x single-worker
        throughput on the same saturating stream."""
        kw = dict(n_requests=512, rate_rps=1e8, max_batch=8, max_delay_s=5e-5)
        one = fleet_replay([RTX_A4000], "tiny_a", **kw)
        four = fleet_replay([RTX_A4000] * 4, "tiny_a", **kw)
        check_replay(one)
        check_replay(four)
        assert four.throughput_img_s >= 3 * one.throughput_img_s
        # The spread is real: every worker served a meaningful share.
        shares = [w.requests for w in four.per_worker]
        assert min(shares) >= 512 // 8

    def test_affinity_beats_round_robin_hit_rate(self):
        """Acceptance: plan-affinity routing yields a strictly higher
        fleet-wide PlanCache hit rate than round-robin on a multi-model
        trace."""
        kw = dict(n_requests=192, rate_rps=2e4, max_batch=8)
        models = ["tiny_a", "tiny_b", "tiny_c"]
        affinity = fleet_replay(HETERO, models, **kw)
        rr = fleet_replay(HETERO, models, policy="round_robin", **kw)
        check_replay(affinity)
        check_replay(rr)
        assert affinity.plan_hit_rate > rr.plan_hit_rate
        # Affinity also plans less: plans replicate only on spill, while
        # round-robin forces every worker to plan every model.
        assert affinity.planner_invocations < rr.planner_invocations
        assert rr.planner_invocations == len(HETERO) * len(models)

    def test_fleet_of_one_matches_worker_accounting(self):
        report = fleet_replay([GTX1660], "tiny_a", 32, 1e7, max_batch=8)
        check_replay(report)
        assert report.n_requests == 32
        assert len(report.per_worker) == 1
        w = report.per_worker[0]
        assert w.requests == 32 and w.planner_invocations == 1
        assert report.mean_batch == pytest.approx(8.0)
        assert report.latency_p99_s >= report.latency_p50_s > 0

    def test_per_worker_breakdown_sums_to_fleet(self):
        report = fleet_replay(HETERO, ["tiny_a", "tiny_b"], 64, 5e4)
        check_replay(report)
        assert sum(w.requests for w in report.per_worker) == 64
        total_batches = sum(w.batches for w in report.per_worker)
        assert report.mean_batch == pytest.approx(64 / total_batches)

    def test_device_wait_shows_in_latency(self):
        # One worker, burst arrivals: later batches queue behind the device,
        # so the latency tail must exceed a lone batch's latency.
        shallow = fleet_replay([GTX1660], "tiny_a", 8, 1e9, max_batch=8)
        deep = fleet_replay([GTX1660], "tiny_a", 64, 1e9, max_batch=8)
        check_replay(shallow)
        check_replay(deep)
        assert deep.latency_p99_s > 2 * shallow.latency_p99_s

    def test_trace_records_every_request(self):
        report = fleet_replay(
            HETERO, ["tiny_a", "tiny_b"], 16, 5e4, trace=True
        )
        check_replay(report)
        assert len(report.routing_trace) == 16
        assert [d.seq for d in report.routing_trace] == list(range(16))
        assert {d.model for d in report.routing_trace} == {"tiny_a", "tiny_b"}
        assert all(d.describe() for d in report.routing_trace)

    def test_mixed_dtype_streams_use_distinct_plans(self):
        fp32 = fleet_replay([GTX1660, RTX_A4000], "tiny_a", 16, 1e6)
        int8 = fleet_replay([GTX1660, RTX_A4000], "tiny_a", 16, 1e6, dtype=DType.INT8)
        check_replay(fp32)
        check_replay(int8)
        assert fp32.dtype == "fp32" and int8.dtype == "int8"
        assert fp32.n_requests == int8.n_requests == 16

    def test_needs_a_model(self):
        with pytest.raises(PlanError):
            fleet_replay([GTX1660], [], 4, 100.0)

    def test_rejects_realtime_fleet(self):
        import time

        fleet = Fleet([GTX1660], clock=time.monotonic)
        with pytest.raises(PlanError):
            fleet_replay([GTX1660], "tiny_a", 4, 100.0, fleet=fleet)


class TestSettingsForwarding:
    """ModelServer declares the serving settings; Fleet and fleet_replay
    forward them instead of re-declaring them."""

    def test_replay_refuses_settings_next_to_a_fleet(self):
        fleet = _fleet([GTX1660], max_batch=4)
        with pytest.raises(PlanError, match="max_batch"):
            fleet_replay([GTX1660], "tiny_a", 4, 100.0, fleet=fleet, max_batch=4)

    def test_removed_knobs_are_rejected(self):
        with pytest.raises(TypeError, match="engine"):
            ModelServer(GTX1660, engine="fast")
        with pytest.raises(TypeError, match="convention"):
            Fleet([GTX1660], convention="paper")
        with pytest.raises(TypeError, match="engine"):
            fleet_replay([GTX1660], "tiny_a", 4, 100.0, seed=1, engine="fast")
        # Preplanning is in-process: there is no pool to size.
        with pytest.raises(TypeError, match="workers"):
            fleet_replay([GTX1660], "tiny_a", 4, 100.0, seed=1, workers=2)
        with pytest.raises(TypeError, match="workers"):
            _fleet([GTX1660]).preplan(["tiny_a"], workers=2)

    def test_added_worker_gets_the_forwarded_settings(self):
        fleet = _fleet([GTX1660], max_batch=4, max_delay_s=1e-4)
        worker = fleet.add_worker(RTX_A4000)
        assert worker.server.max_batch == 4
        assert worker.server.max_delay_s == 1e-4
        assert worker.server.clock is fleet.clock is fleet.test_clock


class TestFleetFunctionalPath:
    def test_sync_path_charges_occupancy(self):
        """Synchronous submits must load the chosen worker, so a second cold
        model routes to a different worker instead of pinning everything to
        worker 0 (whose backlog would otherwise always read 0)."""
        fleet = _fleet([GTX1660, RTX_A4000])
        w_a, report = fleet.submit_analytic("tiny_a", 8)
        assert w_a.name == "GTX#0"
        assert w_a.busy_until == pytest.approx(report.latency_s)
        assert w_a.busy_s == pytest.approx(report.latency_s)
        w_b, _ = fleet.submit_analytic("tiny_b", 8)
        assert w_b.name == "RTX#1"

    def test_routed_submit_returns_outputs(self, rng):
        fleet = _fleet([GTX1660, RTX_A4000])
        x = rng.standard_normal((2, 3, 32, 32)).astype(np.float32)
        worker, report = fleet.submit("tiny_a", x)
        assert report.output.shape[0] == 2
        # Affinity keeps the follow-up on the same worker.
        worker2, _ = fleet.submit("tiny_a", x)
        assert worker2 is worker
