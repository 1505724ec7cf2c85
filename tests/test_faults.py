"""Fault-tolerance suite: deterministic fault injection, failover, retries,
hedging, circuit breaking, and chaos replay.

Covers the acceptance criteria of the fault-tolerant serving PR:

* **fault plans** — validated, time-ordered schedules whose JSONL round
  trip is byte-identical (equality checked by hypothesis), plus a seeded
  MTBF/MTTR chaos generator;
* **retry machinery** — bounded deterministic-jitter backoff, per-worker
  circuit breakers, percentile-based hedge delays;
* **failover plumbing** — health-aware routing, forced worker removal that
  requeues instead of refusing, cache clear/adopt/rewarm, lost-capacity
  autoscaling;
* **chaos replay** — the pinned 1-of-4-workers-crash scenario is
  replay-twice byte-identical, loses zero accepted requests, and reports
  availability/attainment inside asserted bounds; retries + failover beat
  the no-retry baseline on the same seeded stream; the no-fault path stays
  bit-identical to the pre-refactor harness (pinned float).
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import check_replay, register_tiny_zoo
from repro.core.dtypes import DType
from repro.errors import PlanError
from repro.gpu.specs import GTX1660
from repro.serve import (
    FAULT_KINDS,
    WORKER_HEALTH,
    AutoscalePolicy,
    CircuitBreaker,
    FakeClock,
    FaultEvent,
    FaultPlan,
    Fleet,
    ModelServer,
    PlanCache,
    RetryPolicy,
    fleet_replay,
    hedge_delay,
    percentile,
)


@pytest.fixture(autouse=True)
def tiny_zoo(monkeypatch):
    register_tiny_zoo(monkeypatch)


def _server(**kw) -> ModelServer:
    clock = FakeClock()
    kw.setdefault("clock", clock)
    kw.setdefault("sleep", clock.sleep)
    server = ModelServer(GTX1660, **kw)
    server.test_clock = clock
    return server


def _fleet(n=2, **kw) -> Fleet:
    clock = FakeClock()
    kw.setdefault("clock", clock)
    kw.setdefault("sleep", clock.sleep)
    fleet = Fleet([GTX1660] * n, **kw)
    fleet.test_clock = clock
    return fleet


# The pinned acceptance scenario: 4 workers, worker #1 crashes mid-stream
# (t = 4us of a 23us arrival window) and recovers well before the stream
# ends (MTTR 8us < 23us).
CHAOS_PLAN = FaultPlan(
    (
        FaultEvent(t=4e-6, worker=1, kind="crash"),
        FaultEvent(t=12e-6, worker=1, kind="recover"),
    )
)
CHAOS_RETRY = RetryPolicy(max_attempts=3, budget=0.5)


def _chaos_replay(**overrides):
    kw = dict(
        max_batch=4,
        seed=1,
        slo_s=5e-3,
        faults=CHAOS_PLAN,
        retry=CHAOS_RETRY,
        probe_s=1e-6,
    )
    kw.update(overrides)
    report = fleet_replay([GTX1660] * 4, ["tiny_a", "tiny_b"], 24, 1e6, **kw)
    check_replay(report)
    return report


class TestFaultPlanValidation:
    def test_vocabularies(self):
        assert FAULT_KINDS == ("crash", "slowdown", "transient", "recover")
        assert WORKER_HEALTH == ("healthy", "degraded", "down", "recovering")

    def test_unknown_kind_rejected(self):
        with pytest.raises(PlanError, match="unknown kind"):
            FaultPlan((FaultEvent(t=0.0, worker=0, kind="meteor"),))

    def test_negative_time_rejected(self):
        with pytest.raises(PlanError, match="negative timestamp"):
            FaultPlan((FaultEvent(t=-1e-6, worker=0, kind="crash"),))

    def test_decreasing_times_rejected(self):
        with pytest.raises(PlanError, match="non-decreasing"):
            FaultPlan(
                (
                    FaultEvent(t=2e-6, worker=0, kind="crash"),
                    FaultEvent(t=1e-6, worker=0, kind="recover"),
                )
            )

    def test_negative_worker_rejected(self):
        with pytest.raises(PlanError, match="negative worker"):
            FaultPlan((FaultEvent(t=0.0, worker=-1, kind="crash"),))

    def test_slowdown_factor_below_one_rejected(self):
        with pytest.raises(PlanError, match="slowdown factor"):
            FaultPlan((FaultEvent(t=0.0, worker=0, kind="slowdown", factor=0.5),))

    def test_events_coerced_to_tuple(self):
        plan = FaultPlan([FaultEvent(t=0.0, worker=0, kind="crash")])
        assert isinstance(plan.events, tuple)
        assert len(plan) == 1

    def test_empty_plan_ok(self):
        assert len(FaultPlan(())) == 0

    def test_describe_mentions_kind_and_worker(self):
        text = CHAOS_PLAN.describe()
        assert "crash" in text and "worker#1" in text and "2 event(s)" in text


class TestFaultPlanJsonl:
    PLAN = FaultPlan(
        (
            FaultEvent(t=1e-6, worker=0, kind="slowdown", factor=2.5),
            FaultEvent(t=2e-6, worker=1, kind="crash"),
            FaultEvent(t=3e-6, worker=0, kind="recover"),
            FaultEvent(t=4e-6, worker=1, kind="recover"),
        )
    )

    def test_round_trip_equality(self, tmp_path):
        path = self.PLAN.save(tmp_path / "plan.jsonl")
        assert FaultPlan.load(path) == self.PLAN

    def test_rewrite_byte_identical(self, tmp_path):
        first = self.PLAN.save(tmp_path / "a.jsonl")
        second = FaultPlan.load(first).save(tmp_path / "b.jsonl")
        assert first.read_bytes() == second.read_bytes()

    def test_factor_only_written_for_slowdown(self, tmp_path):
        path = self.PLAN.save(tmp_path / "plan.jsonl")
        lines = path.read_text().splitlines()
        assert "factor" in lines[0]
        assert all("factor" not in line for line in lines[1:])

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(PlanError, match="not found"):
            FaultPlan.load(tmp_path / "absent.jsonl")

    def test_invalid_json_raises(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"t": 0.0, "worker":\n')
        with pytest.raises(PlanError, match="invalid JSON"):
            FaultPlan.load(bad)

    def test_non_object_line_raises(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("[1, 2, 3]\n")
        with pytest.raises(PlanError, match="object per line"):
            FaultPlan.load(bad)

    def test_missing_field_raises(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"worker": 0, "kind": "crash"}\n')
        with pytest.raises(PlanError, match="bad fault record"):
            FaultPlan.load(bad)

    def test_blank_lines_ignored(self, tmp_path):
        path = self.PLAN.save(tmp_path / "plan.jsonl")
        path.write_text(path.read_text().replace("\n", "\n\n"))
        assert FaultPlan.load(path) == self.PLAN

    @settings(max_examples=30, deadline=None)
    @given(
        raw=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1e-3, allow_nan=False),
                st.integers(min_value=0, max_value=7),
                st.sampled_from(FAULT_KINDS),
                st.floats(min_value=1.0, max_value=8.0, allow_nan=False),
            ),
            max_size=16,
        )
    )
    def test_round_trip_property(self, raw, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("faults")
        # cumulative gaps keep the schedule time-ordered
        t = 0.0
        events = []
        for gap, worker, kind, factor in raw:
            t += gap
            events.append(FaultEvent(t=t, worker=worker, kind=kind, factor=factor))
        plan = FaultPlan(tuple(events))
        first = plan.save(tmp / "a.jsonl")
        parsed = FaultPlan.load(first)
        second = parsed.save(tmp / "b.jsonl")
        assert first.read_bytes() == second.read_bytes()
        # non-slowdown events do not persist their factor field
        expected = tuple(
            ev if ev.kind == "slowdown" else FaultEvent(ev.t, ev.worker, ev.kind)
            for ev in events
        )
        assert parsed.events == expected


class TestChaosGenerator:
    def test_seeded_reproducible(self):
        a = FaultPlan.chaos(4, 1e-3, mtbf_s=1e-4, mttr_s=5e-5, seed=7)
        b = FaultPlan.chaos(4, 1e-3, mtbf_s=1e-4, mttr_s=5e-5, seed=7)
        c = FaultPlan.chaos(4, 1e-3, mtbf_s=1e-4, mttr_s=5e-5, seed=8)
        assert a == b
        assert a != c

    def test_alternates_crash_and_recover_per_worker(self):
        plan = FaultPlan.chaos(3, 1e-3, mtbf_s=1e-4, mttr_s=5e-5, seed=0)
        assert len(plan) > 0
        for wid in range(3):
            kinds = [ev.kind for ev in plan.events if ev.worker == wid]
            assert kinds == ["crash", "recover"] * (len(kinds) // 2)

    def test_slowdown_mode(self):
        plan = FaultPlan.chaos(
            2, 1e-3, mtbf_s=1e-4, mttr_s=5e-5, seed=0, slowdown_factor=3.0
        )
        faults = [ev for ev in plan.events if ev.kind != "recover"]
        assert faults and all(ev.kind == "slowdown" for ev in faults)
        assert all(ev.factor == 3.0 for ev in faults)

    def test_times_sorted(self):
        plan = FaultPlan.chaos(4, 2e-3, mtbf_s=1e-4, mttr_s=5e-5, seed=3)
        times = [ev.t for ev in plan.events]
        assert times == sorted(times)

    def test_validation(self):
        with pytest.raises(PlanError, match=">= 1 worker"):
            FaultPlan.chaos(0, 1e-3, mtbf_s=1e-4, mttr_s=1e-4)
        with pytest.raises(PlanError, match="positive duration"):
            FaultPlan.chaos(1, 0.0, mtbf_s=1e-4, mttr_s=1e-4)
        with pytest.raises(PlanError, match="positive duration"):
            FaultPlan.chaos(1, 1e-3, mtbf_s=0.0, mttr_s=1e-4)


class TestRetryPolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(max_attempts=0),
            dict(backoff_s=-1e-6),
            dict(backoff_factor=0.5),
            dict(jitter=1.5),
            dict(jitter=-0.1),
            dict(budget=-0.1),
            dict(hedge_delay_s=0.0),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(PlanError):
            RetryPolicy(**kwargs)

    def test_backoff_deterministic_and_bounded(self):
        policy = RetryPolicy(backoff_s=1e-4, backoff_factor=2.0, jitter=0.5)
        for seq in (0, 1, 17):
            for k in (1, 2, 3):
                base = 1e-4 * 2.0 ** (k - 1)
                delay = policy.backoff(seq, k)
                assert delay == policy.backoff(seq, k)
                assert base <= delay <= base * 1.5

    def test_jitter_varies_with_request(self):
        policy = RetryPolicy(backoff_s=1e-4, jitter=0.5)
        delays = {policy.backoff(seq, 1) for seq in range(8)}
        assert len(delays) > 1

    def test_backoff_grows_across_attempts(self):
        # factor 2 with jitter <= 0.5 keeps successive attempts monotone
        policy = RetryPolicy(backoff_s=1e-4, backoff_factor=2.0, jitter=0.5)
        for seq in range(4):
            assert policy.backoff(seq, 1) < policy.backoff(seq, 2) < policy.backoff(seq, 3)

    def test_retry_index_is_one_based(self):
        with pytest.raises(PlanError, match="1-based"):
            RetryPolicy().backoff(0, 0)

    def test_describe(self):
        text = RetryPolicy(hedge_delay_s=2e-3).describe()
        assert "hedge after 2.000ms" in text
        assert "no hedging" in RetryPolicy().describe()


class TestCircuitBreaker:
    def test_opens_at_threshold(self):
        br = CircuitBreaker(threshold=3, reset_s=1e-3)
        assert not br.record_failure(0.0)
        assert not br.record_failure(0.0)
        assert br.record_failure(0.0)
        assert br.state == "open"
        assert not br.allows(1e-4)

    def test_half_open_after_reset(self):
        br = CircuitBreaker(threshold=1, reset_s=1e-3)
        assert br.record_failure(0.0)
        assert br.allows(2e-3)
        assert br.state == "half_open"

    def test_half_open_failure_reopens_immediately(self):
        br = CircuitBreaker(threshold=3, reset_s=1e-3)
        for _ in range(3):
            br.record_failure(0.0)
        br.allows(2e-3)
        assert br.record_failure(2e-3)
        assert br.trips == 2

    def test_success_closes_and_resets(self):
        br = CircuitBreaker(threshold=2, reset_s=1e-3)
        br.record_failure(0.0)
        br.record_success()
        assert br.state == "closed"
        assert not br.record_failure(0.0)  # count restarted from zero

    def test_validation(self):
        with pytest.raises(PlanError, match="threshold"):
            CircuitBreaker(threshold=0)
        with pytest.raises(PlanError, match="reset_s"):
            CircuitBreaker(reset_s=0.0)

    def test_describe(self):
        assert "closed" in CircuitBreaker().describe()


class TestHedgeDelay:
    SAMPLES = [1e-3, 2e-3, 3e-3, 4e-3, 100e-3]

    def test_matches_percentile(self):
        assert hedge_delay(self.SAMPLES) == percentile(self.SAMPLES, 99.0)
        assert hedge_delay(self.SAMPLES, 50.0) == percentile(self.SAMPLES, 50.0)

    def test_multiplier(self):
        assert hedge_delay(self.SAMPLES, 50.0, multiplier=2.0) == pytest.approx(
            2.0 * percentile(self.SAMPLES, 50.0)
        )

    def test_bad_multiplier_raises(self):
        with pytest.raises(PlanError):
            hedge_delay(self.SAMPLES, multiplier=0.0)


class TestServerDrainCancel:
    def test_cancel_removes_queued_request(self):
        server = _server(max_batch=4)
        rid = server.enqueue("tiny_a")
        server.enqueue("tiny_a")
        assert server.cancel(rid)
        assert server.pending() == 1

    def test_cancel_unknown_returns_false(self):
        server = _server(max_batch=4)
        assert not server.cancel(12345)
        rid = server.enqueue("tiny_a")
        assert server.cancel(rid)
        assert not server.cancel(rid)

    def test_drain_returns_all_and_empties(self):
        server = _server(max_batch=4)
        ids = [server.enqueue("tiny_a"), server.enqueue("tiny_b"), server.enqueue("tiny_a")]
        drained = server.drain()
        assert sorted(r.id for r in drained) == sorted(ids)
        assert server.pending() == 0
        assert server.drain() == []


class TestCacheResilience:
    def test_clear_drops_entries_keeps_stats(self):
        cache = PlanCache()
        cache.get("tiny_a", DType.FP32, GTX1660)
        misses = cache.stats.misses
        assert cache.clear() == 1
        assert list(cache.keys()) == []
        assert cache.stats.misses == misses
        cache.get("tiny_a", DType.FP32, GTX1660)
        assert cache.stats.misses == misses + 1  # cleared plans rebuild on miss

    def test_adopt_shares_entry_and_counts_warm_start(self):
        donor, taker = PlanCache(), PlanCache()
        donor.get("tiny_a", DType.FP32, GTX1660)
        key = next(iter(donor.keys()))
        entry = donor.peek(key)
        adopted = taker.adopt(entry)
        assert adopted is entry  # shared object, not a rebuild
        assert taker.stats.warm_starts == 1
        assert taker.stats.misses == 0
        # adopting a resident plan is a no-op
        taker.adopt(entry)
        assert taker.stats.warm_starts == 1

    def test_rewarm_adopts_same_gpu_peers(self):
        fleet = _fleet(2)
        fleet.workers[0].server.cache.get("tiny_a", DType.FP32, GTX1660)
        fleet.workers[0].server.cache.get("tiny_b", DType.FP32, GTX1660)
        fleet.workers[1].server.cache.clear()
        assert fleet.rewarm(fleet.workers[1]) == 2
        assert fleet.workers[1].server.cache.stats.warm_starts == 2
        assert fleet.rewarm(fleet.workers[1]) == 0  # already resident


class TestForcedRemoval:
    def test_busy_removal_without_force_still_raises(self):
        fleet = _fleet(2)
        fleet.workers[0].server.enqueue("tiny_a")
        with pytest.raises(PlanError, match="busy worker"):
            fleet.remove_worker(fleet.workers[0])

    def test_force_removal_requeues_and_refunds(self):
        fleet = _fleet(2)
        victim = fleet.workers[0]
        victim.server.enqueue("tiny_a")
        victim.server.enqueue("tiny_b")
        victim.busy_until = 5e-4  # still executing a batch at t=0
        victim.busy_s = 1e-3
        drained = fleet.remove_worker(victim, force=True)
        assert [r.model for r in drained] == ["tiny_a", "tiny_b"]
        assert victim not in fleet.workers
        assert victim in fleet.retired
        assert victim.busy_until == 0.0
        assert victim.busy_s == pytest.approx(5e-4)  # un-elapsed occupancy refunded
        # survivors pick the drained work back up
        for req in drained:
            fleet.workers[0].server.enqueue(req.model)
        assert fleet.pending() == 2

    def test_retired_worker_stays_in_stats(self):
        fleet = _fleet(2)
        victim = fleet.workers[0]
        victim.server.enqueue("tiny_a")
        fleet.remove_worker(victim, force=True)
        assert victim.name in {w.worker for w in fleet.stats().per_worker}


class TestHealthRouting:
    @pytest.mark.parametrize("policy", ["affinity", "round_robin"])
    def test_down_worker_skipped(self, policy):
        fleet = _fleet(2, policy=policy)
        fleet.workers[0].health = "down"
        for _ in range(3):
            worker = fleet.scheduler.route("tiny_a", DType.FP32, 0.0)
            assert worker is fleet.workers[1]

    def test_degraded_worker_still_routable(self):
        fleet = _fleet(1)
        fleet.workers[0].health = "degraded"
        assert fleet.workers[0].routable(0.0)

    def test_all_down_route_none_and_enqueue_raises(self):
        fleet = _fleet(2)
        for worker in fleet.workers:
            worker.health = "down"
        assert fleet.scheduler.route("tiny_a", DType.FP32, 0.0) is None
        with pytest.raises(PlanError, match="fleet is down"):
            fleet.enqueue("tiny_a")

    def test_exclude_set_honoured(self):
        fleet = _fleet(2)
        keep_out = frozenset({fleet.workers[0].worker_id})
        worker = fleet.scheduler.route("tiny_a", DType.FP32, 0.0, exclude=keep_out)
        assert worker is fleet.workers[1]

    def test_open_breaker_blocks_routing_until_reset(self):
        fleet = _fleet(2)
        first = fleet.workers[0]
        first.breaker = CircuitBreaker(threshold=1, reset_s=1e-3)
        first.breaker.record_failure(0.0)
        assert not first.routable(1e-4)
        assert fleet.scheduler.route("tiny_a", DType.FP32, 1e-4) is fleet.workers[1]
        assert first.routable(2e-3)  # half-open probe after reset_s


class TestLostCapacityAutoscale:
    def test_grows_when_capacity_lost(self):
        fleet = _fleet(2)
        scaler = AutoscalePolicy(min_workers=2, max_workers=4).bind(fleet)
        fleet.workers[0].health = "down"
        event = scaler.observe(0.0)
        assert event is not None
        assert event.action == "grow"
        assert event.reason == "lost_capacity"
        assert len(fleet.workers) == 3

    def test_no_growth_when_nobody_is_down(self):
        # booting below min_workers alone must NOT trigger the lost-capacity
        # path -- that would change no-fault replays (bit-identity guard).
        fleet = _fleet(1)
        scaler = AutoscalePolicy(min_workers=2, max_workers=4).bind(fleet)
        assert scaler.observe(0.0) is None
        assert len(fleet.workers) == 1


class TestChaosReplay:
    def test_no_fault_path_bit_identical(self):
        # pinned pre-refactor float: the fault machinery must stay fully
        # disarmed when neither faults nor retry are passed
        report = fleet_replay([GTX1660] * 2, ["tiny_a", "tiny_b"], 24, 1e6, max_batch=4, seed=1)
        check_replay(report)
        assert report.throughput_img_s == 11765.578254498812
        assert report.fault_stats is None
        assert report.availability == 1.0

    def test_armed_but_quiet_injector_matches_no_fault_path(self):
        # retry armed with an empty fault plan: the deferred-commit ledger
        # must reproduce the inline path's arithmetic exactly
        base = fleet_replay([GTX1660] * 2, ["tiny_a", "tiny_b"], 24, 1e6, max_batch=4, seed=1)
        armed = fleet_replay(
            [GTX1660] * 2,
            ["tiny_a", "tiny_b"],
            24,
            1e6,
            max_batch=4,
            seed=1,
            retry=RetryPolicy(),
        )
        check_replay(base)
        check_replay(armed)
        assert armed.latencies_s == base.latencies_s
        assert armed.throughput_img_s == base.throughput_img_s
        assert [w.busy_s for w in armed.per_worker] == [w.busy_s for w in base.per_worker]
        stats = armed.fault_stats
        assert stats is not None
        assert (stats.crashes, stats.retries, stats.lost) == (0, 0, 0)
        assert stats.availability == 1.0

    def test_pinned_chaos_replay(self):
        """Acceptance: 1 of 4 workers crashes mid-stream, recovers before the
        stream ends; replay-twice byte-identical, zero lost requests."""
        first = _chaos_replay()
        second = _chaos_replay()
        assert first == second
        assert first.describe() == second.describe()
        stats = first.fault_stats
        assert stats.crashes == 1
        assert stats.recoveries == 1
        assert stats.lost == 0
        assert stats.requeues >= 1  # the crashed worker's queue moved to survivors
        assert len(first.latencies_s) == 24  # every accepted request served
        assert 0.5 < stats.availability < 1.0
        assert first.attained == 24  # SLO attainment survives the crash
        downtime = dict(stats.downtime_s)
        assert downtime[first.per_worker[1].worker] > 0.0

    def test_retries_and_failover_beat_no_retry_baseline(self):
        # worker 0 drops its first two batches; without retries those
        # requests are simply lost
        plan = FaultPlan(
            (
                FaultEvent(t=0.0, worker=0, kind="transient"),
                FaultEvent(t=0.0, worker=0, kind="transient"),
            )
        )
        kw = dict(max_batch=4, seed=1, slo_s=5e-3)
        baseline = fleet_replay([GTX1660] * 2, ["tiny_a"], 16, 1e6, faults=plan, **kw)
        retried = fleet_replay(
            [GTX1660] * 2,
            ["tiny_a"],
            16,
            1e6,
            faults=plan,
            retry=RetryPolicy(max_attempts=3, budget=1.0),
            **kw,
        )
        check_replay(baseline)
        check_replay(retried)
        assert baseline.fault_stats.lost > 0
        assert retried.fault_stats.lost == 0
        assert len(retried.latencies_s) == 16
        assert retried.attained > baseline.attained
        assert retried.fault_stats.retries > 0

    def test_retry_budget_denial(self):
        plan = FaultPlan((FaultEvent(t=0.0, worker=0, kind="transient"),))
        report = fleet_replay(
            [GTX1660] * 2,
            ["tiny_a"],
            16,
            1e6,
            max_batch=4,
            seed=1,
            faults=plan,
            retry=RetryPolicy(max_attempts=3, budget=0.0),
        )
        check_replay(report)
        stats = report.fault_stats
        assert stats.retries == 0
        assert stats.budget_denied > 0
        assert stats.lost > 0

    def test_breaker_trips_recorded(self):
        plan = FaultPlan((FaultEvent(t=0.0, worker=0, kind="transient"),))
        report = fleet_replay(
            [GTX1660] * 2,
            ["tiny_a"],
            16,
            1e6,
            max_batch=4,
            seed=1,
            faults=plan,
            retry=RetryPolicy(max_attempts=3, budget=1.0),
            breaker_threshold=1,
        )
        check_replay(report)
        assert report.fault_stats.transients == 1
        assert report.fault_stats.breaker_trips >= 1
        assert report.fault_stats.lost == 0

    def test_slowdown_stretches_execution(self):
        plan = FaultPlan((FaultEvent(t=0.0, worker=0, kind="slowdown", factor=8.0),))
        base = fleet_replay([GTX1660], ["tiny_a"], 16, 1e6, max_batch=4, seed=1)
        slow = fleet_replay([GTX1660], ["tiny_a"], 16, 1e6, max_batch=4, seed=1, faults=plan)
        check_replay(base)
        check_replay(slow)
        assert slow.fault_stats.slowdowns == 1
        assert slow.throughput_img_s < base.throughput_img_s
        assert slow.fault_stats.availability == 1.0  # degraded, never down

    def test_recovery_rewarms_plan_cache(self):
        fleet = _fleet(4, max_batch=4)
        # max_batch is the fleet's own setting, so it is not passed again
        report = fleet_replay(
            [GTX1660] * 4, ["tiny_a", "tiny_b"], 24, 1e6, seed=1, slo_s=5e-3,
            faults=CHAOS_PLAN, retry=CHAOS_RETRY, probe_s=1e-6, fleet=fleet,
        )
        check_replay(report)
        assert report.fault_stats.recoveries == 1
        # the crash wiped worker #1's plans; recovery adopted them back from
        # same-GPU peers instead of re-planning on the critical path
        assert fleet.workers[1].server.cache.stats.warm_starts >= 1

    def test_hedging_accounting_is_consistent(self):
        plan = FaultPlan((FaultEvent(t=0.0, worker=0, kind="slowdown", factor=50.0),))
        kw = dict(
            max_batch=8,
            seed=1,
            slo_s=5e-3,
            faults=plan,
            retry=RetryPolicy(max_attempts=2, budget=1.0, hedge_delay_s=5e-6),
        )
        first = fleet_replay([GTX1660] * 2, ["tiny_a"], 8, 1e6, **kw)
        second = fleet_replay([GTX1660] * 2, ["tiny_a"], 8, 1e6, **kw)
        check_replay(first)
        assert first == second
        stats = first.fault_stats
        assert stats.hedges > 0
        assert len(first.latencies_s) == 8  # first-wins: no double commits
        assert stats.hedges_won <= stats.hedges
        # every hedged request has exactly one losing copy: settled-late
        # (wasted) or yanked from a queue on first-wins (cancelled)
        assert stats.hedges_wasted + stats.hedges_cancelled == stats.hedges
        assert stats.lost == 0

    def test_autoscaled_chaos_replay_deterministic(self):
        plan = FaultPlan(
            (
                FaultEvent(t=5e-6, worker=0, kind="crash"),
                FaultEvent(t=15e-6, worker=0, kind="recover"),
            )
        )
        kw = dict(
            max_batch=4,
            seed=1,
            slo_s=5e-3,
            faults=plan,
            retry=CHAOS_RETRY,
            probe_s=1e-6,
            autoscale=AutoscalePolicy(min_workers=2, max_workers=4),
        )
        first = fleet_replay([GTX1660] * 2, ["tiny_a", "tiny_b"], 32, 1e6, **kw)
        second = fleet_replay([GTX1660] * 2, ["tiny_a", "tiny_b"], 32, 1e6, **kw)
        check_replay(first)
        assert first == second
        assert any(ev.reason == "lost_capacity" for ev in first.scale_events)
        assert first.fault_stats.lost == 0

    def test_total_outage_parks_then_loses(self):
        plan = FaultPlan(
            (
                FaultEvent(t=1e-7, worker=0, kind="crash"),
                FaultEvent(t=1e-7, worker=1, kind="crash"),
            )
        )
        report = fleet_replay(
            [GTX1660] * 2, ["tiny_a"], 8, 1e6, max_batch=4, seed=1, faults=plan
        )
        check_replay(report)
        stats = report.fault_stats
        assert stats.lost == 8
        assert report.latencies_s == []
        assert math.isnan(report.latency_p50_s)
        assert stats.availability < 0.1

    def test_parked_requests_served_after_recovery(self):
        plan = FaultPlan(
            (
                FaultEvent(t=1e-7, worker=0, kind="crash"),
                FaultEvent(t=1e-7, worker=1, kind="crash"),
                FaultEvent(t=10e-6, worker=0, kind="recover"),
            )
        )
        report = fleet_replay(
            [GTX1660] * 2,
            ["tiny_a"],
            8,
            1e6,
            max_batch=4,
            seed=1,
            faults=plan,
            probe_s=1e-6,
        )
        check_replay(report)
        assert report.fault_stats.lost == 0
        assert len(report.latencies_s) == 8

    def test_fault_stats_in_describe(self):
        report = _chaos_replay()
        text = report.describe()
        assert "availability" in text
        assert "1 crash" in text
