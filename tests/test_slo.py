"""SLO traffic-layer suite: deadlines, admission, autoscaling, and the
deterministic replay harness around them.

Covers the acceptance criteria of the SLO-aware serving PR:

* **regression** — the default (no-SLO) replay paths stay *bit-identical* to
  the pre-refactor harness (pinned floats captured before the refactor);
* **attainment** — on a seeded heavy-tailed 16x-overload stream, admission
  control + deadline-aware flushing strictly improves SLO attainment over
  the accept-everything baseline, and the 0.5x-100x attainment curve is
  replay-deterministic;
* **autoscaler** — grows under backlog, shrinks when idle, honours its
  cooldown;
* **property tests** (hypothesis) — arrival generators are sorted,
  non-negative and seed-reproducible; the JSONL trace round trip is
  byte-identical; the diurnal generator hits its mean rate.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import check_replay, register_tiny_zoo
from repro.cli import main
from repro.core.dtypes import DType
from repro.errors import PlanError
from repro.gpu.specs import GTX1660
from repro.serve import (
    ARRIVAL_KINDS,
    AdmissionController,
    AutoscalePolicy,
    FakeClock,
    Fleet,
    ModelServer,
    TraceRequest,
    admission_controller,
    attainment_curve,
    capacity_rps,
    diurnal_arrival_times,
    fleet_replay,
    generate_arrivals,
    lognormal_arrival_times,
    pareto_arrival_times,
    percentile,
    read_trace,
    write_trace,
)


@pytest.fixture(autouse=True)
def tiny_zoo(monkeypatch):
    register_tiny_zoo(monkeypatch)


def _server(**kw) -> ModelServer:
    clock = FakeClock()
    kw.setdefault("clock", clock)
    kw.setdefault("sleep", clock.sleep)
    srv = ModelServer(GTX1660, **kw)
    srv.test_clock = clock
    return srv


def _fleet(n=1, **kw) -> Fleet:
    clock = FakeClock()
    kw.setdefault("clock", clock)
    kw.setdefault("sleep", clock.sleep)
    fleet = Fleet([GTX1660] * n, **kw)
    fleet.test_clock = clock
    return fleet


# The pinned SLO scenario every acceptance test below shares: a seeded
# heavy-tailed stream against tiny_a with an SLO of four full micro-batches
# of analytic work.  256 requests span many SLO windows, which is what lets
# bounded backlog (admission) beat the accept-everything baseline.
SLO_BATCHES = 4
MAX_BATCH = 8
N_REQUESTS = 256
SEED = 7


def _slo_s() -> float:
    cap = capacity_rps(GTX1660, "tiny_a", max_batch=MAX_BATCH)
    return SLO_BATCHES * MAX_BATCH / cap


# ---- regression: the no-SLO replay paths are bit-identical ------------------


class TestRegressionBitIdentical:
    """Pinned floats captured from the pre-refactor harness (`git show
    HEAD:src/repro/serve/loadgen.py` before the SLO layer landed).  Exact
    equality on purpose: the refactored flush arithmetic must reduce to the
    old `oldest + max_delay_s` when no request carries a deadline."""

    def test_uniform_replay_unchanged(self):
        r = fleet_replay([GTX1660], "tiny_a", 32, 1e7, max_batch=8)
        check_replay(r)
        assert r.throughput_img_s == 409214.91361018503
        assert r.latency_p50_s == 5.6523888888888874e-05
        assert r.latency_p99_s == 7.57985185185185e-05
        assert r.duration_s == 7.81985185185185e-05
        assert r.mean_batch == 8.0
        assert r.energy_per_image_j == 4.625449746666667e-05
        assert r.planner_invocations == 1
        # no SLO in play: the report's SLO accounting stays disarmed
        assert r.slo_s is None and r.attainment is None
        assert (r.shed, r.degraded, r.late) == (0, 0, 0)

    def test_poisson_replay_unchanged(self):
        r = fleet_replay([GTX1660], "tiny_a", 24, 2e5, max_batch=4, poisson=True, seed=3)
        check_replay(r)
        assert r.throughput_img_s == 189368.9514480203
        assert r.latency_p50_s == 3.2590017136664413e-05
        assert r.latency_p99_s == 4.269784230528658e-05
        assert r.mean_batch == 4.0

    def test_fleet_replay_unchanged(self):
        r = fleet_replay(
            [GTX1660, GTX1660], ["tiny_a", "tiny_b"], 24, 1e6, max_batch=4, seed=1
        )
        check_replay(r)
        assert r.throughput_img_s == 11765.578254498812
        assert r.latency_p50_s == 3.159666384786543e-05
        assert r.latency_p99_s == 0.0020179627897584235
        assert r.mean_batch == 3.4285714285714284
        assert r.plan_hit_rate == 0.5714285714285714
        assert r.planner_invocations == 3
        per = [(w.worker, w.requests, w.batches, w.busy_s) for w in r.per_worker]
        assert per == [
            ("GTX#0", 15, 4, 7.135778553022167e-05),
            ("GTX#1", 9, 3, 5.3808717380069184e-05),
        ]
        assert r.scale_events == () and r.slo_per_worker == ()


class TestConcurrentFlushes:
    """Two partial batches that flush at the same instant run back to back on
    their one device: the second batch's request waits for the first to
    finish, and its latency must say so."""

    TRACE = (
        TraceRequest(0.0, "tiny_a"),
        TraceRequest(0.0, "tiny_b"),
        TraceRequest(10e-3, "tiny_a"),
    )

    def test_second_batch_waits_for_the_device(self):
        r = fleet_replay([GTX1660], request_trace=self.TRACE, max_delay_s=1e-3)
        check_replay(r)
        # tiny_a at 0 and at 10 ms: 1 ms formation + 16.64 us execution;
        # tiny_b at 0 also waits out tiny_a's execution before its own.
        assert r.latencies_s == pytest.approx(
            [1.01664e-3, 1.01664e-3, 1.03349e-3], abs=5e-9
        )

    def test_cli_serve_reports_the_device_wait(self, tmp_path, capsys):
        path = write_trace(tmp_path / "burst.jsonl", self.TRACE)
        assert main([
            "serve", "tiny_a", "--gpu", "GTX", "--trace", str(path),
            "--max-delay-ms", "1",
        ]) == 0
        assert "p99 1.033 ms" in capsys.readouterr().out


# ---- percentile contract ----------------------------------------------------


class TestPercentile:
    def test_empty_raises_clear_valueerror(self):
        with pytest.raises(ValueError, match="empty sample set"):
            percentile([], 99)

    def test_nearest_rank_above(self):
        samples = [1.0, 2.0, 3.0, 4.0]
        # always an observed value at or above the requested rank
        assert percentile(samples, 50) == 3.0
        assert percentile(samples, 99) == 4.0


# ---- deadlines and priorities on the server ---------------------------------


class TestDeadlines:
    def test_deadline_pulls_flush_earlier_than_max_delay(self):
        srv = _server(max_batch=8, max_delay_s=1.0)
        srv.enqueue("tiny_a", slo_s=1e-4)
        deadline = srv.next_deadline()
        # without the SLO the queue would sit until oldest + 1s
        assert deadline is not None and deadline < 1.0
        # the flush is scheduled with enough slack to execute the batch
        assert deadline <= 1e-4

    def test_invalid_slo_rejected(self):
        srv = _server()
        with pytest.raises(PlanError, match="slo_s must be > 0"):
            srv.enqueue("tiny_a", slo_s=0.0)

    def test_priority_jumps_queue(self):
        srv = _server(max_batch=2, max_delay_s=1.0)
        srv.enqueue("tiny_a")
        srv.enqueue("tiny_a")
        srv.enqueue("tiny_a")
        urgent = srv.enqueue("tiny_a", priority=5)
        results = srv.step(force=True)
        first_batch = [r.request_id for r in results[:2]]
        assert urgent in first_batch


# ---- admission control ------------------------------------------------------


class TestAdmission:
    def test_policy_and_margin_validation(self):
        with pytest.raises(PlanError, match="unknown admission policy"):
            AdmissionController("panic")
        with pytest.raises(PlanError, match="margin must be > 0"):
            AdmissionController("shed", margin=0.0)

    def test_resolver(self):
        assert admission_controller(None) is None
        assert admission_controller("none") is None
        assert admission_controller("") is None
        ctrl = AdmissionController("shed")
        assert admission_controller(ctrl) is ctrl
        assert admission_controller("degrade").policy == "degrade"

    def test_accepts_on_idle_server(self):
        srv = _server()
        ctrl = AdmissionController("degrade")
        decision = ctrl.decide(srv, "tiny_a", DType.FP32, 1.0)
        assert decision.action == "accept" and decision.admitted
        assert ctrl.stats.offered == ctrl.stats.accepted == 1

    def test_degrades_then_sheds_as_backlog_grows(self):
        srv = _server(max_batch=4, max_delay_s=1.0)
        ctrl = AdmissionController("degrade")
        # a tight SLO: two full micro-batches of fp32 work
        cap = capacity_rps(GTX1660, "tiny_a", max_batch=4)
        slo = 2 * 4 / cap
        actions = []
        for _ in range(64):
            d = ctrl.decide(srv, "tiny_a", DType.FP32, slo)
            actions.append(d.action)
            if d.admitted:
                dtype = DType.FP32 if d.action == "accept" else ctrl.degrade_dtype
                srv.enqueue("tiny_a", dtype=dtype, slo_s=slo)
        assert actions[0] == "accept"
        # the projection crosses the SLO in fp32 first (degrade), then in
        # int8 too (shed) — all three outcomes appear, in that order
        assert "degrade" in actions and "shed" in actions
        assert actions.index("degrade") < actions.index("shed")
        assert ctrl.stats.offered == 64
        assert ctrl.stats.shed == actions.count("shed")

    def test_shed_policy_never_degrades(self):
        srv = _server(max_batch=4, max_delay_s=1.0)
        ctrl = AdmissionController("shed")
        cap = capacity_rps(GTX1660, "tiny_a", max_batch=4)
        slo = 2 * 4 / cap
        for _ in range(64):
            d = ctrl.decide(srv, "tiny_a", DType.FP32, slo)
            if d.admitted:
                srv.enqueue("tiny_a", slo_s=slo)
        assert ctrl.stats.degraded == 0
        assert ctrl.stats.shed > 0


# ---- the acceptance criteria ------------------------------------------------


class TestAttainment:
    def test_admission_strictly_improves_attainment_at_16x(self):
        """The headline claim: on the seeded 16x-overload heavy-tailed
        stream, admission control + deadline-aware flushing beats the
        no-admission baseline on SLO attainment."""
        slo = _slo_s()
        cap = capacity_rps(GTX1660, "tiny_a", max_batch=MAX_BATCH)
        kw = dict(arrival="lognormal", slo_s=slo, max_batch=MAX_BATCH, seed=SEED)
        base = fleet_replay([GTX1660], "tiny_a", N_REQUESTS, cap * 16, **kw)
        adm = fleet_replay(
            [GTX1660], "tiny_a", N_REQUESTS, cap * 16, admission="degrade", **kw
        )
        check_replay(base)
        check_replay(adm)
        assert base.shed == 0
        assert adm.shed > 0
        assert adm.attained > base.attained
        assert adm.attainment > base.attainment

    def test_attainment_curve_shape(self):
        pts = attainment_curve(
            GTX1660,
            "tiny_a",
            slo_s=_slo_s(),
            overloads=(0.5, 1.0, 2.0, 4.0, 10.0, 16.0, 50.0, 100.0),
            n_requests=N_REQUESTS,
            seed=SEED,
        )
        att = [p.attainment for p in pts]
        # monotonically non-increasing, 100% under capacity
        assert all(a >= b for a, b in zip(att, att[1:])), att
        assert att[0] == 1.0
        # at 10x overload the degrade path is live
        ten_x = pts[4]
        assert ten_x.overload == 10.0 and ten_x.degraded > 0
        # every offered request lands in exactly one bucket
        for p in pts:
            assert p.served + p.shed == p.offered
            assert p.attained + p.late == p.served

    def test_attainment_curve_pinned(self):
        """Exact pinned counts for the seeded scenario — any cost-model or
        harness change that moves these must be deliberate."""
        pts = attainment_curve(
            GTX1660,
            "tiny_a",
            slo_s=_slo_s(),
            overloads=(0.5, 1.0, 2.0, 4.0, 10.0, 16.0, 50.0, 100.0),
            n_requests=N_REQUESTS,
            seed=SEED,
        )
        assert [p.attained for p in pts] == [256, 194, 94, 65, 41, 33, 32, 32]
        assert [p.shed for p in pts] == [0, 36, 128, 176, 208, 216, 223, 223]
        assert [p.degraded for p in pts] == [0, 16, 32, 40, 16, 8, 1, 1]
        assert [p.late for p in pts] == [0, 26, 34, 15, 7, 7, 1, 1]

    def test_attainment_curve_replay_deterministic(self):
        """The 1x-100x curve replayed twice is identical, point for point
        (frozen dataclass equality covers every count and the p99 float)."""
        kw = dict(
            slo_s=_slo_s(),
            overloads=(1.0, 4.0, 16.0, 100.0),
            n_requests=N_REQUESTS,
            seed=SEED,
        )
        first = attainment_curve(GTX1660, "tiny_a", **kw)
        second = attainment_curve(GTX1660, "tiny_a", **kw)
        assert first == second


class TestReplayDeterminism:
    def test_admission_replay_twice_identical(self):
        kw = dict(
            arrival="pareto",
            slo_s=_slo_s(),
            admission="degrade",
            max_batch=MAX_BATCH,
            seed=SEED,
        )
        cap = capacity_rps(GTX1660, "tiny_a", max_batch=MAX_BATCH)
        a = fleet_replay([GTX1660], "tiny_a", 96, cap * 8, **kw)
        b = fleet_replay([GTX1660], "tiny_a", 96, cap * 8, **kw)
        check_replay(a)
        assert a.latencies_s == b.latencies_s
        assert (a.attained, a.shed, a.degraded, a.late) == (
            b.attained,
            b.shed,
            b.degraded,
            b.late,
        )
        assert a.throughput_img_s == b.throughput_img_s

    def test_fleet_autoscale_replay_twice_identical(self):
        kw = dict(
            max_batch=4,
            arrival="lognormal",
            slo_s=_slo_s(),
            admission="degrade",
            autoscale=AutoscalePolicy(
                min_workers=1, max_workers=4, grow_backlog_s=2e-5,
                shrink_backlog_s=1e-6,
            ),
            seed=SEED,
        )
        cap = capacity_rps(GTX1660, "tiny_a", max_batch=4)
        a = fleet_replay([GTX1660], ["tiny_a"], 64, cap * 8, **kw)
        b = fleet_replay([GTX1660], ["tiny_a"], 64, cap * 8, **kw)
        check_replay(a)
        assert a.latencies_s == b.latencies_s
        assert a.scale_events == b.scale_events
        assert a.slo_per_worker == b.slo_per_worker
        assert (a.attained, a.shed, a.degraded) == (b.attained, b.shed, b.degraded)


# ---- autoscaler -------------------------------------------------------------


class TestAutoscaler:
    def _loaded_fleet(self):
        """One-worker fleet with a backlog of deadline-stamped requests (the
        eager planning makes the queue-cost estimate non-zero)."""
        fleet = _fleet(1, max_batch=4, max_delay_s=1.0)
        for _ in range(16):
            fleet.enqueue("tiny_a", slo_s=1.0)
        return fleet

    def test_policy_validation(self):
        fleet = _fleet(1)
        with pytest.raises(PlanError, match="min_workers"):
            AutoscalePolicy(min_workers=0).bind(fleet)
        with pytest.raises(PlanError, match="max_workers"):
            AutoscalePolicy(min_workers=4, max_workers=2).bind(fleet)
        with pytest.raises(PlanError, match="grow_backlog_s > shrink_backlog_s"):
            AutoscalePolicy(grow_backlog_s=1e-6, shrink_backlog_s=1e-3).bind(fleet)
        with pytest.raises(PlanError, match="cooldown_s"):
            AutoscalePolicy(cooldown_s=-1.0).bind(fleet)

    def test_grows_under_backlog(self):
        fleet = self._loaded_fleet()
        scaler = AutoscalePolicy(
            max_workers=3, grow_backlog_s=1e-7, shrink_backlog_s=1e-8
        ).bind(fleet)
        event = scaler.observe(0.0)
        assert event is not None and event.action == "grow"
        assert event.workers == 2 and len(fleet.workers) == 2
        # a second observation under the same backlog grows to the cap...
        assert scaler.observe(0.0).workers == 3
        # ...and then holds: max_workers is a hard bound
        assert scaler.observe(0.0) is None
        assert scaler.peak_workers == 3

    def test_shrinks_when_idle(self):
        fleet = self._loaded_fleet()
        scaler = AutoscalePolicy(
            max_workers=2, grow_backlog_s=1e-7, shrink_backlog_s=1e-8
        ).bind(fleet)
        scaler.observe(0.0)
        assert len(fleet.workers) == 2
        # drain everything, then move past any residual device occupancy
        while fleet.pending():
            fleet.step(force=True)
        now = max(w.busy_until for w in fleet.workers) + 1.0
        fleet.test_clock.t = now
        event = scaler.observe(now)
        assert event is not None and event.action == "shrink"
        # the highest-numbered idle worker retires, and its accounting stays
        assert event.worker == "GTX#1" and len(fleet.workers) == 1
        assert fleet.retired[0].name == "GTX#1"
        assert any(w.worker == "GTX#1" for w in fleet.stats().per_worker)
        # min_workers is a floor: no further shrink
        assert scaler.observe(now + 1.0) is None

    def test_cooldown_rate_limits_actions(self):
        fleet = self._loaded_fleet()
        scaler = AutoscalePolicy(
            max_workers=4, grow_backlog_s=1e-7, shrink_backlog_s=1e-8,
            cooldown_s=0.5,
        ).bind(fleet)
        assert scaler.observe(0.0).action == "grow"
        # still in cooldown: the signal is ignored even though backlog is high
        assert scaler.observe(0.25) is None
        assert scaler.in_cooldown(0.25)
        assert scaler.observe(0.5).action == "grow"
        assert [e.t for e in scaler.events] == [0.0, 0.5]

    def test_remove_worker_guards(self):
        fleet = _fleet(2, max_batch=4, max_delay_s=1.0)
        lone = _fleet(1)
        with pytest.raises(PlanError, match="last worker"):
            lone.remove_worker(lone.workers[0])
        fleet.enqueue("tiny_a", slo_s=1.0)
        busy = next(w for w in fleet.workers if w.server.pending())
        with pytest.raises(PlanError, match="busy worker"):
            fleet.remove_worker(busy)
        with pytest.raises(PlanError, match="not an active worker"):
            fleet.remove_worker(lone.workers[0])

    def test_fleet_replay_grows_and_settles_back(self):
        cap = capacity_rps(GTX1660, "tiny_a", max_batch=4)
        r = fleet_replay(
            [GTX1660],
            ["tiny_a"],
            64,
            cap * 8,
            max_batch=4,
            arrival="lognormal",
            slo_s=_slo_s(),
            autoscale=AutoscalePolicy(
                min_workers=1, max_workers=4, grow_backlog_s=2e-5,
                shrink_backlog_s=1e-6,
            ),
            seed=SEED,
        )
        check_replay(r)
        actions = [e.action for e in r.scale_events]
        assert "grow" in actions
        assert r.peak_workers > 1
        # after the stream drains, the settling pass retires idle capacity
        assert actions and actions[-1] == "shrink"
        assert r.scale_events[-1].workers == 1


# ---- arrival generators (hypothesis) ----------------------------------------

gen_args = dict(max_examples=30, deadline=None)


class TestGenerators:
    @settings(**gen_args)
    @given(
        kind=st.sampled_from(ARRIVAL_KINDS),
        n=st.integers(min_value=1, max_value=200),
        rate=st.floats(min_value=1.0, max_value=1e6),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_sorted_nonnegative_reproducible(self, kind, n, rate, seed):
        times = generate_arrivals(kind, n, rate, seed=seed)
        assert len(times) == n
        assert all(t >= 0 and math.isfinite(t) for t in times)
        assert times == sorted(times)
        assert generate_arrivals(kind, n, rate, seed=seed) == times

    @settings(**gen_args)
    @given(
        rate=st.floats(min_value=10.0, max_value=1e5),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_heavy_tail_mean_rate(self, rate, seed):
        """Lognormal/Pareto gaps have mean 1/rate: the realized rate of a
        long stream lands near the spec (law of large numbers, wide
        tolerance for the heavy tail)."""
        n = 600
        for times in (
            lognormal_arrival_times(n, rate, seed=seed),
            pareto_arrival_times(n, rate, seed=seed),
        ):
            realized = (n - 1) / (times[-1] - times[0])
            assert realized == pytest.approx(rate, rel=0.35)

    @settings(**gen_args)
    @given(
        rate=st.floats(min_value=10.0, max_value=1e4),
        amplitude=st.floats(min_value=0.0, max_value=0.6),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_diurnal_mean_rate(self, rate, amplitude, seed):
        """The sinusoidal modulation integrates out over many periods: the
        realized mean rate matches the spec within CLT tolerance."""
        n = 400
        period = n / rate / 10  # ~10 full periods over the stream
        times = diurnal_arrival_times(
            n, rate, period_s=period, amplitude=amplitude, seed=seed
        )
        realized = (n - 1) / (times[-1] - times[0])
        assert realized == pytest.approx(rate, rel=0.2)

    def test_unknown_kind_rejected(self):
        with pytest.raises(PlanError, match="unknown arrival kind"):
            generate_arrivals("bursty", 8, 100.0)

    def test_different_seeds_differ(self):
        assert lognormal_arrival_times(32, 100.0, seed=0) != lognormal_arrival_times(
            32, 100.0, seed=1
        )


# ---- trace files ------------------------------------------------------------

_trace_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        st.sampled_from(["tiny_a", "tiny_b"]),
        st.sampled_from(["fp32", "int8"]),
        st.one_of(st.none(), st.floats(min_value=1e-6, max_value=1.0)),
        st.integers(min_value=0, max_value=9),
    ),
    min_size=1,
    max_size=20,
)


class TestTraces:
    @settings(**gen_args)
    @given(raw=_trace_strategy)
    def test_round_trip_byte_identical(self, raw, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("trace")
        # cumulative arrival times keep the trace sorted
        t = 0.0
        reqs = []
        for gap, model, dtype, slo, prio in raw:
            t += gap
            reqs.append(TraceRequest(t, model, dtype=dtype, slo_s=slo, priority=prio))
        first = tmp / "a.jsonl"
        second = tmp / "b.jsonl"
        write_trace(first, reqs)
        parsed = read_trace(first)
        assert parsed == reqs
        write_trace(second, parsed)
        assert first.read_bytes() == second.read_bytes()

    def test_validation(self, tmp_path):
        with pytest.raises(PlanError, match="non-decreasing"):
            write_trace(
                tmp_path / "t.jsonl",
                [TraceRequest(1.0, "tiny_a"), TraceRequest(0.5, "tiny_a")],
            )
        with pytest.raises(PlanError, match="negative arrival"):
            write_trace(tmp_path / "t.jsonl", [TraceRequest(-1.0, "tiny_a")])
        with pytest.raises(PlanError, match="slo_s must be > 0"):
            write_trace(
                tmp_path / "t.jsonl", [TraceRequest(0.0, "tiny_a", slo_s=0.0)]
            )
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        with pytest.raises(PlanError, match="malformed trace line"):
            read_trace(bad)

    def test_unknown_dtype_rejected_before_replay(self, tmp_path):
        """A dtype outside DType is refused by every trace entry point, not
        discovered mid-replay as a raw ValueError."""
        match = "trace entry 1: unknown dtype 'fp16'"
        path = tmp_path / "fp16.jsonl"
        path.write_text(
            '{"dtype":"fp32","model":"tiny_a","priority":0,"slo_s":null,"t":0.0}\n'
            '{"dtype":"fp16","model":"tiny_a","priority":0,"slo_s":null,"t":0.001}\n'
        )
        with pytest.raises(PlanError, match=match):
            read_trace(path)
        reqs = [TraceRequest(0.0, "tiny_a"), TraceRequest(1e-3, "tiny_a", dtype="fp16")]
        with pytest.raises(PlanError, match=match):
            write_trace(tmp_path / "out.jsonl", reqs)
        with pytest.raises(PlanError, match=match):
            fleet_replay([GTX1660], request_trace=reqs)

    def test_trace_driven_replay_with_mixed_slo(self, tmp_path):
        """Per-entry SLOs win over the global default, and best-effort
        entries (no SLO) count as attained when served."""
        reqs = [
            TraceRequest(i * 1e-4, "tiny_a", slo_s=1.0 if i % 2 else None)
            for i in range(16)
        ]
        path = write_trace(tmp_path / "mixed.jsonl", reqs)
        r = fleet_replay([GTX1660], request_trace=read_trace(path), max_batch=4)
        check_replay(r)
        assert r.n_requests == 16
        assert r.slo_s is not None  # armed by the entries that carry one
        # stream is unloaded: everything makes its deadline (or had none)
        assert r.attained == 16 and r.late == 0
        assert r.attainment == 1.0
