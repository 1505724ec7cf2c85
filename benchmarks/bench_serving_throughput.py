"""Serving throughput: batch size x model zoo sweep through `repro.serve`.

Not a paper artifact — this is the repo's throughput/serving scenario: plan
once via the LRU PlanCache, then execute batched passes whose launch
overheads and weight re-streams amortize across the micro-batch.  Reports
img/s, per-image latency and energy per batch size, plus a replayed request
stream's p50/p99 latency under micro-batching.
"""

import time
from collections import Counter

import pytest

from repro.core.dtypes import DType
from repro.experiments import format_table
from repro.gpu.specs import GTX1660, ORIN, RTX_A4000
from repro.models.zoo import CNN_MODELS
from repro.planner.plan import ChainStep, LblStep
from repro.runtime import session as runtime_session
from repro.runtime.session import InferenceSession, price_key
from repro.serve import FakeClock, Fleet, ModelServer, PlanCache, fleet_replay

BATCHES = (1, 2, 4, 8, 16)


def test_serving_throughput_sweep(benchmark, once, capsys):
    server = ModelServer(RTX_A4000, cache_capacity=len(CNN_MODELS))

    def sweep():
        return {
            model: [server.submit_analytic(model, b) for b in BATCHES]
            for model in CNN_MODELS
        }

    reports = once(benchmark, sweep)
    with capsys.disabled():
        print("\n[Serving] batch sweep on RTX A4000 (fp32, analytic)")
        rows = []
        for model, reps in reports.items():
            base = reps[0].throughput_img_s
            for b, rep in zip(BATCHES, reps):
                rows.append([
                    model, b, f"{rep.throughput_img_s:.0f}",
                    f"{rep.latency_per_image_s * 1e3:.4f}",
                    f"{rep.energy_per_image_j * 1e3:.3f}",
                    f"{rep.throughput_img_s / base:.2f}x",
                ])
        print(format_table(
            ["model", "batch", "img/s", "ms/img", "mJ/img", "vs b=1"], rows
        ))
        stats = server.cache.stats
        print(f"-> {stats.planner_invocations} planning passes for "
              f"{len(CNN_MODELS)} models x {len(BATCHES)} batch sizes "
              f"({stats.hits} cache hits)")

    # One planning pass per model, however many batch sizes were served.
    assert server.cache.stats.planner_invocations == len(CNN_MODELS)
    # Batching must strictly pay on every model (acceptance: at least
    # MobileNetV2 and Xception improve from batch 1 -> 8).
    for model, reps in reports.items():
        tp = [r.throughput_img_s for r in reps]
        assert all(b > a for a, b in zip(tp, tp[1:])), (
            f"{model}: throughput not strictly increasing: {tp}"
        )


@pytest.mark.parametrize("rate", [2000.0, 8000.0], ids=["2krps", "8krps"])
def test_serving_stream_latency(benchmark, once, capsys, rate):
    report = once(
        benchmark,
        lambda: fleet_replay(
            [RTX_A4000], "mobilenet_v2", n_requests=128, rate_rps=rate,
            dtype=DType.FP32, max_batch=8,
        ),
    )
    with capsys.disabled():
        print(f"\n[Serving] {report.describe()}")
    assert report.planner_invocations == 1
    assert report.latency_p99_s >= report.latency_p50_s > 0
    assert report.throughput_img_s > 0


#: plan-cache probes per replayed request the serving bookkeeping may make.
#: Plan residency, prices, dues and backlogs are memoized until the resident
#: plans move, which they never do on a preplanned fleet, so only each
#: memo's first read peeks (0.04 per request).  Routing's residency check
#: and the SLO enqueue's eager-planning check cost 5 per request without
#: their memo, and re-deriving everything on every read costs 43, so a memo
#: that stops being used fails this bound.
MAX_PEEKS_PER_REQUEST = 1


def test_bench_replay_bookkeeping(benchmark, once, capsys, monkeypatch):
    """Count the bookkeeping of one replay over the repo benchmark's fleet:
    2000 Poisson requests at 6000 req/s over RTX+GTX+Orin+RTX, 10 ms SLO,
    degrade admission, every plan preplanned.  The guards are counts, which
    are deterministic (a timing bound would not be): ``PlanCache.peek``
    calls per request, ``ModelServer.step`` calls that flush nothing (a
    fleet pump steps only its due workers, so there are none), analytic
    reports per (plan key, batch size) (same-GPU workers share one entry,
    so at most one), and estimator calls (``chain_counters`` and
    ``lbl_counters``): at most one per distinct DW/PW step of each resident
    plan the replay priced, since a session derives its steps' counters
    once.  The wall time rides along in ``extra_info``."""
    gpus = (RTX_A4000, GTX1660, ORIN, RTX_A4000)
    models = ("mobilenet_v1", "mobilenet_v2", "proxylessnas", "xception")
    n = 2000
    clock = FakeClock()
    fleet = Fleet(gpus, max_batch=8, max_delay_s=2e-3, clock=clock, sleep=clock.sleep)
    fleet.preplan(models, (DType.FP32, DType.INT8))
    resident = {
        id(entry.session): entry
        for w in fleet.workers
        for entry in map(w.server.cache.peek, w.server.cache.keys())
    }
    peeks = steps = idle_steps = estimator_calls = 0
    reports: Counter = Counter()
    peek = PlanCache.peek
    step = ModelServer.step
    run_analytic_batch = InferenceSession.run_analytic_batch

    def counted_report(session, batch_size):
        reports[resident[id(session)].key, batch_size] += 1
        return run_analytic_batch(session, batch_size)

    def counted_estimator(estimator):
        def counted(*args):
            nonlocal estimator_calls
            estimator_calls += 1
            return estimator(*args)
        return counted

    monkeypatch.setattr(InferenceSession, "run_analytic_batch", counted_report)
    for name in ("chain_counters", "lbl_counters"):
        estimator = getattr(runtime_session, name)
        monkeypatch.setattr(runtime_session, name, counted_estimator(estimator))

    def counted(cache, key):
        nonlocal peeks
        peeks += 1
        return peek(cache, key)

    def counted_step(server, **kw):
        nonlocal steps, idle_steps
        results = step(server, **kw)
        steps += 1
        idle_steps += not results
        return results

    monkeypatch.setattr(PlanCache, "peek", counted)
    monkeypatch.setattr(ModelServer, "step", counted_step)

    def replay():
        start = time.perf_counter()
        report = fleet_replay(
            gpus, models, n, 6000.0, poisson=True, seed=1, slo_s=10e-3,
            admission="degrade", fleet=fleet,
        )
        return report, time.perf_counter() - start

    report, wall_s = once(benchmark, replay)
    priced = {key for key, _batch in reports}
    distinct_steps = sum(
        len({price_key(s) for s in e.plan.steps if isinstance(s, (ChainStep, LblStep))})
        for e in resident.values() if e.key in priced
    )
    per_request = peeks / n
    benchmark.extra_info["peeks_per_request"] = round(per_request, 3)
    benchmark.extra_info["server_steps_per_request"] = round(steps / n, 3)
    benchmark.extra_info["analytic_reports"] = sum(reports.values())
    benchmark.extra_info["estimator_calls"] = estimator_calls
    benchmark.extra_info["replay_wall_s"] = round(wall_s, 4)
    with capsys.disabled():
        print(f"\n[Serving] {report.describe().splitlines()[0]}")
        print(f"-> {per_request:.2f} plan-cache peeks and {steps / n:.2f} "
              f"ModelServer.step calls per request, {n / wall_s:.0f} simulated req/s")
        print(f"-> {sum(reports.values())} analytic reports over {len(reports)} "
              f"(plan, batch) pairs, {estimator_calls} estimator calls for "
              f"{distinct_steps} distinct DW/PW steps")
    assert report.critical_path_planner_invocations == 0
    assert per_request <= MAX_PEEKS_PER_REQUEST, per_request
    assert idle_steps == 0, f"{idle_steps} of {steps} ModelServer.step calls flushed nothing"
    assert reports and max(reports.values()) == 1, reports.most_common(3)
    assert 0 < estimator_calls <= distinct_steps, (estimator_calls, distinct_steps)
