"""Serving throughput: batch size x model zoo sweep through `repro.serve`.

Not a paper artifact — this is the repo's throughput/serving scenario: plan
once via the LRU PlanCache, then execute batched passes whose launch
overheads and weight re-streams amortize across the micro-batch.  Reports
img/s, per-image latency and energy per batch size, plus a replayed request
stream's p50/p99 latency under micro-batching.
"""

import time

import pytest

from repro.core.dtypes import DType
from repro.experiments import format_table
from repro.gpu.specs import GTX1660, ORIN, RTX_A4000
from repro.models.zoo import CNN_MODELS
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
#: With prices, dues and backlogs memoized, what is left is routing's
#: residency check on each of the 4 workers and the SLO enqueue's
#: eager-planning check (5 per request); re-deriving them on every read
#: costs 43, so a memo that stops being used fails this bound.
MAX_PEEKS_PER_REQUEST = 8


def test_bench_replay_bookkeeping(benchmark, once, capsys, monkeypatch):
    """Count the bookkeeping of one replay over the repo benchmark's fleet:
    2000 Poisson requests at 6000 req/s over RTX+GTX+Orin+RTX, 10 ms SLO,
    degrade admission, every plan preplanned.  The guard is the count of
    ``PlanCache.peek`` calls per request, which is deterministic (a timing
    bound would not be); the wall time rides along in ``extra_info``."""
    gpus = (RTX_A4000, GTX1660, ORIN, RTX_A4000)
    models = ("mobilenet_v1", "mobilenet_v2", "proxylessnas", "xception")
    n = 2000
    clock = FakeClock()
    fleet = Fleet(gpus, max_batch=8, max_delay_s=2e-3, clock=clock, sleep=clock.sleep)
    fleet.preplan(models, (DType.FP32, DType.INT8))
    peeks = 0
    peek = PlanCache.peek

    def counted(cache, key):
        nonlocal peeks
        peeks += 1
        return peek(cache, key)

    monkeypatch.setattr(PlanCache, "peek", counted)

    def replay():
        start = time.perf_counter()
        report = fleet_replay(
            gpus, models, n, 6000.0, poisson=True, seed=1, slo_s=10e-3,
            admission="degrade", fleet=fleet,
        )
        return report, time.perf_counter() - start

    report, wall_s = once(benchmark, replay)
    per_request = peeks / n
    benchmark.extra_info["peeks_per_request"] = round(per_request, 3)
    benchmark.extra_info["replay_wall_s"] = round(wall_s, 4)
    with capsys.disabled():
        print(f"\n[Serving] {report.describe().splitlines()[0]}")
        print(f"-> {per_request:.2f} plan-cache peeks per request, "
              f"{n / wall_s:.0f} simulated req/s")
    assert report.critical_path_planner_invocations == 0
    assert per_request <= MAX_PEEKS_PER_REQUEST, per_request
