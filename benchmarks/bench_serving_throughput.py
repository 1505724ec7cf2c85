"""Serving throughput: batch size x model zoo sweep through `repro.serve`.

Not a paper artifact — this is the repo's throughput/serving scenario: plan
once via the LRU PlanCache, then execute batched passes whose launch
overheads and weight re-streams amortize across the micro-batch.  Reports
img/s, per-image latency and energy per batch size, plus a replayed request
stream's p50/p99 latency under micro-batching.
"""

import pytest

from repro.core.dtypes import DType
from repro.experiments import format_table
from repro.gpu.specs import RTX_A4000
from repro.models.zoo import CNN_MODELS
from repro.serve import ModelServer, fleet_replay

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
