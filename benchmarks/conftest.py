"""Shared benchmark configuration.

Every benchmark regenerates one paper artifact (table or figure): it times
the harness computation via pytest-benchmark and prints the reproduced
rows/series so `pytest benchmarks/bench_*.py --benchmark-only -s` emits
the full reproduction report (EXPERIMENTS.md records the paper-vs-measured
deltas).
"""

from __future__ import annotations

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--smoke",
        action="store_true",
        default=False,
        help="shrink benchmark workloads for the fast `make bench-smoke` pass",
    )


@pytest.fixture
def smoke(request) -> bool:
    """True when the run should use the reduced smoke workload."""
    return bool(request.config.getoption("--smoke"))


def run_once(benchmark, fn):
    """Benchmark a harness with a single measured round (they are pure
    analytic sweeps — variance comes from the work, not the clock)."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


@pytest.fixture
def once():
    return run_once
