"""Planner search speed: the grid search vs the scalar oracle.

Not a paper artifact — this benchmarks the change that turned
FusePlanner's tiling search ("explores all tile sizes that meet the
constraints in Equations 2, 3 and 4", §IV-B) from scalar Python loops into
whole-grid NumPy array programs, the same bulk-ops discipline
`gpu/fastpath.py` applies to kernel execution.  Three configurations plan
the same zoo:

* ``reference`` — ``ScalarPlanner``, the per-candidate sweeps kept as the
  oracle.
* ``vectorized cold`` — ``FusePlanner`` with a fresh geometry memo per
  model (pure search speed, no cross-model reuse).
* ``vectorized warm`` — ``FusePlanner`` with one shared memo across the
  zoo (what a fleet boot or tune sweep actually sees: zoo layers repeat
  geometries heavily).

The parity assertion — every configuration returns bit-identical plans —
is the acceptance criterion; the speedups land in ``BENCH_smoke.json``
under ``extra_info`` so the plan-time trajectory accumulates in CI
artifacts.  A second benchmark records the `tune_models` process-pool
sweep wall-clock at workers=1 vs workers=4 (near-linear on multi-core
hosts; on single-core CI runners the pool only adds overhead, so the
recorded host core count is what makes the number interpretable) and
asserts the merged DBs are byte-identical.
"""

import os
import time

from repro.core.dtypes import DType
from repro.experiments import format_table
from repro.gpu.specs import GTX1660, RTX_A4000
from repro.models.zoo import build_model, model_names
from repro.planner.memo import GeometryMemo
from repro.planner.planner import FusePlanner, ScalarPlanner
from repro.tune import tune_models

GPU = RTX_A4000


def _plan_zoo(models, graphs, *, planner_cls=FusePlanner, memo=None):
    """Plan every model, returning (plans, wall seconds).

    ``memo`` is shared by every model (and by later calls that pass it
    again); without one, each model plans with a fresh memo.
    """
    plans = []
    t0 = time.perf_counter()
    for m in models:
        planner = planner_cls(GPU, memo=GeometryMemo() if memo is None else memo)
        plans.append(planner.plan(graphs[m]))
    return plans, time.perf_counter() - t0


def test_vectorized_vs_reference_plan_time(benchmark, once, capsys, smoke):
    models = ("mobilenet_v1", "mobilenet_v2", "xception") if smoke else model_names()
    graphs = {m: build_model(m, DType.FP32) for m in models}

    def run():
        ref, t_ref = _plan_zoo(models, graphs, planner_cls=ScalarPlanner)
        cold, t_cold = _plan_zoo(models, graphs)
        # Warm: one shared memo, pre-seeded by a throwaway pass — the
        # steady state of a long-lived process planning the zoo again.
        shared = GeometryMemo()
        _plan_zoo(models, graphs, memo=shared)
        warm, t_warm = _plan_zoo(models, graphs, memo=shared)
        return ref, cold, warm, {"reference": t_ref, "vectorized_cold": t_cold,
                                 "vectorized_warm": t_warm}

    ref, cold, warm, walls = once(benchmark, run)
    # Bit-identical plans: same steps, tilings, GMA, redundancy everywhere.
    for r, c, w in zip(ref, cold, warm):
        assert r.steps == c.steps == w.steps
    speedup_cold = walls["reference"] / walls["vectorized_cold"]
    speedup_warm = walls["reference"] / walls["vectorized_warm"]
    benchmark.extra_info["plan_wall_s"] = {k: round(v, 4) for k, v in walls.items()}
    benchmark.extra_info["speedup_cold"] = round(speedup_cold, 2)
    benchmark.extra_info["speedup_warm"] = round(speedup_warm, 2)
    benchmark.extra_info["models"] = len(models)
    with capsys.disabled():
        print(f"\n[Planner] zoo plan time on {GPU.name}, {len(models)} models"
              f"{' (smoke)' if smoke else ''}")
        print(format_table(
            ["engine", "wall ms", "speedup vs reference"],
            [["reference", f"{walls['reference'] * 1e3:.1f}", "1.00x"],
             ["vectorized (cold memo)", f"{walls['vectorized_cold'] * 1e3:.1f}",
              f"{speedup_cold:.2f}x"],
             ["vectorized (warm memo)", f"{walls['vectorized_warm'] * 1e3:.1f}",
              f"{speedup_warm:.2f}x"]],
        ))
    assert speedup_cold > 1.0  # the grid search must actually be faster
    assert speedup_warm >= speedup_cold * 0.9  # memo hits never slow it down


def test_tune_sweep_workers_wall_clock(benchmark, once, capsys, smoke):
    models = ("mobilenet_v1",) if smoke else ("mobilenet_v1", "mobilenet_v2")
    gpus = [GTX1660, RTX_A4000]

    def run():
        out = {}
        for workers in (1, 4):
            t0 = time.perf_counter()
            db, _ = tune_models(models, gpus, mode="guided", iterations=4,
                                workers=workers)
            out[workers] = (time.perf_counter() - t0, db.dumps())
        return out

    out = once(benchmark, run)
    wall_1, dump_1 = out[1]
    wall_4, dump_4 = out[4]
    # Determinism is per-task: the merged DB never depends on worker count.
    assert dump_1 == dump_4
    cores = os.cpu_count() or 1
    benchmark.extra_info["tune_wall_s"] = {"workers_1": round(wall_1, 4),
                                           "workers_4": round(wall_4, 4)}
    benchmark.extra_info["tune_speedup_workers_4"] = round(wall_1 / wall_4, 2)
    benchmark.extra_info["host_cores"] = cores
    with capsys.disabled():
        print(f"\n[Planner] tune sweep {len(models)}x{len(gpus)} tasks, "
              f"host has {cores} core(s){' (smoke)' if smoke else ''}")
        print(format_table(
            ["workers", "wall ms", "speedup"],
            [["1", f"{wall_1 * 1e3:.0f}", "1.00x"],
             ["4", f"{wall_4 * 1e3:.0f}", f"{wall_1 / wall_4:.2f}x"]],
        ))
        if cores < 2:
            print("single-core host: the pool cannot beat serial here; the "
                  ">1.5x workers=4 target applies on >=4-core hosts")
