"""Process-pool determinism guards and boot-time preplanning.

The contract is that worker count is an *execution* knob, never a *result*
knob: `tune_models(workers=N)` merges child DBs in submission order into
byte-identical canonical JSONL for every N.  `Fleet.preplan` plans each
distinct (GPU, model, dtype) once, in-process, and adopts the same
bit-identical plans the lazy path would build, counted as warm starts — so
a replay over a preplanned fleet has no planning on its critical path.
"""

from __future__ import annotations

import pytest

from helpers import TINY_ZOO, check_replay, register_tiny_zoo
from repro.core.dtypes import DType
from repro.errors import TuneError
from repro.gpu.specs import GTX1660, RTX_A4000
from repro.models.zoo import build_model
from repro.planner.planner import FusePlanner
from repro.serve.cache import CachedPlan, PlanCache, PlanKey
from repro.serve.fleet import Fleet
from repro.serve.loadgen import FakeClock, fleet_replay
from repro.tune.measure import tune_models

GPUS = [GTX1660, RTX_A4000]
MODELS = ["mobilenet_v1", "mobilenet_v2"]


class TestTuneWorkers:
    def test_workers_must_be_positive(self):
        with pytest.raises(TuneError):
            tune_models(MODELS, GPUS, workers=0)

    def test_parallel_db_is_byte_identical_to_serial(self):
        db1, mm1 = tune_models(MODELS, GPUS, mode="guided", iterations=4)
        db2, mm2 = tune_models(MODELS, GPUS, mode="guided", iterations=4,
                               workers=2)
        assert db1.dumps() == db2.dumps()
        # Summaries too: same sweep order, same per-task records_added.
        assert mm1 == mm2

    def test_parallel_merge_into_existing_db(self):
        # Pre-populate, then sweep in parallel: merge must keep the
        # best-record-per-key rule, same as the serial accumulate path.
        db_serial, _ = tune_models(MODELS, GPUS, mode="guided", iterations=2)
        db_pre, _ = tune_models([MODELS[0]], [GPUS[0]], mode="guided",
                                iterations=2)
        db_merged, _ = tune_models(MODELS, GPUS, mode="guided", iterations=2,
                                   db=db_pre, workers=2)
        assert db_merged.dumps() == db_serial.dumps()

    def test_single_job_short_circuits_the_pool(self):
        # One task: no pool spin-up, still the same DB shape.
        db_a, _ = tune_models([MODELS[0]], [GPUS[0]], iterations=2, workers=4)
        db_b, _ = tune_models([MODELS[0]], [GPUS[0]], iterations=2, workers=1)
        assert db_a.dumps() == db_b.dumps()


class TestPlanCacheInstall:
    """Making a plan planned elsewhere resident, as ``Fleet.preplan`` does:
    an entry built from the planned graph, adopted."""

    def test_install_counts_warm_start_not_miss(self, monkeypatch):
        register_tiny_zoo(monkeypatch)
        model = TINY_ZOO[0][0]
        graph = build_model(model, DType.FP32)
        plan = FusePlanner(GTX1660).plan(graph)
        key = PlanKey.of(model, DType.FP32, GTX1660, "paper")
        cache = PlanCache()
        entry = cache.adopt(CachedPlan.of(key, DType.FP32, graph, plan))
        assert entry.plan is plan and entry.graph is graph
        assert cache.stats.warm_starts == 1
        assert cache.stats.misses == 0 and cache.stats.planner_invocations == 0
        # The next get() is a hit, not a rebuild.
        assert cache.get(model, DType.FP32, GTX1660) is entry
        assert cache.stats.hits == 1

    def test_install_never_clobbers_resident_entry(self, monkeypatch):
        register_tiny_zoo(monkeypatch)
        model = TINY_ZOO[0][0]
        cache = PlanCache()
        live = cache.get(model, DType.FP32, GTX1660)
        again = cache.adopt(CachedPlan.of(live.key, DType.FP32, live.graph, live.plan))
        assert again is live
        assert cache.stats.warm_starts == 0  # no-op adoption


class TestFleetPreplan:
    def _fleet(self, gpus):
        clock = FakeClock()
        return Fleet(gpus, clock=clock, sleep=clock.sleep)

    def test_preplan_installs_per_worker_plans(self, monkeypatch):
        register_tiny_zoo(monkeypatch)
        models = [name for name, _ in TINY_ZOO[:2]]
        fleet = self._fleet([GTX1660, RTX_A4000])
        installed = fleet.preplan(models)
        assert installed == 4  # 2 workers x 2 models x 1 dtype
        stats = fleet.stats()
        assert stats.warm_starts == 4
        assert stats.planner_invocations == 0  # planning happened in preplan
        for w in fleet.workers:
            for m in models:
                assert w.server.holds_plan((m, DType.FP32.value))

    def test_homogeneous_fleet_plans_each_identity_once(self, monkeypatch):
        register_tiny_zoo(monkeypatch)
        model = TINY_ZOO[0][0]
        fleet = self._fleet([GTX1660, GTX1660, GTX1660])
        installed = fleet.preplan([model])
        assert installed == 3  # one planning job, three adoptions
        plans = [
            w.server.cache.peek(w.server.plan_key(model, DType.FP32)).plan
            for w in fleet.workers
        ]
        assert plans[0] is plans[1] is plans[2]  # literally the same object

    def test_preplanned_plans_match_lazy_plans(self, monkeypatch):
        register_tiny_zoo(monkeypatch)
        model = TINY_ZOO[1][0]
        pre = self._fleet([RTX_A4000])
        pre.preplan([model])
        lazy = self._fleet([RTX_A4000])
        key = PlanKey.of(model, DType.FP32, RTX_A4000, "paper", 2)
        assert (
            pre.workers[0].server.cache.peek(key).plan.steps
            == lazy.workers[0].server.cache.get(model, DType.FP32, RTX_A4000).plan.steps
        )


class TestFleetReplayWorkers:
    def test_preplanned_replay_keeps_planning_off_critical_path(self):
        serial = fleet_replay(GPUS, MODELS, 16, 1e6, seed=5)
        clock = FakeClock()
        fleet = Fleet(GPUS, clock=clock, sleep=clock.sleep)
        fleet.preplan(MODELS)
        preplanned = fleet_replay(GPUS, MODELS, 16, 1e6, seed=5, fleet=fleet)
        check_replay(serial)
        check_replay(preplanned)
        assert serial.critical_path_planner_invocations > 0
        assert preplanned.critical_path_planner_invocations == 0
        assert preplanned.warm_starts == len(GPUS) * len(MODELS)
        assert preplanned.n_requests == serial.n_requests == 16
