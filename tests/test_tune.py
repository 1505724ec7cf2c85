"""repro.tune: tuning records, measurement, calibration, warm-start."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from helpers import TINY_ZOO, check_replay, register_tiny_zoo
from repro.core.dtypes import DType
from repro.errors import TuneError
from repro.gpu.specs import GTX1660, RTX_A4000
from repro.models.zoo import build_model, model_names
from repro.planner.plan import ChainStep, LblStep, step_family
from repro.planner.planner import FusePlanner
from repro.runtime.session import InferenceSession
from repro.serve.cache import PlanCache
from repro.serve.loadgen import fleet_replay
from repro.serve.server import ModelServer
from repro.tune.calibrate import Calibration, analytic_cost_s, fit_calibration
from repro.tune.measure import (
    estimated_step_cost_s,
    measure_model,
    measured_step_cost_s,
    plan_cost_estimate,
    simulated_kernel_cost_s,
    tune_step_tiling,
)
from repro.tune.records import (
    SCHEMA_VERSION,
    TuningDB,
    TuningKey,
    TuningRecord,
    spec_geometry,
)


def _key(family="lbl-pw", geometry=("pw", 8, 16, 12, 12, 1, 1, 0),
         gpu="RTX", dtype="fp32", convention="paper") -> TuningKey:
    return TuningKey(family=family, geometry=geometry, gpu=gpu, dtype=dtype,
                     convention=convention)


def _record(key=None, tiling=None, est=1e-4, measured=1.3e-4, tuned=1.2e-4,
            gma=4096, evaluated=7, seed=0) -> TuningRecord:
    return TuningRecord(
        key=key if key is not None else _key(),
        tiling=tiling if tiling is not None else {"tile_m": 16, "tile_hw": 64},
        est_cost_s=est,
        measured_cost_s=measured,
        tuned_cost_s=tuned,
        gma_bytes=gma,
        evaluated=evaluated,
        seed=seed,
    )


class TestTuningDB:
    def test_roundtrip_is_byte_identical(self, tmp_path):
        db = TuningDB()
        # Awkward floats on purpose: shortest-repr JSON must round-trip them.
        db.add(_record(est=1 / 3, measured=0.1 + 0.2))
        db.add(_record(key=_key(family="lbl-dw", gpu="GTX"),
                       tiling={"tile_c": 4, "tile_h": 8, "tile_w": 8}))
        db.add(_record(key=_key(family="model", geometry=("m", 2)), tiling={}))
        p1 = tmp_path / "a.json"
        db.save(p1)
        text1 = p1.read_text()
        db2 = TuningDB.load(p1)
        p2 = tmp_path / "b.json"
        db2.save(p2)
        assert p2.read_bytes() == p1.read_bytes()
        # ... and loaded keys hash identically (tuples, not lists).
        assert db2.get(_key()) is not None
        assert text1.startswith('{"kind":"repro-tunedb"')

    def test_best_record_per_key(self):
        db = TuningDB()
        assert db.add(_record(tuned=2e-4))
        assert db.add(_record(tuned=1e-4))  # better: adopted
        assert not db.add(_record(tuned=3e-4))  # worse: rejected
        assert not db.add(_record(tuned=1e-4))  # tie: incumbent kept
        assert len(db) == 1
        assert db.get(_key()).tuned_cost_s == 1e-4

    def test_merge_adopts_better_records(self):
        a, b = TuningDB(), TuningDB()
        a.add(_record(tuned=2e-4))
        b.add(_record(tuned=1e-4))
        b.add(_record(key=_key(gpu="GTX"), tuned=5e-4))
        assert a.merge(b) == 2
        assert len(a) == 2 and a.get(_key()).tuned_cost_s == 1e-4

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(TuneError, match="does not exist"):
            TuningDB.load(tmp_path / "nope.json")

    def test_empty_and_bad_header_rejected(self):
        with pytest.raises(TuneError, match="empty"):
            TuningDB.loads("")
        with pytest.raises(TuneError, match="corrupt tuning DB header"):
            TuningDB.loads("not json\n")
        with pytest.raises(TuneError, match="not a tuning DB"):
            TuningDB.loads('{"kind":"something-else","schema":1}\n')

    def test_future_schema_rejected(self):
        header = json.dumps({"kind": "repro-tunedb", "schema": SCHEMA_VERSION + 1})
        with pytest.raises(TuneError, match="refusing to guess"):
            TuningDB.loads(header + "\n")

    def test_corrupt_record_line_rejected(self, tmp_path):
        db = TuningDB()
        db.add(_record())
        p = tmp_path / "db.json"
        db.save(p)
        p.write_text(p.read_text() + "{truncated\n")
        with pytest.raises(TuneError, match="line 3"):
            TuningDB.load(p)

    def test_future_record_version_rejected(self):
        db = TuningDB()
        db.add(_record())
        obj = json.loads(db.dumps().splitlines()[1])
        obj["v"] = SCHEMA_VERSION + 1
        header = json.dumps({"kind": "repro-tunedb", "schema": SCHEMA_VERSION})
        with pytest.raises(TuneError, match=f"v{SCHEMA_VERSION + 1}"):
            TuningDB.loads(header + "\n" + json.dumps(obj) + "\n")

    def test_malformed_record_fields_rejected(self):
        header = json.dumps({"kind": "repro-tunedb", "schema": SCHEMA_VERSION})
        with pytest.raises(TuneError, match="schema version"):
            TuningDB.loads(header + "\n" + json.dumps({"no": "version"}) + "\n")
        bad = _record().to_json()
        del bad["tiling"]
        with pytest.raises(TuneError, match="malformed tuning record"):
            TuningDB.loads(header + "\n" + json.dumps(bad) + "\n")
        # Wrong-typed fields raise TuneError too, never a raw traceback.
        nulled = _record().to_json()
        nulled["tiling"] = None
        with pytest.raises(TuneError, match="malformed tuning record"):
            TuningDB.loads(header + "\n" + json.dumps(nulled) + "\n")


class TestMeasurement:
    @pytest.fixture(scope="class")
    def planned(self):
        graph = build_model("mobilenet_v1", DType.FP32)
        plan = FusePlanner(GTX1660).plan(graph)
        return graph, plan

    def test_measured_matches_session_analytic(self, planned):
        graph, plan = planned
        report = InferenceSession(graph, plan).run_analytic()
        for step, rec in zip(plan.steps, report.records):
            measured = measured_step_cost_s(step, GTX1660, DType.FP32)
            assert measured == pytest.approx(rec.time_s, rel=1e-12)

    def test_simulated_kernel_agrees_with_counters(self, planned):
        # Hardware-in-the-loop backend: the instrumented kernel grid meters
        # the same cost the analytic counter builders predict.
        _graph, plan = planned
        conv_steps = [s for s in plan.steps if isinstance(s, (LblStep, ChainStep))]
        for step in conv_steps[:2]:
            fast = measured_step_cost_s(step, GTX1660, DType.FP32)
            slow = simulated_kernel_cost_s(step, GTX1660, DType.FP32)
            assert slow == pytest.approx(fast, rel=1e-9)

    def test_tune_step_modes(self, planned):
        _graph, plan = planned
        step = next(s for s in plan.steps if isinstance(s, (LblStep, ChainStep)))
        t_ex, c_ex, n_ex = tune_step_tiling(
            step, GTX1660, DType.FP32, mode="exhaustive")
        t_g, c_g, n_g = tune_step_tiling(
            step, GTX1660, DType.FP32, mode="guided", iterations=4, seed=1)
        t_r, c_r, n_r = tune_step_tiling(
            step, GTX1660, DType.FP32, mode="random", iterations=4, seed=1)
        # Exhaustive is the floor; guided can only add the planner's pick.
        assert c_ex <= c_g <= c_r
        assert n_ex >= n_g >= n_r == 4
        with pytest.raises(TuneError, match="unknown search mode"):
            tune_step_tiling(step, GTX1660, DType.FP32, mode="best")
        with pytest.raises(TuneError, match="budget must be >= 1"):
            tune_step_tiling(step, GTX1660, DType.FP32, iterations=0)

    def test_guided_budget_never_exceeds_grid(self, planned):
        # When the budget already covers every candidate, guided mode must
        # not re-measure the planner's pick: evaluated <= grid size.
        from repro.planner.search import enumerate_lbl_tilings

        _graph, plan = planned
        step = next(s for s in plan.steps if isinstance(s, LblStep))
        grid = len(enumerate_lbl_tilings(step.spec, GTX1660))
        _t, _c, n = tune_step_tiling(step, GTX1660, DType.FP32,
                                     mode="guided", iterations=10 * grid)
        assert n == grid

    def test_guided_never_worse_than_planned(self, planned):
        _graph, plan = planned
        for step in plan.steps:
            if not isinstance(step, (LblStep, ChainStep)):
                continue
            planned_cost = measured_step_cost_s(step, GTX1660, DType.FP32)
            _t, cost, _n = tune_step_tiling(
                step, GTX1660, DType.FP32, mode="guided", iterations=3)
            assert cost <= planned_cost + 1e-15

    def test_measure_model_populates_db(self):
        db = TuningDB()
        mm = measure_model("mobilenet_v1", GTX1660, DType.FP32, db=db,
                           mode="guided", iterations=4)
        assert mm.records_added == len(db) > 0
        families = {r.key.family for r in db}
        assert "model" in families and any(f.startswith("lbl-") for f in families)
        model_rec = db.get(TuningKey("model", ("mobilenet_v1", 2), "GTX",
                                     "fp32", "paper"))
        assert model_rec is not None
        assert model_rec.measured_cost_s == pytest.approx(mm.measured_cost_s)
        # Tuning can only improve on what the planner already picked.
        assert mm.tuned_cost_s <= mm.measured_cost_s + 1e-12

    def test_measurement_reproducible_from_seed(self):
        db1, db2 = TuningDB(), TuningDB()
        measure_model("mobilenet_v1", GTX1660, DType.FP32, db=db1,
                      mode="random", iterations=5, seed=42)
        measure_model("mobilenet_v1", GTX1660, DType.FP32, db=db2,
                      mode="random", iterations=5, seed=42)
        assert db1.dumps() == db2.dumps()


class TestCalibration:
    def test_analytic_cost_monotone(self):
        assert analytic_cost_s(0, 1, GTX1660) == GTX1660.kernel_launch_us * 1e-6
        assert analytic_cost_s(2**20, 1, GTX1660) > analytic_cost_s(2**10, 1, GTX1660)

    def test_fit_reproducible_and_positive(self):
        db1, db2 = TuningDB(), TuningDB()
        for db in (db1, db2):
            measure_model("mobilenet_v2", GTX1660, DType.FP32, db=db,
                          mode="guided", iterations=4, seed=7)
        c1, c2 = fit_calibration(db1), fit_calibration(db2)
        assert c1.factors == c2.factors and len(c1) > 0
        assert all(f > 0 for f in c1.factors.values())
        # Model-level records never leak into step-family factors.
        assert all(k[2] != "model" for k in c1.factors)

    def test_unknown_family_defaults_to_identity(self):
        c = Calibration()
        assert c.factor("lbl-pw", "RTX", "fp32") == 1.0
        assert c.cost_s("lbl-pw", 1024, 1, RTX_A4000, "fp32") == pytest.approx(
            analytic_cost_s(1024, 1, RTX_A4000))

    def test_unmeasured_family_in_covered_group_gets_group_mean(self):
        """Inside a measured (GPU, dtype) group an unmeasured family must be
        priced at the group's typical correction, not a flat 1.0 — otherwise
        candidates with zero evidence win arbitration by default."""
        db = TuningDB()
        measure_model("mobilenet_v1", RTX_A4000, DType.FP32, db=db,
                      mode="guided", iterations=4)
        calib = fit_calibration(db)
        assert ("RTX", "fp32", "chain-3") not in calib.factors
        group_mean = calib.group_default[("RTX", "fp32")]
        assert calib.factor("chain-3", "RTX", "fp32") == group_mean != 1.0
        # Unmeasured *groups* still fall back to identity (and the planner
        # gates them out entirely via covers()).
        assert calib.factor("chain-3", "Orin", "fp32") == 1.0

    def test_calibration_reduces_error_across_zoo(self):
        """Acceptance: calibrated planning estimates beat uncalibrated ones
        on mean relative error, across every model in the zoo."""
        db = TuningDB()
        models = model_names()
        for m in models:
            measure_model(m, RTX_A4000, DType.FP32, db=db, mode="guided",
                          iterations=4)
        calib = fit_calibration(db)
        errors_uncal, errors_cal = [], []
        for m in models:
            graph = build_model(m, DType.FP32)
            plan = FusePlanner(RTX_A4000).plan(graph)
            measured = InferenceSession(graph, plan).run_analytic().latency_s
            est_u = plan_cost_estimate(plan)
            est_c = plan_cost_estimate(plan, calib)
            errors_uncal.append(abs(est_u - measured) / measured)
            errors_cal.append(abs(est_c - measured) / measured)
        mean_u = sum(errors_uncal) / len(errors_uncal)
        mean_c = sum(errors_cal) / len(errors_cal)
        assert mean_c < mean_u, (mean_c, mean_u)

    def test_identity_calibration_plans_bit_for_bit(self):
        for model, gpu in (("mobilenet_v2", RTX_A4000), ("mobilenet_v1", GTX1660)):
            graph = build_model(model, DType.FP32)
            base = FusePlanner(gpu).plan(graph)
            ident = FusePlanner(gpu, calibration=Calibration()).plan(graph)
            assert base.steps == ident.steps

    def test_uncovered_group_keeps_byte_ranking(self):
        """A DB tuned on other silicon (or another dtype) must not reorder
        this group's plans — calibration is evidence-gated per (GPU, dtype)."""
        db = TuningDB()
        measure_model("mobilenet_v1", RTX_A4000, DType.FP32, db=db,
                      mode="guided", iterations=4)
        calib = fit_calibration(db)
        assert calib.covers("RTX", "fp32") and not calib.covers("GTX", "fp32")
        for model in ("mobilenet_v1", "proxylessnas"):
            graph = build_model(model, DType.FP32)
            base = FusePlanner(GTX1660).plan(graph)
            foreign = FusePlanner(GTX1660, calibration=calib).plan(graph)
            assert base.steps == foreign.steps
        # ... and the measured group itself does calibrate.
        int8_base = FusePlanner(RTX_A4000).plan(build_model("mobilenet_v1", DType.INT8))
        int8_cal = FusePlanner(RTX_A4000, calibration=calib).plan(
            build_model("mobilenet_v1", DType.INT8))
        assert int8_base.steps == int8_cal.steps  # fp32 factors don't leak to int8

    def test_extreme_factor_reorders_fusion_decisions(self):
        """A calibration claiming fused kernels are catastrophically slow
        must flip the planner to layer-by-layer execution — the reordering
        path measured feedback flows through."""
        from repro.core.fcm import FcmType

        graph = build_model("mobilenet_v1", DType.FP32)
        base = FusePlanner(GTX1660).plan(graph)
        assert base.fcm_steps  # the uncalibrated plan fuses
        chosen = {step_family(s) for s in base.fcm_steps}
        # Penalizing only the *chosen* FCM families makes the type
        # arbitration switch to other fused implementations: the plan
        # reorders without abandoning fusion.
        partial = Calibration(factors={
            ("GTX", "fp32", fam): 1e6 for fam in chosen
        })
        reordered = FusePlanner(GTX1660, calibration=partial).plan(graph)
        assert reordered.steps != base.steps
        # Penalizing *every* fused family flips the fuse-vs-not decision
        # itself: the calibrated DP keeps everything layer-by-layer.
        all_fused = Calibration(factors={
            ("GTX", "fp32", f"fcm-{t.name.lower()}"): 1e6 for t in FcmType
        })
        unfused = FusePlanner(GTX1660, calibration=all_fused).plan(graph)
        assert not unfused.fcm_steps
        # And per-step estimates pick the factors up.
        est = estimated_step_cost_s(base.fcm_steps[0], GTX1660, DType.FP32)
        assert plan_cost_estimate(base, all_fused) > plan_cost_estimate(base)
        assert est > 0


class TestWarmStart:
    @pytest.fixture
    def tiny_db(self, monkeypatch):
        register_tiny_zoo(monkeypatch)
        db = TuningDB()
        for gpu in (GTX1660, RTX_A4000):
            for name, _ch in TINY_ZOO:
                measure_model(name, gpu, DType.FP32, db=db, mode="guided",
                              iterations=3)
        return db

    def test_cache_warm_start_preloads_matching_gpu_only(self, tiny_db):
        cache = PlanCache(capacity=8)
        loaded = cache.warm_start(tiny_db, GTX1660)
        assert len(loaded) == len(TINY_ZOO)
        assert all(k.gpu == "GTX" for k in loaded)
        assert cache.stats.warm_starts == len(TINY_ZOO)
        boot_invocations = cache.stats.planner_invocations
        # Every tuned model now hits without planning.
        for name, _ch in TINY_ZOO:
            cache.get(name, DType.FP32, GTX1660, max_chain=2)
        assert cache.stats.planner_invocations == boot_invocations
        assert cache.stats.hits == len(TINY_ZOO)

    def test_warm_start_skips_foreign_records(self, tiny_db):
        cache = PlanCache(capacity=8)
        # Another convention / chain cap: nothing matches, nothing planned.
        foreign = TuningDB()
        for rec in tiny_db:
            foreign.add(replace(rec, key=replace(rec.key, convention="measured")))
        assert len(foreign) == len(tiny_db)
        assert cache.warm_start(foreign, GTX1660) == []
        assert cache.warm_start(tiny_db, GTX1660, max_chain=3) == []
        assert cache.stats.planner_invocations == 0

    def test_warm_start_skips_unknown_models(self):
        db = TuningDB()
        db.add(_record(key=_key(family="model", geometry=("not_a_model", 2),
                                gpu="GTX"), tiling={}))
        cache = PlanCache(capacity=8)
        assert cache.warm_start(db, GTX1660) == []

    def test_warm_start_skips_malformed_model_geometry(self):
        # A foreign tool's model record with the wrong geometry arity must
        # not crash server boot.
        db = TuningDB()
        db.add(_record(key=_key(family="model", geometry=("mobilenet_v1",),
                                gpu="GTX"), tiling={}))
        cache = PlanCache(capacity=8)
        assert cache.warm_start(db, GTX1660) == []
        assert cache.stats.planner_invocations == 0

    def test_warm_start_skips_records_that_no_longer_plan(self, monkeypatch):
        # A stale DB whose model now fails to plan (changed zoo/GPU defs)
        # must not stop a server from booting.
        from repro.errors import PlanError

        db = TuningDB()
        db.add(_record(key=_key(family="model", geometry=("mobilenet_v1", 2),
                                gpu="GTX"), tiling={}))

        def boom(model, dtype):
            raise PlanError("no feasible tiling anymore")

        monkeypatch.setattr("repro.serve.cache.build_model", boom)
        cache = PlanCache(capacity=8)
        assert cache.warm_start(db, GTX1660) == []
        assert cache.stats.warm_starts == 0

    def test_warm_start_skips_unknown_dtype(self):
        # A record from a build with more dtypes must not crash boot either.
        db = TuningDB()
        db.add(_record(key=_key(family="model", geometry=("mobilenet_v1", 2),
                                gpu="GTX", dtype="fp16"), tiling={}))
        cache = PlanCache(capacity=8)
        assert cache.warm_start(db, GTX1660) == []
        assert cache.stats.planner_invocations == 0

    def test_server_boot_warm_start(self, tiny_db):
        srv = ModelServer(GTX1660, db=tiny_db)
        assert srv.cache.stats.warm_starts == len(TINY_ZOO)
        boot = srv.cache.stats.planner_invocations
        srv.submit_analytic(TINY_ZOO[0][0], 4)
        assert srv.cache.stats.planner_invocations == boot

    def test_warm_fleet_serves_without_critical_path_planning(self, tiny_db):
        """Acceptance: a TuningDB-warm-started fleet serves its first request
        (and the whole replay) with zero planner invocations on the critical
        path, deterministically."""
        gpus = [GTX1660, RTX_A4000]
        models = [name for name, _ch in TINY_ZOO]
        warm = fleet_replay(gpus, models, 48, 1e5, db=tiny_db)
        check_replay(warm)
        assert warm.warm_starts == len(gpus) * len(TINY_ZOO)
        assert warm.critical_path_planner_invocations == 0
        # No worker missed: every plan was resident before the first arrival.
        assert all(w.plan_misses == len(TINY_ZOO) for w in warm.per_worker)
        # Deterministic replay: byte-identical latency stream on a rerun.
        again = fleet_replay(gpus, models, 48, 1e5, db=tiny_db)
        check_replay(again)
        assert warm.latencies_s == again.latencies_s
        # The cold fleet pays its planning during the replay instead.
        cold = fleet_replay(gpus, models, 48, 1e5)
        check_replay(cold)
        assert cold.warm_starts == 0
        assert cold.critical_path_planner_invocations > 0

    def test_calibrated_serving_path(self, tiny_db):
        calib = fit_calibration(tiny_db)
        srv = ModelServer(GTX1660, db=tiny_db, calibration=calib)
        report = srv.submit_analytic(TINY_ZOO[0][0], 2)
        assert report.latency_s > 0


class TestGeometryKeys:
    def test_spec_geometry_excludes_names(self):
        graph = build_model("mobilenet_v1", DType.FP32)
        convs = graph.conv_layers()
        g0 = spec_geometry(convs[1])
        renamed = convs[1].with_dtype(convs[1].dtype)  # same geometry
        assert spec_geometry(renamed) == g0
        assert convs[1].name not in g0
