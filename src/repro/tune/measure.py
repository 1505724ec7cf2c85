"""Measurement harness: observe what planned kernels actually cost.

The paper tunes "with the hardware in the loop" (§V-C); this module is that
loop over the simulated substrate.  For every step of a FusePlanner plan it
records the *analytic prediction* (:func:`~repro.tune.calibrate.
analytic_cost_s` of the planner's estimated GMA — the currency planning
decisions are made in) next to the *observed cost* (the measured-convention
counters through the roofline, i.e. what :meth:`InferenceSession.run_analytic`
charges, which the functional kernels match byte-for-byte), then searches the
step's feasible tiling grid by observed cost with the tie-break-fixed
:func:`~repro.baselines.autotune.random_search` backend.

Search modes:

* ``"exhaustive"`` — measure every feasible tiling (the grids are small:
  powers of two per axis);
* ``"random"`` — the paper's protocol: sample ``iterations`` candidates;
* ``"guided"`` (default) — DP-guided: the planner's analytically-chosen
  tiling is always measured, plus ``iterations`` sampled candidates, so the
  tuned result can never be worse than what planning already picked.

Two measurement backends exist for tilings: ``"counters"`` (default) prices
a candidate through the analytic counter builders in microseconds, and
``"kernel"`` actually materializes parameters and runs the simulated kernel
grid — slower, but the full hardware-in-the-loop path (their counters are
byte-identical by the integration tests, so both return the same cost).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..baselines.autotune import random_search
from ..core.chain import FusedChain
from ..core.dtypes import DType
from ..errors import TuneError
from ..gpu.fastpath import DEFAULT_ENGINE
from ..gpu.specs import GpuSpec
from ..kernels.params import chain_quant, make_layer_params
from ..kernels.registry import build_chain_kernel, build_lbl_kernel
from ..models.zoo import build_model
from ..obs import resolve_metrics, resolve_tracer
from ..planner.plan import (
    ChainStep,
    ExecutionPlan,
    LblStep,
    PlanStep,
    StdStep,
    step_family,
)
from ..planner.planner import FusePlanner
from ..planner.search import enumerate_chain_tilings, enumerate_lbl_tilings
from ..runtime.network_params import materialize_network
from ..runtime.session import InferenceSession, step_record
from .calibrate import analytic_cost_s
from .records import TuningDB, TuningKey, TuningRecord, chain_geometry, spec_geometry

__all__ = [
    "MODES",
    "ModelMeasurement",
    "estimated_step_cost_s",
    "measured_step_cost_s",
    "simulated_kernel_cost_s",
    "tune_step_tiling",
    "plan_cost_estimate",
    "measure_model",
    "tune_models",
]

MODES = ("guided", "random", "exhaustive")


# ---- per-step costing ---------------------------------------------------------
def estimated_step_cost_s(step: PlanStep, gpu: GpuSpec, dtype: DType) -> float:
    """The planner-side analytic latency proxy for one step (uncalibrated)."""
    if isinstance(step, (LblStep, ChainStep)):
        return analytic_cost_s(step.est_gma_bytes, 1, gpu)
    c = step_record(step, gpu, dtype).counters
    return analytic_cost_s(c.total_bytes, c.kernel_launches, gpu)


def measured_step_cost_s(
    step: PlanStep,
    gpu: GpuSpec,
    dtype: DType,
    tiling: dict[str, int] | None = None,
) -> float:
    """Observed batch-1 latency of one step (``tiling`` overrides the plan's):
    its :func:`~repro.runtime.session.step_record` time, which is what
    :meth:`~repro.runtime.session.InferenceSession.run_analytic` charges."""
    if tiling is not None:
        step = replace(step, tiling=tiling)
    return step_record(step, gpu, dtype).time_s


def simulated_kernel_cost_s(
    step: PlanStep,
    gpu: GpuSpec,
    dtype: DType,
    tiling: dict[str, int] | None = None,
    seed: int = 0,
) -> float:
    """Hardware-in-the-loop variant: run the actual simulated kernel grid.

    Materializes deterministic parameters for the step's layer(s), builds the
    kernel through the registry, streams a seeded random IFM through the
    instrumented launch and prices the metered counters.  The launch runs on
    the vectorized fast path, whose counters are bit-identical to the
    per-block reference launch, so the tuning loop measures the same cost
    without paying the interpreter tax per candidate.
    """
    if not isinstance(step, (LblStep, ChainStep)):
        raise TuneError("only DW/PW (LBL or fused) steps have simulated kernels")
    t = tiling if tiling is not None else step.tiling
    specs = step.specs if isinstance(step, ChainStep) else (step.spec,)
    params = [make_layer_params(specs[0], seed=seed)]
    for spec in specs[1:]:
        params.append(chain_quant(params[-1], spec, seed=seed))
    if isinstance(step, ChainStep):
        kernel = build_chain_kernel(params, t)
    else:
        kernel = build_lbl_kernel(params[0], t)
    rng = np.random.default_rng(seed)
    shape = specs[0].ifm.shape
    if dtype is DType.INT8:
        ifm = rng.integers(-128, 128, shape).astype(np.int8)
    else:
        ifm = rng.standard_normal(shape).astype(np.float32)
    return kernel.simulate(ifm, gpu).time_s


def _step_geometry(step: PlanStep) -> tuple:
    if isinstance(step, ChainStep):
        return chain_geometry(step.specs)
    if isinstance(step, (LblStep, StdStep)):
        return spec_geometry(step.spec)
    return (step.spec.op, step.spec.out_elements, step.spec.flops)


def _tiling_candidates(step: PlanStep, gpu: GpuSpec) -> list[dict[str, int]]:
    if isinstance(step, ChainStep):
        return enumerate_chain_tilings(FusedChain(step.specs), tuple(step.tiling), gpu)
    if isinstance(step, LblStep):
        return enumerate_lbl_tilings(step.spec, gpu)
    return []


def tune_step_tiling(
    step: PlanStep,
    gpu: GpuSpec,
    dtype: DType,
    *,
    mode: str = "guided",
    iterations: int = 20,
    seed: int = 0,
    backend: str = "counters",
) -> tuple[dict[str, int], float, int]:
    """Search one step's feasible tiling grid by *observed* cost.

    Returns ``(tiling, measured_cost_s, candidates_evaluated)``.  Steps
    without a tiling vocabulary (std/glue) are measured as-is with one
    evaluation.
    """
    if mode not in MODES:
        raise TuneError(f"unknown search mode {mode!r}; choose from {MODES}")
    if backend not in ("counters", "kernel"):
        raise TuneError(f"unknown backend {backend!r}; 'counters' or 'kernel'")
    if iterations < 1:
        raise TuneError(f"measurement budget must be >= 1, got {iterations}")
    candidates = _tiling_candidates(step, gpu)
    if not candidates:
        return {}, measured_step_cost_s(step, gpu, dtype), 1

    # Memoized so ``evaluated`` reports *distinct* measurements: guided
    # mode's re-check of the planner's pick is free when the sampled set
    # already covered it.
    memo: dict[tuple, float] = {}

    def evaluate(t: dict[str, int]) -> float:
        k = tuple(sorted(t.items()))
        if k not in memo:
            if backend == "kernel":
                memo[k] = simulated_kernel_cost_s(step, gpu, dtype, t, seed)
            else:
                memo[k] = measured_step_cost_s(step, gpu, dtype, t)
        return memo[k]

    budget = len(candidates) if mode == "exhaustive" else iterations
    best, cost, _ = random_search(candidates, evaluate, budget, seed=seed)
    # Guided: the planner's analytic pick is always measured too.
    if mode == "guided":
        planned_cost = evaluate(step.tiling)
        if planned_cost < cost:
            best, cost = step.tiling, planned_cost
    return dict(best), cost, len(memo)


# ---- whole-plan costing -------------------------------------------------------
def plan_cost_estimate(plan: ExecutionPlan, calibration=None) -> float:
    """Predict a plan's batch-1 analytic latency from its estimates alone.

    Uncalibrated this is the naive bytes-at-peak-bandwidth sum the planner
    reasons in; with a :class:`~repro.tune.calibrate.Calibration` each step's
    term is scaled by its family factor — the number the estimated-vs-
    measured error test pins down.
    """
    total = 0.0
    for step in plan.steps:
        est = estimated_step_cost_s(step, plan.gpu, plan.dtype)
        if calibration is not None:
            est *= calibration.factor(
                step_family(step), plan.gpu.name, plan.dtype.value
            )
        total += est
    return total


@dataclass(frozen=True)
class ModelMeasurement:
    """Summary of one tuned model: predictions vs. observations vs. tuned."""

    model: str
    gpu: str
    dtype: str
    convention: str
    max_chain: int
    est_cost_s: float  # naive analytic plan estimate
    measured_cost_s: float  # observed plan latency (run_analytic)
    tuned_cost_s: float  # observed latency with measurement-tuned tilings
    steps: int
    evaluated: int  # total tiling candidates measured
    records_added: int

    def describe(self) -> str:
        return (
            f"{self.model} on {self.gpu} ({self.dtype}, K={self.max_chain}): "
            f"est {self.est_cost_s * 1e3:.3f} ms vs measured "
            f"{self.measured_cost_s * 1e3:.3f} ms "
            f"(x{self.measured_cost_s / self.est_cost_s:.2f}), tuned "
            f"{self.tuned_cost_s * 1e3:.3f} ms; {self.steps} steps, "
            f"{self.evaluated} candidates measured, "
            f"{self.records_added} records"
        )


def measure_model(
    model: str,
    gpu: GpuSpec,
    dtype: DType = DType.FP32,
    *,
    db: TuningDB,
    convention: str = "paper",
    max_chain: int = 2,
    mode: str = "guided",
    iterations: int = 20,
    seed: int = 0,
    backend: str = "counters",
    tracer=None,
    metrics=None,
) -> ModelMeasurement:
    """Plan one model, measure every step, tune tilings, persist records.

    Emits one :class:`~repro.tune.records.TuningRecord` per *distinct step
    geometry* (repeated identical blocks share a record; the best-measured
    one wins) plus one model-level record (family ``"model"``, geometry
    ``(model, max_chain)``) that the serving warm-start path replays.
    Every record carries its measurement provenance: ``"analytic"`` for the
    counter backend, else the execution engine the kernel backend ran on
    (``"fast"``).

    ``tracer``/``metrics`` wrap the whole measurement in one
    ``tune.measure`` span (the planning pass nests inside) and tally
    candidate-measurement / record counters; the DB contents are identical
    with or without them.
    """
    tracer = resolve_tracer(tracer)
    metrics = resolve_metrics(metrics)
    if not (tracer.enabled or metrics.enabled):
        return _measure_model_impl(
            model, gpu, dtype, db=db, convention=convention, max_chain=max_chain,
            mode=mode, iterations=iterations, seed=seed, backend=backend,
            tracer=tracer, metrics=metrics,
        )
    with tracer.span(
        "tune.measure", model=model, gpu=gpu.name, dtype=dtype.value, mode=mode
    ):
        mm = _measure_model_impl(
            model, gpu, dtype, db=db, convention=convention, max_chain=max_chain,
            mode=mode, iterations=iterations, seed=seed, backend=backend,
            tracer=tracer, metrics=metrics,
        )
    metrics.counter(
        "repro_tune_candidates_total", help="Tiling candidates measured"
    ).inc(mm.evaluated, model=model, gpu=gpu.name)
    metrics.counter(
        "repro_tune_records_total", help="Tuning records persisted"
    ).inc(mm.records_added, model=model, gpu=gpu.name)
    return mm


def _measure_model_impl(
    model: str,
    gpu: GpuSpec,
    dtype: DType,
    *,
    db: TuningDB,
    convention: str,
    max_chain: int,
    mode: str,
    iterations: int,
    seed: int,
    backend: str,
    tracer,
    metrics,
) -> ModelMeasurement:
    record_engine = "analytic" if backend == "counters" else DEFAULT_ENGINE
    graph = build_model(model, dtype)
    plan = FusePlanner(
        gpu, convention, max_chain=max_chain, tracer=tracer, metrics=metrics
    ).plan(graph)
    session = InferenceSession(
        graph, plan, materialize_network(graph, dtype, seed)
    )
    report = session.run_analytic()
    assert len(report.records) == len(plan.steps)

    added = 0
    evaluated_total = 0
    tuned_total = 0.0
    #: repeated identical blocks are ubiquitous in the zoo; their geometry
    #: shares one record, so the (dominant) tiling search runs once per
    #: distinct geometry, not once per occurrence.
    searched: dict[tuple[str, tuple], tuple[dict[str, int], float, int]] = {}
    for step, rec in zip(plan.steps, report.records):
        est = estimated_step_cost_s(step, gpu, dtype)
        family = step_family(step)
        geometry = _step_geometry(step)
        if (family, geometry) not in searched:
            result = tune_step_tiling(
                step, gpu, dtype, mode=mode, iterations=iterations, seed=seed,
                backend=backend,
            )
            searched[(family, geometry)] = result
            evaluated_total += result[2]  # measurements actually performed
        tiling, tuned, evaluated = searched[(family, geometry)]
        tuned_total += tuned
        key = TuningKey(
            family=family,
            geometry=geometry,
            gpu=gpu.name,
            dtype=dtype.value,
            convention=convention,
        )
        added += db.add(
            TuningRecord(
                key=key,
                tiling=tiling,
                est_cost_s=est,
                measured_cost_s=rec.time_s,
                tuned_cost_s=tuned,
                gma_bytes=(
                    step.est_gma_bytes if isinstance(step, (LblStep, ChainStep))
                    else rec.counters.total_bytes
                ),
                evaluated=evaluated,
                seed=seed,
                engine=record_engine,
            )
        )

    est_plan = plan_cost_estimate(plan)
    measured_plan = report.latency_s
    added += db.add(
        TuningRecord(
            key=TuningKey(
                family="model",
                geometry=(model, max_chain),
                gpu=gpu.name,
                dtype=dtype.value,
                convention=convention,
            ),
            tiling={},
            est_cost_s=est_plan,
            measured_cost_s=measured_plan,
            tuned_cost_s=tuned_total,
            gma_bytes=report.total_gma_bytes,
            evaluated=evaluated_total,
            seed=seed,
            engine=record_engine,
        )
    )
    return ModelMeasurement(
        model=model,
        gpu=gpu.name,
        dtype=dtype.value,
        convention=convention,
        max_chain=max_chain,
        est_cost_s=est_plan,
        measured_cost_s=measured_plan,
        tuned_cost_s=tuned_total,
        steps=len(plan.steps),
        evaluated=evaluated_total,
        records_added=added,
    )


def _measure_one_job(job: tuple) -> tuple[str, ModelMeasurement]:
    """Worker-process entry: measure one (model, GPU) into a fresh DB.

    Returns the child DB's canonical dump (a string pickles cheaply and
    keeps the merge on the parent side, where ordering is controlled) plus
    the measurement summary.  Module-level so it is picklable by spawn-based
    pools too.
    """
    (model, gpu, dtype, convention, max_chain, mode, iterations, seed, backend) = job
    child = TuningDB()
    mm = measure_model(
        model, gpu, dtype, db=child, convention=convention,
        max_chain=max_chain, mode=mode, iterations=iterations,
        seed=seed, backend=backend,
    )
    return child.dumps(), mm


def tune_models(
    models: list[str] | tuple[str, ...],
    gpus: list[GpuSpec] | tuple[GpuSpec, ...],
    dtype: DType = DType.FP32,
    *,
    db: TuningDB | None = None,
    convention: str = "paper",
    max_chain: int = 2,
    mode: str = "guided",
    iterations: int = 20,
    seed: int = 0,
    backend: str = "counters",
    workers: int = 1,
    tracer=None,
    metrics=None,
) -> tuple[TuningDB, list[ModelMeasurement]]:
    """Measure every (model, GPU) combination into one DB (CLI ``tune run``).

    ``workers > 1`` fans the (model, GPU) tasks over a process pool.  Each
    task is already deterministic in isolation (seeded search, analytic
    counters), and the parent merges child DBs *in submission order* with
    the best-record-per-key / ties-keep-incumbent rule — so the resulting
    DB is byte-identical for every worker count.  ``records_added`` in the
    returned summaries is recomputed as the records each task contributed
    to the merged DB, matching the serial accounting.

    ``tracer``/``metrics`` observe the *serial* path only: pooled tasks run
    in worker processes whose spans cannot land in this process's tracer,
    and the DB bytes are identical either way.
    """
    if workers < 1:
        raise TuneError(f"workers must be >= 1, got {workers}")
    db = db if db is not None else TuningDB()
    jobs = [
        (model, gpu, dtype, convention, max_chain, mode, iterations, seed, backend)
        for gpu in gpus
        for model in models
    ]
    out: list[ModelMeasurement] = []
    if workers == 1 or len(jobs) <= 1:
        for job in jobs:
            out.append(measure_model(job[0], job[1], dtype, db=db, convention=convention,
                                     max_chain=max_chain, mode=mode, iterations=iterations,
                                     seed=seed, backend=backend,
                                     tracer=tracer, metrics=metrics))
        return db, out

    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # fork shares the warmed geometry memo / pow2 caches with the children
    # for free; spawn-only platforms still work, just with cold caches.
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
    with ProcessPoolExecutor(max_workers=min(workers, len(jobs)), mp_context=ctx) as pool:
        results = list(pool.map(_measure_one_job, jobs))
    for dumped, mm in results:  # submission order == the serial sweep order
        adopted = db.merge(TuningDB.loads(dumped))
        out.append(replace(mm, records_added=adopted))
    return db, out
