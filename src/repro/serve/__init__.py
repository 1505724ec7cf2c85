"""Batched multi-model serving: plan caching, micro-batching, load replay.

The serving subsystem turns the one-shot reproduction pipeline (plan ->
session -> report) into a request-serving layer:

* :mod:`repro.serve.cache` — LRU :class:`PlanCache` memoizing FusePlanner
  plans + sessions per (model, dtype, GPU, convention, chain cap), whose
  weights are generated on the first functional request, with
  :meth:`PlanCache.warm_start` preloading plans from a
  :class:`repro.tune.records.TuningDB` at boot;
* :mod:`repro.serve.server` — :class:`ModelServer` with synchronous batched
  submits and a micro-batching request queue (flush on ``max_batch``,
  formation deadline, or a queued request's SLO slack running out), whose
  constructor declares the serving settings every other entry point
  forwards;
* :mod:`repro.serve.admission` — SLO-aware :class:`AdmissionController`
  that sheds or degrades (to the INT8 plan variant) requests whose projected
  latency would bust their deadline;
* :mod:`repro.serve.fleet` — multi-GPU :class:`Fleet` of per-GPU workers
  behind a :class:`FleetScheduler` (plan-affinity or round-robin routing),
  elastic via :meth:`Fleet.add_worker` / :meth:`Fleet.remove_worker`;
* :mod:`repro.serve.autoscale` — reactive :class:`Autoscaler` resizing the
  fleet from its backlog signal (and from lost serving capacity under
  faults), with a replayable decision trace;
* :mod:`repro.serve.faults` — deterministic chaos: JSONL-replayable
  :class:`FaultPlan` (crash / slowdown / transient / recover), per-worker
  health state machine and :class:`CircuitBreaker`, :class:`RetryPolicy`
  with budgeted backoff and p99-based hedging, all driven on the shared
  clock by a :class:`FaultInjector`;
* :mod:`repro.serve.loadgen` — deterministic arrival streams (uniform,
  Poisson, heavy-tailed lognormal/Pareto, diurnal), JSONL trace files, and
  the discrete-event :func:`fleet_replay` harness (a single GPU is a
  one-worker fleet) reporting img/s, nearest-rank p50/p99 latency, and SLO
  attainment (:func:`attainment_curve` sweeps it against offered load).
"""

from .admission import (
    ADMISSION_POLICIES,
    AdmissionController,
    AdmissionDecision,
    AdmissionStats,
    admission_controller,
)
from .autoscale import Autoscaler, AutoscalePolicy, ScaleEvent
from .cache import CachedPlan, CacheStats, PlanCache, PlanKey
from .faults import (
    FAULT_KINDS,
    WORKER_HEALTH,
    CircuitBreaker,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    FaultStats,
    RetryPolicy,
)
from .fleet import (
    Fleet,
    FleetScheduler,
    FleetStats,
    FleetWorker,
    RouteDecision,
    WorkerStats,
)
from .loadgen import (
    ARRIVAL_KINDS,
    AttainmentPoint,
    FakeClock,
    FleetStreamReport,
    TraceRequest,
    WorkerSloStats,
    arrival_times,
    attainment_curve,
    capacity_rps,
    diurnal_arrival_times,
    fleet_replay,
    generate_arrivals,
    hedge_delay,
    lognormal_arrival_times,
    pareto_arrival_times,
    percentile,
    read_trace,
    write_trace,
)
from .server import InferenceRequest, InferenceResult, ModelServer, ServerStats

__all__ = [
    "ADMISSION_POLICIES",
    "AdmissionController",
    "AdmissionDecision",
    "AdmissionStats",
    "admission_controller",
    "Autoscaler",
    "AutoscalePolicy",
    "ScaleEvent",
    "CachedPlan",
    "CacheStats",
    "PlanCache",
    "PlanKey",
    "FAULT_KINDS",
    "WORKER_HEALTH",
    "CircuitBreaker",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultStats",
    "RetryPolicy",
    "Fleet",
    "FleetScheduler",
    "FleetStats",
    "FleetWorker",
    "RouteDecision",
    "WorkerStats",
    "ARRIVAL_KINDS",
    "AttainmentPoint",
    "FakeClock",
    "FleetStreamReport",
    "TraceRequest",
    "WorkerSloStats",
    "arrival_times",
    "attainment_curve",
    "capacity_rps",
    "diurnal_arrival_times",
    "fleet_replay",
    "generate_arrivals",
    "hedge_delay",
    "lognormal_arrival_times",
    "pareto_arrival_times",
    "percentile",
    "read_trace",
    "write_trace",
    "InferenceRequest",
    "InferenceResult",
    "ModelServer",
    "ServerStats",
]
