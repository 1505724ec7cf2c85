"""Multi-GPU serving fleet: per-GPU workers, plan-affinity routing.

The paper's central observation is that the best fusion/tiling choice is
*per-GPU*: the same DW+PW pair wants different FCM variants and tile shapes
on each evaluated device (PAPER.md §V).  A fleet therefore keeps one
:class:`~repro.serve.server.ModelServer` per GPU — its own
:class:`~repro.serve.cache.PlanCache`, its own micro-batch queues, its own
:class:`~repro.gpu.specs.GpuSpec` — so heterogeneous mixes (one desktop +
two embedded boards) are first-class: every worker plans for *its* silicon.

Routing is where plans meet load.  :class:`FleetScheduler` implements two
policies:

* ``"affinity"`` (default) — prefer workers whose plan cache already holds
  the routed ``(model, dtype, gpu, max_chain)`` plan, breaking
  ties by least estimated backlog (device occupancy plus the analytic cost
  of every queued request).  When the best plan-holder is overloaded — its
  backlog exceeds the best non-holder's by more than ``spill_factor`` full
  micro-batches of the routed model — the request *spills* to the non-holder,
  which plans the model and joins the holder set.  Affinity maximizes plan
  reuse; spilling keeps a hot model from pinning the whole stream to one GPU.
* ``"round_robin"`` — the classic baseline: workers in rotation, no cache or
  load awareness.  Kept as the comparison point the affinity tests beat.

Backlog estimation only *peeks* at plan caches (:meth:`PlanCache.peek`), so
routing never perturbs the hit/miss accounting it is driven by.

Each decision is recorded once, as the tracer's ``fleet.route`` instant
(chosen worker, reason flags, per-worker backlogs); :func:`explain_routes`
renders those instants as the ``fleet --explain`` lines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..core.dtypes import DType
from ..errors import PlanError
from ..gpu.specs import GpuSpec
from ..runtime.session import SessionReport
from .cache import CachedPlan, PlanKey
from .server import InferenceResult, ModelServer

__all__ = [
    "FleetWorker",
    "FleetScheduler",
    "explain_routes",
    "WorkerStats",
    "FleetStats",
    "Fleet",
]

POLICIES = ("affinity", "round_robin")


class FleetWorker:
    """One fleet member: a per-GPU :class:`ModelServer` plus the device
    occupancy timeline the discrete-event replay advances."""

    def __init__(self, worker_id: int, gpu: GpuSpec, server: ModelServer) -> None:
        self.worker_id = worker_id
        self.gpu = gpu
        self.server = server
        #: worker names stay unique in homogeneous fleets ("RTX#0", "RTX#1").
        self.name = f"{gpu.name}#{worker_id}"
        #: simulated instant until which the device is executing already
        #: flushed batches (maintained by loadgen.fleet_replay).
        self.busy_until = 0.0
        #: cumulative simulated execution time (utilization reporting).
        self.busy_s = 0.0
        #: health state machine (see serve.faults.WORKER_HEALTH); only a
        #: FaultInjector ever moves a worker off "healthy".
        self.health = "healthy"
        #: thermal-throttle multiplier on batch execution time (1.0 = none).
        self.throttle = 1.0
        #: armed transient batch failures (next flush on this worker fails).
        self.pending_transient = 0
        #: instant the current outage started, and cumulative downtime.
        self.down_since: float | None = None
        self.downtime_s = 0.0
        #: per-worker circuit breaker, created lazily by the injector.
        self.breaker = None

    def occupancy_s(self, now: float) -> float:
        """Remaining device-busy time at instant ``now``."""
        return max(0.0, self.busy_until - now)

    def estimated_backlog_s(self, now: float) -> float:
        """Occupancy plus the analytic cost of every queued request."""
        return self.occupancy_s(now) + self.server.estimated_queue_cost_s()

    def routable(self, now: float) -> bool:
        """May routing send traffic here at ``now``?  Down and recovering
        workers are skipped; a degraded (throttled) worker still serves.
        An open circuit breaker also vetoes (half-open lets one probe by).
        """
        if self.health not in ("healthy", "degraded"):
            return False
        return self.breaker is None or self.breaker.allows(now)


class FleetScheduler:
    """Routes requests over a :class:`Fleet`'s live workers, with the
    fleet's ``policy`` and ``spill_factor``; each decision lands on the
    fleet's tracer as a ``fleet.route`` instant."""

    def __init__(self, fleet: Fleet, policy: str, spill_factor: float) -> None:
        if policy not in POLICIES:
            raise PlanError(f"unknown policy {policy!r}; choose from {POLICIES}")
        if spill_factor < 0:
            raise PlanError(f"spill_factor must be >= 0, got {spill_factor}")
        #: the fleet's own list, so add_worker/remove_worker are visible
        #: to routing immediately.
        self.workers = fleet.workers
        self.policy = policy
        self.spill_factor = spill_factor
        self.tracer = fleet.tracer
        self.metrics = fleet.metrics
        self._rr = 0
        self._seq = 0

    def route(
        self,
        model: str,
        dtype: DType,
        now: float,
        *,
        exclude: frozenset[int] = frozenset(),
    ) -> FleetWorker | None:
        """Pick the worker for one request (see module docstring).

        Down / recovering / breaker-open workers are skipped, as is any
        ``worker_id`` in ``exclude`` (hedges avoid workers already holding
        a copy).  Returns None when nothing is routable — only possible
        while a fault injector has taken workers out.
        """
        pool = [
            w for w in self.workers
            if w.worker_id not in exclude and w.routable(now)
        ]
        if not pool:
            return None
        affinity_hit = spilled = False
        backlogs: dict[str, float] = {}
        if self.policy == "round_robin":
            n = len(self.workers)
            for k in range(n):
                worker = self.workers[(self._rr + k) % n]
                if worker.worker_id not in exclude and worker.routable(now):
                    self._rr += k + 1
                    break
        else:
            backlogs = {w.name: w.estimated_backlog_s(now) for w in pool}

            def load(w: FleetWorker) -> tuple[float, int]:
                return (backlogs[w.name], w.worker_id)  # deterministic ties

            key = (model, dtype.value)
            holders: list[FleetWorker] = []
            others: list[FleetWorker] = []
            for w in pool:
                (holders if w.server.holds_plan(key) else others).append(w)
            if not holders:
                worker = min(others, key=load)
            else:
                worker = min(holders, key=load)
                affinity_hit = True
                if others:
                    best_other = min(others, key=load)
                    # Tolerate spill_factor full micro-batches of imbalance
                    # before replicating the plan onto a fresh worker.
                    per = worker.server.estimated_flush_cost_s(key, 1)
                    threshold = self.spill_factor * worker.server.max_batch * per
                    gap = backlogs[worker.name] - backlogs[best_other.name]
                    if gap > threshold:
                        worker = best_other
                        affinity_hit, spilled = False, True
        if self.tracer.enabled or self.metrics.enabled:
            self.tracer.instant(
                "fleet.route",
                t_s=now,
                pid=worker.name,
                seq=self._seq,
                model=model,
                dtype=dtype.value,
                policy=self.policy,
                affinity_hit=affinity_hit,
                spilled=spilled,
                backlog_s=backlogs,  # routable workers in worker order
            )
            self.metrics.counter(
                "repro_routes_total", help="Routing decisions by outcome"
            ).inc(
                outcome=(
                    "spill" if spilled
                    else "affinity" if affinity_hit
                    else "least_backlog"
                ),
                policy=self.policy,
            )
        self._seq += 1
        return worker


def explain_routes(tracer) -> list[str]:
    """The ``fleet --explain`` lines: one per ``fleet.route`` instant, in
    decision order, as ``#seq model -> worker [reason]`` followed by the
    routable workers' backlogs in microseconds (round-robin weighs none)."""
    lines = []
    for rec in tracer.instants:
        if rec.name != "fleet.route":
            continue
        a = dict(rec.attrs)
        reason = (
            "round-robin" if a["policy"] == "round_robin"
            else "spill (holder overloaded)" if a["spilled"]
            else "plan affinity" if a["affinity_hit"]
            else "no holder; least backlog"
        )
        backlogs = ", ".join(
            f"{name}={est * 1e6:.1f}us" for name, est in a["backlog_s"].items()
        )
        lines.append(
            f"#{a['seq']} {a['model']} -> {rec.pid} [{reason}]"
            + (f"  backlog: {backlogs}" if backlogs else "")
        )
    return lines


@dataclass(frozen=True)
class WorkerStats:
    """Per-worker slice of a fleet's aggregate accounting."""

    worker: str
    gpu: str
    requests: int
    images_served: int
    batches: int
    mean_batch: float
    busy_s: float
    plan_hits: int
    plan_misses: int
    evictions: int
    planner_invocations: int
    warm_starts: int = 0


@dataclass(frozen=True)
class FleetStats:
    """Fleet-wide accounting with the per-worker breakdown riding along."""

    requests: int
    images_served: int
    batches: int
    plan_hits: int
    plan_misses: int
    evictions: int
    planner_invocations: int
    warm_starts: int = 0
    per_worker: tuple[WorkerStats, ...] = field(default_factory=tuple)

    @property
    def mean_batch(self) -> float:
        return self.images_served / self.batches if self.batches else 0.0

    @property
    def plan_hit_rate(self) -> float:
        lookups = self.plan_hits + self.plan_misses
        return self.plan_hits / lookups if lookups else 0.0


class Fleet:
    """A set of per-GPU workers behind one scheduler.

    ``gpus`` may repeat (homogeneous scale-out) or mix presets
    (heterogeneous, e.g. ``[RTX_A4000, ORIN, ORIN]``).  Every worker,
    autoscaled ones included, is a :class:`ModelServer` built from the
    forwarded ``**server`` settings; the fleet runs on its first worker's
    clock and shares its sinks with the scheduler.
    :func:`repro.serve.loadgen.fleet_replay` routes each request through
    :attr:`scheduler` and enqueues it on the chosen worker's server itself,
    then flushes with :meth:`step` and waits on :meth:`next_deadline` /
    :meth:`pending`; ``submit_analytic`` is the synchronous routed path the
    CLI batch sweeps use.
    """

    def __init__(
        self,
        gpus: Sequence[GpuSpec],
        *,
        policy: str = "affinity",
        spill_factor: float = 2.0,
        **server,
    ) -> None:
        if not gpus:
            raise PlanError("a fleet needs at least one GPU")
        self._server_settings = server
        self._next_worker_id = 0
        #: one shared tuning DB warm-starts every worker: each preloads only
        #: the model-level records matching *its own* GPU, so heterogeneous
        #: fleets boot with per-silicon plans and serve their first request
        #: with zero planner invocations on the critical path.
        self.workers: list[FleetWorker] = []
        #: workers removed by the autoscaler; their accounting still rolls up
        #: into :meth:`stats` so a shrink never loses served-request history.
        self.retired: list[FleetWorker] = []
        for gpu in gpus:
            self._build_worker(gpu)
        first = self.workers[0].server
        self.clock = first.clock
        self.tracer = first.tracer
        self.metrics = first.metrics
        self.scheduler = FleetScheduler(self, policy, spill_factor)

    def _build_worker(self, gpu: GpuSpec) -> FleetWorker:
        worker = FleetWorker(self._next_worker_id, gpu, ModelServer(gpu, **self._server_settings))
        # The worker's events land on its own process lane in trace exports
        # ("RTX#0", "RTX#1"), not the shared GPU-name lane.
        worker.server.lane = worker.name
        self._next_worker_id += 1
        self.workers.append(worker)
        return worker

    # ---- boot-time preplanning ---------------------------------------------------
    def preplan(
        self, models: Sequence[str], dtypes: Sequence[DType] = (DType.FP32,)
    ) -> int:
        """Plan every (worker GPU, model, dtype) combination before serving.

        Planning is the expensive boot-time step.  Each *distinct* ``(gpu,
        model, dtype)`` is planned once, and one :class:`CachedPlan` is made
        from the graph that was planned (:meth:`CachedPlan.of`); every
        worker with that GPU adopts it (:meth:`PlanCache.adopt`), as
        :meth:`rewarm` does, so same-GPU workers share one entry: its plan,
        its weights handle and its memoized analytic reports.  Each adoption
        counts as a ``warm_start``, so a replay over the preplanned fleet
        has no planning on its critical path.  Returns the number of entries
        made resident.
        """
        from ..models.zoo import build_model
        from ..planner.planner import FusePlanner

        entries: dict[PlanKey, CachedPlan] = {}  # one per (GPU, model, dtype)
        adopted = 0
        for w in self.workers:
            cache = w.server.cache
            for model in models:
                for dtype in dtypes:
                    key = w.server.plan_key(model, dtype)
                    before = cache.stats.warm_starts
                    if key in entries:
                        cache.adopt(entries[key])
                    else:
                        graph = build_model(model, dtype)
                        plan = FusePlanner(
                            w.gpu, max_chain=w.server.max_chain,
                            calibration=cache.calibration,
                        ).plan(graph)
                        entries[key] = cache.adopt(CachedPlan.of(key, dtype, graph, plan))
                    adopted += cache.stats.warm_starts - before
        return adopted

    # ---- elasticity (driven by repro.serve.autoscale) ---------------------------
    def add_worker(self, gpu: GpuSpec) -> FleetWorker:
        """Grow the fleet by one worker on ``gpu``, configured identically to
        the boot-time workers (shared clock, tuning DB, sinks).  The new
        worker starts idle and cold — backlog-aware routing makes it
        attractive immediately."""
        return self._build_worker(gpu)

    def remove_worker(self, worker: FleetWorker) -> None:
        """Retire one *idle* worker (empty queue, device not executing).

        The worker moves to :attr:`retired` so its serving history stays in
        :meth:`stats`; removing the last worker or a busy one is an error —
        the autoscaler only ever shrinks idle capacity (a crashed worker is
        drained by the fault injector and stays in the fleet).
        """
        if worker not in self.workers:
            raise PlanError(f"{worker.name} is not an active worker of this fleet")
        if len(self.workers) == 1:
            raise PlanError("cannot remove the last worker of a fleet")
        if worker.server.pending() or worker.busy_until > self.clock():
            raise PlanError(f"cannot remove busy worker {worker.name}")
        self.workers.remove(worker)
        self.retired.append(worker)

    def rewarm(self, worker: FleetWorker) -> int:
        """Re-warm a recovering worker's plan cache from same-GPU peers.

        A crash wiped the worker's on-device plans (``PlanCache.clear``);
        before it takes traffic again, adopt every plan still resident on
        a peer with the same GPU — adoption shares the peer's entry (plan,
        session, and weights if a functional request already generated
        them) and counts as a warm start, never a planner invocation.
        Returns the number of plans adopted.
        """
        adopted = 0
        for peer in self.workers:
            if peer is worker or peer.gpu.name != worker.gpu.name:
                continue
            for key in peer.server.cache.keys():
                entry = peer.server.cache.peek(key)
                if entry is None or key in worker.server.cache:
                    continue
                worker.server.cache.adopt(entry)
                adopted += 1
        return adopted

    @property
    def policy(self) -> str:
        return self.scheduler.policy

    # ---- synchronous routed path ----------------------------------------------
    def submit_analytic(
        self, model: str, batch_size: int = 1, dtype: DType = DType.FP32
    ) -> tuple[FleetWorker, SessionReport]:
        """Route one analytic batch and run it on the chosen worker."""
        now = self.clock()
        worker = self.scheduler.route(model, dtype, now)
        if worker is None:
            raise PlanError(f"no routable worker for {model} (fleet is down)")
        report = worker.server.submit_analytic(model, batch_size, dtype)
        # Charge the batch to the worker's occupancy timeline, so later
        # routing sees the device as busy (otherwise every backlog estimate
        # stays 0 and affinity pins all traffic to worker 0).
        worker.busy_until = max(now, worker.busy_until) + report.latency_s
        worker.busy_s += report.latency_s
        return worker, report

    # ---- queued path (driven by loadgen.fleet_replay) ---------------------------
    def pending(self) -> int:
        return sum(w.server.pending() for w in self.workers)

    def next_deadline(self) -> float | None:
        deadlines = [d for w in self.workers if (d := w.server.next_deadline()) is not None]
        return min(deadlines) if deadlines else None

    def step(self) -> list[tuple[FleetWorker, InferenceResult]]:
        """Flush the due workers' micro-batches, in worker order; results
        keep their worker so callers can advance per-device occupancy.

        A worker is due once its :meth:`ModelServer.flush_at` has passed: a
        queue holds a full batch, or a partial batch's flush instant is
        reached.  Only due workers are stepped; the others would flush
        nothing."""
        now = self.clock()
        flushed: list[tuple[FleetWorker, InferenceResult]] = []
        for worker in self.workers:
            if worker.server.flush_at() <= now:
                flushed.extend((worker, r) for r in worker.server.step())
        return flushed

    # ---- accounting -------------------------------------------------------------
    def stats(self) -> FleetStats:
        """Aggregate serving + plan-cache counters across the fleet (retired
        workers included: shrinking never loses history)."""
        members = sorted(self.workers + self.retired, key=lambda w: w.worker_id)
        per_worker = tuple(
            WorkerStats(
                worker=w.name,
                gpu=w.gpu.name,
                requests=w.server.stats.requests,
                images_served=w.server.stats.images_served,
                batches=w.server.stats.batches,
                mean_batch=w.server.stats.mean_batch,
                busy_s=w.busy_s,
                plan_hits=w.server.cache.stats.hits,
                plan_misses=w.server.cache.stats.misses,
                evictions=w.server.cache.stats.evictions,
                planner_invocations=w.server.cache.stats.planner_invocations,
                warm_starts=w.server.cache.stats.warm_starts,
            )
            for w in members
        )
        return FleetStats(
            requests=sum(s.requests for s in per_worker),
            images_served=sum(s.images_served for s in per_worker),
            batches=sum(s.batches for s in per_worker),
            plan_hits=sum(s.plan_hits for s in per_worker),
            plan_misses=sum(s.plan_misses for s in per_worker),
            evictions=sum(s.evictions for s in per_worker),
            planner_invocations=sum(s.planner_invocations for s in per_worker),
            warm_starts=sum(s.warm_starts for s in per_worker),
            per_worker=per_worker,
        )
