"""Batched multi-model inference server over the simulated runtime.

:class:`ModelServer` is the serving front end the ROADMAP's throughput story
needs: requests for any registered model are planned **once** (via the LRU
:class:`~repro.serve.cache.PlanCache`), then executed through the batch-aware
session paths so per-launch overheads and weight traffic amortize across a
micro-batch.  Two entry points:

* :meth:`ModelServer.submit` / :meth:`ModelServer.submit_analytic` — the
  synchronous path: one call, one batched pass (functional or analytic).
* :meth:`ModelServer.enqueue` + :meth:`ModelServer.step` /
  :meth:`ModelServer.serve_forever` — the queued path, analytic only:
  requests accumulate per (model, precision) key and flush as one
  micro-batch, priced by the resident plan's analytic report, when the batch
  fills (``max_batch``) or the oldest request's deadline (``max_delay_s``)
  expires.

Requests may carry a per-request SLO (``enqueue(..., slo_s=)``) and a
``priority``.  A queue holding deadline'd requests flushes *early* — at the
instant the tightest deadline's slack is about to run out, estimated via the
resident plan's analytic batch cost (which reflects tuning calibration when
the server was built with one) — so a partial batch never idles past the
point where its oldest request could still be served in time.  Priorities
order requests within their (model, precision) queue: higher priority flushes
first when a queue exceeds ``max_batch``.  With neither feature used, flush
instants reduce bit-exactly to the classic ``enqueued_at + max_delay_s``
arithmetic.

The clock is injectable so schedulers and tests can drive deadline flushing
deterministically (see :class:`~repro.serve.loadgen.FakeClock`).
"""

from __future__ import annotations

import math
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..core.dtypes import DType
from ..errors import PlanError, ShapeError
from ..gpu.specs import GpuSpec
from ..obs import (
    BATCH_SIZE_BUCKETS,
    QUEUE_WAIT_BUCKETS_S,
    record_session_report,
    resolve_metrics,
    resolve_tracer,
)
from ..runtime.session import SessionReport
from .cache import CachedPlan, CacheStats, PlanCache, PlanKey

__all__ = ["InferenceRequest", "InferenceResult", "ServerStats", "ModelServer"]


@dataclass
class InferenceRequest:
    """One queued (analytic) request."""

    id: int
    model: str
    dtype: DType
    enqueued_at: float
    #: absolute completion deadline (``enqueued_at + slo_s``), or None for
    #: the classic best-effort request.
    deadline_s: float | None = None
    #: higher flushes first within the (model, precision) queue.
    priority: int = 0


@dataclass(frozen=True)
class InferenceResult:
    """Completion record for one request, with its micro-batch context."""

    request_id: int
    model: str
    batch_seq: int  # which flushed micro-batch served this request
    batch_size: int
    wait_s: float  # time spent queued before the batch flushed
    exec_s: float  # simulated latency of the batched pass
    energy_per_image_j: float


@dataclass
class ServerStats:
    """Aggregate serving counters (plan-cache stats ride along)."""

    requests: int = 0
    images_served: int = 0
    batches: int = 0
    sim_time_s: float = 0.0
    energy_j: float = 0.0
    plan_cache: CacheStats = field(default_factory=CacheStats)

    @property
    def mean_batch(self) -> float:
        return self.images_served / self.batches if self.batches else 0.0


class ModelServer:
    """Micro-batching inference server with memoized FusePlanner plans.

    ``__init__`` is the one declaration of the serving settings and their
    defaults; ``Fleet``, ``fleet_replay``, ``capacity_rps`` and
    ``attainment_curve`` forward theirs here.  Plans use the paper's cost
    convention."""

    def __init__(
        self,
        gpu: GpuSpec,
        *,
        max_batch: int = 8,
        max_delay_s: float = 2e-3,
        cache_capacity: int = 8,
        max_chain: int = 2,
        # repro: allow[RPR001] injectable-clock default for interactive use;
        # every deterministic replay passes a shared FakeClock instead
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        db=None,
        calibration=None,
        tracer=None,
        metrics=None,
    ) -> None:
        if max_batch < 1:
            raise PlanError(f"max_batch must be >= 1, got {max_batch}")
        if max_delay_s < 0:
            raise PlanError(f"max_delay_s must be >= 0, got {max_delay_s}")
        if max_chain < 1:
            raise PlanError(f"max_chain must be >= 1, got {max_chain}")
        self.gpu = gpu
        self.max_batch = max_batch
        self.max_delay_s = max_delay_s
        self.max_chain = max_chain
        #: observability sinks (default: shared no-ops, zero overhead) and
        #: the process lane this server's events land on in trace exports —
        #: Fleet overrides ``lane`` to the worker name.
        self.tracer = resolve_tracer(tracer)
        self.metrics = resolve_metrics(metrics)
        self.lane = gpu.name
        #: ``calibration`` threads measurement-feedback factors into every
        #: plan this server builds; ``db`` (a :class:`repro.tune.records.
        #: TuningDB`) warm-starts the cache at construction time so tuned
        #: models never plan on the serving critical path.
        self.cache = PlanCache(
            capacity=cache_capacity, calibration=calibration,
            tracer=self.tracer, metrics=self.metrics,
        )
        if db is not None:
            self.cache.warm_start(db, gpu, max_chain=max_chain)
        self.clock = clock
        self.sleep = sleep
        self.stats = ServerStats(plan_cache=self.cache.stats)
        self._queues: OrderedDict[tuple[str, str], deque[InferenceRequest]] = OrderedDict()
        self._next_id = 0
        self._next_batch = 0
        #: memos of what routing, admission and flushing derive from the
        #: queues and resident plans, filled by the same arithmetic on first
        #: read: plan keys (kept), plan residency and flush prices (dropped
        #: when the cache's ``generation`` moves), each queue's due instant
        #: (dropped when that queue changes, or with the prices) and the
        #: server-wide totals: next deadline, earliest flush instant and
        #: queue cost (dropped on any change).  Queued requests are never
        #: mutated, so nothing else can stale them.
        self._plan_keys: dict[tuple[str, str], PlanKey] = {}
        self._resident: dict[tuple[str, str], bool] = {}
        self._prices: dict[tuple[tuple[str, str], int], float | None] = {}
        self._dues: dict[tuple[str, str], float] = {}
        self._totals: dict[str, float | None] = {}
        self._generation = self.cache.generation

    def plan_key(self, model: str, dtype: DType) -> PlanKey:
        """Identity of this server's plan for ``model`` at ``dtype``."""
        return self._plan_key((model, dtype.value))

    def _plan_key(self, key: tuple[str, str]) -> PlanKey:
        """:meth:`plan_key` of queue ``key``, memoized: it depends only on
        settings nothing reassigns after construction."""
        plan_key = self._plan_keys.get(key)
        if plan_key is None:
            model, dtype_value = key
            plan_key = PlanKey(model, dtype_value, self.gpu.name, "paper", self.max_chain)
            self._plan_keys[key] = plan_key
        return plan_key

    def _fresh(self) -> None:
        """Drop every memo derived from resident plans once they moved."""
        if self._generation != self.cache.generation:
            self._generation = self.cache.generation
            self._resident.clear()
            self._prices.clear()
            self._dues.clear()
            self._totals.clear()

    def _touch(self, key: tuple[str, str]) -> None:
        """Drop the memos derived from queue ``key``, which just changed."""
        self._dues.pop(key, None)
        self._totals.clear()

    def holds_plan(self, key: tuple[str, str]) -> bool:
        """Is queue ``key``'s plan resident?  Peeked (never perturbs cache
        accounting) and memoized until the resident plans move."""
        self._fresh()
        held = self._resident.get(key)
        if held is None:
            held = self._resident[key] = self.cache.peek(self._plan_key(key)) is not None
        return held

    def _plan(self, model: str, dtype: DType) -> CachedPlan:
        """Counted cache lookup under :meth:`plan_key`, planning on a miss."""
        return self.cache.get(model, dtype, self.gpu, max_chain=self.max_chain)

    # ---- synchronous path -----------------------------------------------------
    def submit(
        self, model: str, inputs: np.ndarray, dtype: DType = DType.FP32
    ) -> SessionReport:
        """Run one functional batched pass over ``inputs`` ((N, C, H, W) or a
        single (C, H, W) image) and return its report."""
        if inputs.ndim == 3:
            inputs = inputs[None]
        if inputs.ndim != 4:
            raise ShapeError(f"submit expects (N, C, H, W), got {inputs.shape}")
        report = self._plan(model, dtype).session.run_batch(inputs)
        self._account(report)
        self.stats.requests += inputs.shape[0]
        return report

    def submit_analytic(
        self, model: str, batch_size: int = 1, dtype: DType = DType.FP32
    ) -> SessionReport:
        """Price one batched pass (counters only, memoized per batch size)."""
        report = self._plan(model, dtype).analytic_report(batch_size)
        self._account(report)
        self.stats.requests += batch_size
        return report

    # ---- queued path -----------------------------------------------------------
    def enqueue(
        self,
        model: str,
        *,
        dtype: DType = DType.FP32,
        slo_s: float | None = None,
        priority: int = 0,
    ) -> int:
        """Queue one analytic request; returns its request id.  Nothing
        executes until :meth:`step` flushes.  Functional requests take the
        synchronous :meth:`submit`.

        ``slo_s`` stamps an absolute deadline ``now + slo_s`` on the request,
        which arms deadline-aware early flushing for its queue (and plans the
        model eagerly if its plan is not yet resident, so slack estimates are
        accurate from the first batch — the planner runs in zero simulated
        time either way).  ``priority`` inserts the request ahead of any
        queued strictly-lower-priority requests (stable among equals).
        """
        if slo_s is not None and slo_s <= 0:
            raise PlanError(f"slo_s must be > 0, got {slo_s}")
        now = self.clock()
        req = InferenceRequest(
            id=self._next_id,
            model=model,
            dtype=dtype,
            enqueued_at=now,
            deadline_s=None if slo_s is None else now + slo_s,
            priority=priority,
        )
        self._next_id += 1
        key = (model, dtype.value)
        if slo_s is not None and not self.holds_plan(key):
            self._plan(model, dtype)
        queue = self._queues.setdefault(key, deque())
        idx = len(queue)
        if priority:
            idx = next((i for i, r in enumerate(queue) if r.priority < priority), idx)
        queue.insert(idx, req)
        self._touch(key)
        self.stats.requests += 1
        if self.tracer.enabled or self.metrics.enabled:
            self.tracer.instant(
                "server.enqueue",
                t_s=now,
                pid=self.lane,
                request_id=req.id,
                model=model,
                dtype=dtype.value,
                priority=priority,
                slo_s=slo_s,
            )
            self.metrics.counter(
                "repro_requests_total", help="Requests enqueued"
            ).inc(worker=self.lane, model=model)
        return req.id

    def pending(self) -> int:
        """Requests currently queued across all (model, precision) keys."""
        return sum(len(q) for q in self._queues.values())

    def cancel(self, request_id: int) -> bool:
        """Remove one still-queued request (hedge first-wins cancellation).

        Returns False when the request is not queued here — already
        flushed, already served, or never enqueued on this server.
        """
        for key, queue in self._queues.items():
            for i, req in enumerate(queue):
                if req.id == request_id:
                    del queue[i]
                    self._touch(key)
                    if not queue:
                        del self._queues[key]
                    return True
        return False

    def drain(self) -> list[InferenceRequest]:
        """Pull every queued request off this server (crash failover path).

        Returns the drained requests in queue order so the caller can
        requeue them on surviving workers; batching state is reset.
        """
        drained: list[InferenceRequest] = []
        for queue in self._queues.values():
            drained.extend(queue)
        self._queues.clear()
        self._dues.clear()
        self._totals.clear()
        return drained

    def estimated_flush_cost_s(self, key: tuple[str, str], batch: int) -> float:
        """Analytic cost of flushing ``batch`` requests of queue ``key`` now,
        from the resident plan (peeked — never perturbs cache accounting);
        0.0 while the model is unplanned."""
        return self._price(key, batch) or 0.0

    def _price(self, key: tuple[str, str], batch: int) -> float | None:
        """:meth:`estimated_flush_cost_s`, None while unplanned; memoized
        until the resident plans move."""
        self._fresh()
        try:
            return self._prices[key, batch]
        except KeyError:
            entry = self.cache.peek(self._plan_key(key))
            price = None if entry is None else entry.analytic_report(batch).latency_s
            self._prices[key, batch] = price
            return price

    def _queue_due(self, key: tuple[str, str], queue: deque[InferenceRequest]) -> float:
        """Instant at which this (non-empty) queue's partial batch must flush:
        the classic formation deadline (oldest arrival + ``max_delay_s``), or
        earlier when a queued request's SLO slack — its deadline minus the
        estimated batch execution cost — runs out first."""
        self._fresh()
        due = self._dues.get(key)
        if due is None:
            due = min(r.enqueued_at for r in queue) + self.max_delay_s
            deadlines = [r.deadline_s for r in queue if r.deadline_s is not None]
            if deadlines:
                est = self.estimated_flush_cost_s(key, len(queue))
                due = min(due, min(deadlines) - est)
            self._dues[key] = due
        return due

    def next_deadline(self) -> float | None:
        """Earliest instant at which a queued micro-batch must flush."""
        self._fresh()
        if "next_deadline" not in self._totals:
            dues = [self._queue_due(k, q) for k, q in self._queues.items() if q]
            self._totals["next_deadline"] = min(dues) if dues else None
        return self._totals["next_deadline"]

    def flush_at(self) -> float:
        """Earliest instant at which :meth:`step` flushes anything: -inf
        while a queue holds a full batch, :meth:`next_deadline` otherwise,
        +inf while nothing is queued."""
        self._fresh()
        at = self._totals.get("flush_at")
        if at is None:
            if any(len(q) >= self.max_batch for q in self._queues.values()):
                at = -math.inf
            else:
                due = self.next_deadline()
                at = math.inf if due is None else due
            self._totals["flush_at"] = at
        return at

    def step(self, *, max_flushes: int | None = None) -> list[InferenceResult]:
        """Flush every due micro-batch: full batches always, partial ones
        once their queue is due (:meth:`next_deadline`).  Before
        :meth:`flush_at` it returns at once.

        ``max_flushes`` caps the number of micro-batches *executed* by this
        call (surplus due requests stay queued), which is how
        :meth:`serve_forever` enforces ``max_batches`` exactly.
        """
        now = self.clock()
        if now < self.flush_at():
            return []
        start = self._next_batch
        results: list[InferenceResult] = []

        def budget() -> int | None:
            if max_flushes is None:
                return None
            return max_flushes - (self._next_batch - start)

        for key in list(self._queues):
            queue = self._queues[key]
            while len(queue) >= self.max_batch and budget() != 0:
                results.extend(self._flush(key, self.max_batch, now))
            # Same arithmetic as next_deadline(), so stepping a clock pinned
            # to the deadline always flushes (a - b >= d can round false when
            # a == b + d in floats).
            if queue and budget() != 0 and now >= self._queue_due(key, queue):
                results.extend(self._flush(key, len(queue), now))
            if not queue:
                del self._queues[key]
            if budget() == 0:
                break
        return results

    def serve_forever(
        self,
        *,
        max_batches: int | None = None,
        poll_s: float = 1e-4,
    ) -> list[InferenceResult]:
        """Serve until the queue drains (or ``max_batches`` flushes happen).

        The toy stand-in for a serving loop: repeatedly flush due batches,
        sleeping ``poll_s`` between polls so partial batches age past their
        deadline.  With a :class:`~repro.serve.loadgen.FakeClock` as the
        server's clock/sleep pair this is fully deterministic.
        """
        if max_batches is not None and max_batches < 1:
            raise PlanError(f"max_batches must be >= 1, got {max_batches}")
        results: list[InferenceResult] = []
        start = self._next_batch
        while self.pending():
            remaining = (
                None if max_batches is None
                else max_batches - (self._next_batch - start)
            )
            if remaining == 0:
                break
            flushed = self.step(max_flushes=remaining)
            if flushed:
                results.extend(flushed)
            else:
                self.sleep(poll_s)
        return results

    # ---- worker core (reused by repro.serve.fleet) ----------------------------
    def estimated_queue_cost_s(self) -> float:
        """Analytic cost of draining the current queues, for fleet routing.

        Prices each queued request at its plan's single-image analytic
        latency, using only plans already resident in the cache (peeked, so
        a routing probe never perturbs hit/miss stats or LRU recency).
        Requests for not-yet-planned models are priced at the mean known
        per-request cost (0 when nothing is planned yet, which makes a cold
        worker attractive — exactly when spilling to it is cheapest)."""
        self._fresh()
        total = self._totals.get("queue_cost")
        if total is not None:
            return total
        total = 0.0
        unknown = 0
        known: list[float] = []
        for key, queue in self._queues.items():
            if not queue:
                continue
            per_request = self._price(key, 1)
            if per_request is None:
                unknown += len(queue)
                continue
            known.append(per_request)
            total += len(queue) * per_request
        if unknown and known:
            total += unknown * sum(known) / len(known)
        self._totals["queue_cost"] = total
        return total

    def estimated_drain_s(self, extra: tuple[str, str] | None = None) -> float:
        """Analytic cost of draining the current queues in ``max_batch``
        micro-batches, optionally with one hypothetical request appended to
        queue ``extra`` — the admission controller's completion projection.

        Unlike :meth:`estimated_queue_cost_s` (a per-request pessimistic
        *routing* signal), this prices the backlog the way it will actually
        execute: full batches at the batched analytic latency plus one
        remainder batch.  Only resident plans are consulted (peeked);
        unplanned queues price at 0.
        """
        total = 0.0
        # Insertion order, not a set: float summation order must not depend
        # on hash randomization or replay determinism breaks across runs.
        keys = list(self._queues)
        if extra is not None and extra not in self._queues:
            keys.append(extra)
        for key in keys:
            n = len(self._queues.get(key, ()))
            if extra == key:
                n += 1
            if not n:
                continue
            full, rest = divmod(n, self.max_batch)
            if full:
                total += full * self.estimated_flush_cost_s(key, self.max_batch)
            if rest:
                total += self.estimated_flush_cost_s(key, rest)
        return total

    def _flush(
        self, key: tuple[str, str], count: int, now: float
    ) -> list[InferenceResult]:
        """Pop the first ``count`` requests of queue ``key`` and price them as
        one micro-batch through the plan's analytic report — the
        execution/accounting core every flush funnels through."""
        queue = self._queues[key]
        batch = [queue.popleft() for _ in range(count)]
        first = batch[0]
        report = self._plan(first.model, first.dtype).analytic_report(count)
        self._account(report)
        seq = self._next_batch
        self._next_batch += 1
        if self.tracer.enabled or self.metrics.enabled:
            self._observe_batch(batch, report, seq, now)
        self._touch(key)
        return [
            InferenceResult(
                request_id=r.id,
                model=r.model,
                batch_seq=seq,
                batch_size=count,
                wait_s=max(0.0, now - r.enqueued_at),
                exec_s=report.latency_s,
                energy_per_image_j=report.energy_per_image_j,
            )
            for r in batch
        ]

    def _observe_batch(
        self,
        batch: list[InferenceRequest],
        report: SessionReport,
        seq: int,
        now: float,
    ) -> None:
        """Emit one flushed micro-batch onto the obs layer: the batch and
        per-step kernel intervals on the execution lane (tid 0), one
        ``request.wait`` interval per request on its own lane (tid 2+id),
        and the queue-wait / batch-size histograms.  Only called when a
        tracer or registry is live, so the default hot path never pays."""
        record_session_report(
            self.tracer, self.metrics, report,
            start_s=now, pid=self.lane, batch_seq=seq,
        )
        wait_hist = self.metrics.histogram(
            "repro_queue_wait_seconds", QUEUE_WAIT_BUCKETS_S,
            help="Request queue wait before its batch flushed",
        )
        for r in batch:
            self.tracer.add_span(
                "request.wait",
                min(r.enqueued_at, now),
                now,
                pid=self.lane,
                tid=2 + r.id,
                request_id=r.id,
                model=r.model,
                batch_seq=seq,
            )
            wait_hist.observe(max(0.0, now - r.enqueued_at), worker=self.lane)
        self.metrics.histogram(
            "repro_batch_size", BATCH_SIZE_BUCKETS,
            help="Requests per flushed micro-batch",
        ).observe(len(batch), worker=self.lane)

    def _account(self, report: SessionReport) -> None:
        self.stats.images_served += report.batch_size
        self.stats.batches += 1
        self.stats.sim_time_s += report.latency_s
        self.stats.energy_j += report.energy_j
