"""Deterministic fault injection, retries, and failover for the fleet.

Production inference fleets treat worker failure as an input, not an
exception: GPUs crash (MTBF), thermally throttle, drop individual batches,
and come back (MTTR).  This module makes all of that a *replayable
artifact* on the shared simulated clock:

- :class:`FaultEvent` / :class:`FaultPlan` — a declarative, validated
  schedule of ``crash`` / ``slowdown`` / ``transient`` / ``recover``
  events, serialized as canonical JSONL exactly like request traces
  (byte-identical ``save`` -> ``load`` round trip), plus a seeded
  :meth:`FaultPlan.chaos` generator drawing exponential crash/recover
  times from MTBF/MTTR.
- :class:`RetryPolicy` — bounded attempts, exponential backoff of a
  constant shape with *deterministic* jitter (an integer hash of
  ``(request, attempt)``, so no RNG draw-order sensitivity), a retry
  budget as a fraction of offered load, and an optional hedged duplicate
  after a p99-based delay with first-wins cancellation.
- :class:`CircuitBreaker` — per-worker consecutive-failure breaker with
  a half-open probe (constant threshold and reset), consulted by routing
  via ``FleetWorker.routable``.
- :class:`FaultInjector` — the chaos runtime: an event heap on the
  replay clock that kills in-flight batches on crash, drains and
  requeues queued work to survivors, arms transient batch failures,
  applies thermal-throttle factors, schedules recovery probes, and
  re-warms a recovering worker's ``PlanCache`` from same-GPU peers
  before it takes traffic.  ``fleet_replay`` drives it; the injector
  reports a frozen :class:`FaultStats` (retries, hedges, requeues,
  losses, per-worker downtime, availability).

Everything is scheduled on the injected clock — never ``time.sleep`` —
so a chaos replay is replay-twice byte-identical, and a replay with no
plan armed never constructs an injector at all (zero-cost path).
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, ClassVar, Iterable, Sequence

import numpy as np

from ..errors import PlanError
from ..obs import resolve_metrics, resolve_tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .fleet import Fleet, FleetWorker
    from .server import InferenceResult

__all__ = [
    "FAULT_KINDS",
    "WORKER_HEALTH",
    "CircuitBreaker",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultStats",
    "RetryPolicy",
]

#: worker health state machine: healthy -> degraded (throttled) and
#: healthy -> down -> recovering -> healthy; routing accepts the first two.
WORKER_HEALTH = ("healthy", "degraded", "down", "recovering")

#: event vocabulary a FaultPlan may schedule against a worker.
FAULT_KINDS = ("crash", "slowdown", "transient", "recover")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: at ``t``, do ``kind`` to worker ``worker``.

    ``factor`` only matters for ``slowdown``: batch execution on the
    degraded worker is stretched by that multiple until it recovers.
    """

    t: float
    worker: int
    kind: str
    factor: float = 1.0

    def describe(self) -> str:
        extra = f" x{self.factor:g}" if self.kind == "slowdown" else ""
        return f"t={self.t * 1e3:.3f}ms worker#{self.worker} {self.kind}{extra}"


def _validate_events(events: Sequence[FaultEvent]) -> None:
    last = 0.0
    for i, ev in enumerate(events):
        if ev.kind not in FAULT_KINDS:
            raise PlanError(
                f"fault event {i}: unknown kind {ev.kind!r} (choose from {FAULT_KINDS})"
            )
        if ev.t < 0:
            raise PlanError(f"fault event {i}: negative timestamp {ev.t}")
        if ev.t < last:
            raise PlanError(
                f"fault event {i}: timestamps must be non-decreasing ({ev.t} < {last})"
            )
        if ev.worker < 0:
            raise PlanError(f"fault event {i}: negative worker id {ev.worker}")
        if ev.kind == "slowdown" and ev.factor < 1.0:
            raise PlanError(
                f"fault event {i}: slowdown factor must be >= 1.0, got {ev.factor}"
            )
        last = ev.t


@dataclass(frozen=True)
class FaultPlan:
    """A validated, time-ordered schedule of fault events.

    Plans serialize to one-record-per-line canonical JSON (sorted keys,
    no spaces) so a chaos scenario is a diffable, replayable artifact
    exactly like a request trace: ``load(save(plan)) == plan`` and the
    re-written file is byte-identical.
    """

    events: tuple[FaultEvent, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        _validate_events(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def save(self, path: "str | Path") -> Path:
        """Write the plan as canonical JSONL; returns the path."""
        out = Path(path)
        lines = []
        for ev in self.events:
            rec = {"t": ev.t, "worker": ev.worker, "kind": ev.kind}
            if ev.kind == "slowdown":
                rec["factor"] = ev.factor
            lines.append(json.dumps(rec, sort_keys=True, separators=(",", ":")))
        out.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
        return out

    @classmethod
    def load(cls, path: "str | Path") -> "FaultPlan":
        """Read a plan back from :meth:`save` output (or hand-written JSONL)."""
        src = Path(path)
        if not src.exists():
            raise PlanError(f"fault plan not found: {src}")
        events = []
        for lineno, line in enumerate(src.read_text(encoding="utf-8").splitlines(), 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise PlanError(f"{src}:{lineno}: invalid JSON: {exc}") from exc
            if not isinstance(rec, dict):
                raise PlanError(f"{src}:{lineno}: expected an object per line")
            try:
                events.append(
                    FaultEvent(
                        t=float(rec["t"]),
                        worker=int(rec["worker"]),
                        kind=str(rec["kind"]),
                        factor=float(rec.get("factor", 1.0)),
                    )
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise PlanError(f"{src}:{lineno}: bad fault record: {exc}") from exc
        return cls(tuple(events))

    @classmethod
    def chaos(
        cls,
        n_workers: int,
        duration_s: float,
        *,
        mtbf_s: float,
        mttr_s: float,
        seed: int = 0,
    ) -> "FaultPlan":
        """Synthesize a seeded crash/recover schedule from MTBF / MTTR.

        Each worker alternates exponential up-times (mean ``mtbf_s``) and
        down-times (mean ``mttr_s``) inside ``[0, duration_s)``.  Slowdowns
        load from a hand-written plan (:meth:`load`).
        """
        if n_workers < 1:
            raise PlanError(f"chaos plan needs >= 1 worker, got {n_workers}")
        if duration_s <= 0 or mtbf_s <= 0 or mttr_s <= 0:
            raise PlanError("chaos plan needs positive duration, mtbf and mttr")
        rng = np.random.default_rng(seed)
        events: list[FaultEvent] = []
        for wid in range(n_workers):
            t = float(rng.exponential(mtbf_s))
            while t < duration_s:
                events.append(FaultEvent(t=t, worker=wid, kind="crash"))
                t += float(rng.exponential(mttr_s))
                events.append(FaultEvent(t=t, worker=wid, kind="recover"))
                t += float(rng.exponential(mtbf_s))
        events.sort(key=lambda ev: (ev.t, ev.worker))
        return cls(tuple(events))

    def describe(self) -> str:
        head = f"FaultPlan: {len(self.events)} event(s)"
        return "\n".join([head] + [f"  {ev.describe()}" for ev in self.events])


def _jitter_unit(request_seq: int, attempt: int) -> float:
    """Deterministic jitter in ``[0, 1)`` from an integer hash.

    A splitmix-style mix of ``(request_seq, attempt)`` — no RNG object, so
    jitter is insensitive to the order retries are scheduled in.
    """
    x = (request_seq * 0x9E3779B97F4A7C15 + attempt * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 31
    return x / 2**64


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded, budgeted re-submission of failed requests.

    ``max_attempts`` counts the first submission: 3 means the original
    plus at most two retries.  Backoff for retry *k* (1-based) is
    ``backoff_s * backoff_factor**(k-1)``, stretched by up to ``jitter``
    fraction via a deterministic hash of the request — no shared RNG; the
    backoff shape is constant.  ``budget`` caps total retries fleet-wide at
    that fraction of offered load; ``hedge_delay_s`` (if set) launches one
    duplicate of a request still unserved after that long, first copy to
    finish wins.
    """

    backoff_s: ClassVar[float] = 2e-4
    backoff_factor: ClassVar[float] = 2.0
    jitter: ClassVar[float] = 0.5

    max_attempts: int = 3
    budget: float = 0.2
    hedge_delay_s: "float | None" = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise PlanError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.budget < 0:
            raise PlanError(f"budget must be >= 0, got {self.budget}")
        if self.hedge_delay_s is not None and self.hedge_delay_s <= 0:
            raise PlanError(f"hedge_delay_s must be positive, got {self.hedge_delay_s}")

    def backoff(self, request_seq: int, retry_index: int) -> float:
        """Delay before retry ``retry_index`` (1-based) of request ``request_seq``."""
        if retry_index < 1:
            raise PlanError(f"retry_index is 1-based, got {retry_index}")
        base = self.backoff_s * self.backoff_factor ** (retry_index - 1)
        return base * (1.0 + self.jitter * _jitter_unit(request_seq, retry_index))

    def describe(self) -> str:
        hedge = (
            f"hedge after {self.hedge_delay_s * 1e3:.3f}ms"
            if self.hedge_delay_s is not None
            else "no hedging"
        )
        return (
            f"RetryPolicy: {self.max_attempts} attempt(s), backoff "
            f"{self.backoff_s * 1e3:.3f}ms x{self.backoff_factor:g} "
            f"(jitter {self.jitter:g}), budget {self.budget:g} of offered load, {hedge}"
        )


class CircuitBreaker:
    """Per-worker breaker: closed -> open on ``threshold`` consecutive
    failures, open -> half-open after ``reset_s`` (one probe request),
    half-open -> closed on success or straight back to open on failure.
    """

    __slots__ = ("failures", "state", "trips", "until")

    threshold = 3
    reset_s = 1e-3

    def __init__(self) -> None:
        self.state = "closed"
        self.failures = 0
        self.trips = 0
        self.until = 0.0

    def allows(self, now: float) -> bool:
        """May this worker take traffic at ``now``?  Open -> half-open lazily."""
        if self.state == "open":
            if now < self.until:
                return False
            self.state = "half_open"
        return True

    def record_success(self) -> None:
        self.failures = 0
        self.state = "closed"

    def record_failure(self, now: float) -> bool:
        """Count one failure; returns True when the breaker (re)opens."""
        self.failures += 1
        if self.state == "half_open" or self.failures >= self.threshold:
            self.state = "open"
            self.until = now + self.reset_s
            self.failures = 0
            self.trips += 1
            return True
        return False

    def describe(self) -> str:
        return (
            f"CircuitBreaker[{self.state}]: threshold {self.threshold}, "
            f"reset {self.reset_s * 1e3:.3f}ms, trips {self.trips}"
        )


@dataclass(frozen=True)
class FaultStats:
    """Chaos accounting for one fleet replay (frozen, report-ready)."""

    crashes: int
    slowdowns: int
    transients: int
    recoveries: int
    retries: int
    budget_denied: int
    requeues: int
    hedges: int
    hedges_won: int
    hedges_wasted: int
    hedges_cancelled: int
    breaker_trips: int
    lost: int
    downtime_s: tuple[tuple[str, float], ...]
    availability: float

    def describe(self) -> str:
        down = ", ".join(f"{name} {s * 1e3:.3f}ms" for name, s in self.downtime_s if s > 0)
        lines = [
            (
                f"faults: {self.crashes} crash / {self.slowdowns} slow / "
                f"{self.transients} transient / {self.recoveries} recover"
            ),
            (
                f"retries: {self.retries} ({self.budget_denied} budget-denied), "
                f"requeues: {self.requeues}, breaker trips: {self.breaker_trips}"
            ),
            (
                f"hedges: {self.hedges} launched, {self.hedges_won} won, "
                f"{self.hedges_cancelled} cancelled, {self.hedges_wasted} wasted"
            ),
            f"lost requests: {self.lost}",
            f"availability: {self.availability * 100:.3f}%"
            + (f" (downtime {down})" if down else ""),
        ]
        return "\n".join(lines)


class _Logical:
    """One accepted request across all its physical copies (retries, hedges)."""

    __slots__ = (
        "arrival_t",
        "attempts",
        "done",
        "dtype",
        "model",
        "outstanding",
        "priority",
        "seq",
        "slo_s",
    )

    def __init__(self, seq, arrival_t, model, dtype, slo_s, priority):
        self.seq = seq
        self.arrival_t = arrival_t
        self.model = model
        self.dtype = dtype
        self.slo_s = slo_s
        self.priority = priority
        self.attempts = 1
        self.done = False
        #: live physical copies as (worker_id, request_id) pairs
        self.outstanding: set[tuple[int, int]] = set()


class _Flight:
    """One flushed batch between flush and settle (deferred commit).

    With an injector armed, batch results are not committed at flush time:
    they settle at ``start + exec_s`` so a crash in between can void them.
    """

    __slots__ = ("dead", "exec_s", "failed", "flush_now", "results", "start", "worker")

    def __init__(self, worker, results, start, exec_s, flush_now):
        self.worker = worker
        self.results = results
        self.start = start
        self.exec_s = exec_s
        self.flush_now = flush_now
        self.failed = False
        self.dead = False


@dataclass
class FaultInjector:
    """The chaos runtime: replays a :class:`FaultPlan` against a fleet.

    ``fleet_replay`` owns the clock and calls in:

    - :meth:`track` for each accepted arrival (after admission),
    - :meth:`on_flush` for each flushed batch (deferring its commit),
    - :meth:`next_t` / :meth:`process` to interleave fault, settle,
      retry, hedge and probe events with arrivals and deadline flushes,
    - :meth:`finalize` once drained, for the :class:`FaultStats`.

    Submission and latency/SLO accounting stay in the replay via the
    ``submit`` / ``commit`` callbacks bound at construction: ``commit`` is
    the replay's one accounting function, the same one the no-fault path
    calls at flush time, so the arithmetic exists once.
    """

    fleet: "Fleet"
    plan: FaultPlan
    retry: "RetryPolicy | None" = None
    offered: int = 0
    probe_s: float = 1e-4
    submit: "Callable[..., bool] | None" = None
    commit: "Callable[..., None] | None" = None
    tracer: object = None
    metrics: object = None

    # accounting (finalized into FaultStats)
    crashes: int = field(default=0, init=False)
    slowdowns: int = field(default=0, init=False)
    transients: int = field(default=0, init=False)
    recoveries: int = field(default=0, init=False)
    retries: int = field(default=0, init=False)
    budget_denied: int = field(default=0, init=False)
    requeues: int = field(default=0, init=False)
    hedges: int = field(default=0, init=False)
    hedges_won: int = field(default=0, init=False)
    hedges_wasted: int = field(default=0, init=False)
    hedges_cancelled: int = field(default=0, init=False)
    lost: int = field(default=0, init=False)

    _heap: list = field(default_factory=list, init=False)
    _seq: int = field(default=0, init=False)
    _copies: dict = field(default_factory=dict, init=False)
    _flights: dict = field(default_factory=dict, init=False)
    _parked: list = field(default_factory=list, init=False)
    _pending_retries: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        self.tracer = resolve_tracer(self.tracer)
        self.metrics = resolve_metrics(self.metrics)
        if self.probe_s <= 0:
            raise PlanError(f"probe_s must be positive, got {self.probe_s}")
        self._retry_budget = (
            int(self.retry.budget * self.offered) if self.retry is not None else 0
        )
        for ev in self.plan.events:
            self._push(ev.t, "plan", ev)

    # -- event heap -------------------------------------------------------

    def _push(self, t: float, kind: str, payload) -> None:
        heapq.heappush(self._heap, (t, self._seq, kind, payload))
        self._seq += 1

    def next_t(self) -> "float | None":
        """Simulated instant of the earliest pending injector event."""
        return self._heap[0][0] if self._heap else None

    def pending(self) -> bool:
        """Is there outstanding chaos work the drain loop must still run?

        True while any physical copy is queued or in flight, any request
        is parked awaiting capacity, or any retry release is scheduled.
        Trailing plan events with no work attached do not hold the replay
        open.
        """
        if not self._heap:
            return False
        return bool(self._copies) or bool(self._parked) or self._pending_retries > 0

    def process(self, now: float) -> None:
        """Apply every scheduled event with ``t <= now`` in heap order."""
        while self._heap and self._heap[0][0] <= now:
            t, _, kind, payload = heapq.heappop(self._heap)
            if kind == "plan":
                self._apply_plan_event(payload, t)
            elif kind == "settle":
                self._settle(payload, t)
            elif kind == "retry":
                self._pending_retries -= 1
                self._release_retry(payload, t)
            elif kind == "hedge":
                self._launch_hedge(payload, t)
            else:  # probe
                self._probe(payload, t)

    # -- request tracking -------------------------------------------------

    def track(self, worker, rid, *, arrival_t, model, dtype, slo_s, priority, now):
        """Register an accepted arrival's first physical copy."""
        logical = _Logical(self._seq, arrival_t, model, dtype, slo_s, priority)
        self._seq += 1
        self.register(worker, rid, logical, is_hedge=False)
        if self.retry is not None and self.retry.hedge_delay_s is not None:
            self._push(now + self.retry.hedge_delay_s, "hedge", logical)
        return logical

    def park(self, *, arrival_t, model, dtype, slo_s, priority) -> None:
        """Hold an accepted arrival that found no routable worker."""
        logical = _Logical(self._seq, arrival_t, model, dtype, slo_s, priority)
        self._seq += 1
        self._parked.append(logical)
        self._obs_instant("fault.parked", arrival_t, "fleet", model=model)

    def register(self, worker, rid, logical, *, is_hedge) -> None:
        key = (worker.worker_id, rid)
        self._copies[key] = (worker, logical, is_hedge)
        logical.outstanding.add(key)

    def _resubmit(self, logical, now: float) -> None:
        """Route a logical back into the fleet, or park it if nothing is up."""
        assert self.submit is not None
        if not self.submit(logical, now):
            self._parked.append(logical)

    def _release_parked(self, now: float) -> None:
        if not self._parked:
            return
        still = []
        for logical in self._parked:
            if not self.submit(logical, now):
                still.append(logical)
        self._parked = still

    # -- fault application ------------------------------------------------

    def _worker_by_id(self, wid: int):
        for worker in self.fleet.workers:
            if worker.worker_id == wid:
                return worker
        return None

    def _apply_plan_event(self, ev: FaultEvent, now: float) -> None:
        worker = self._worker_by_id(ev.worker)
        if worker is None:
            return
        if ev.kind == "crash":
            self._crash(worker, now)
        elif ev.kind == "slowdown":
            self._slowdown(worker, ev.factor, now)
        elif ev.kind == "transient":
            self._transient(worker, now)
        else:
            self._recover(worker, now)

    def _crash(self, worker, now: float) -> None:
        if worker.health == "down":
            return
        self.crashes += 1
        self._obs_fault("crash", worker, now)
        worker.health = "down"
        worker.down_since = now
        worker.throttle = 1.0
        worker.pending_transient = 0
        # Void in-flight batches: refund the un-elapsed device time per
        # flight (intervals may have idle gaps, so busy_until - now would
        # over-refund) and requeue their requests to survivors.
        for flight in self._flights.pop(worker.worker_id, []):
            flight.dead = True
            end = flight.start + flight.exec_s
            if end > now:
                worker.busy_s -= end - max(flight.start, now)
            for result in flight.results:
                self._drop_copy(worker.worker_id, result.request_id, now)
        if worker.busy_until > now:
            worker.busy_until = now
        # Drain the queue to survivors and lose the on-device plan cache:
        # a reset GPU re-warms from peers at recovery.
        for req in worker.server.drain():
            self._drop_copy(worker.worker_id, req.id, now)
        worker.server.cache.clear()

    def _slowdown(self, worker, factor: float, now: float) -> None:
        if worker.health == "down":
            return
        self.slowdowns += 1
        worker.health = "degraded"
        worker.throttle = factor
        self._obs_fault("slowdown", worker, now, factor=factor)

    def _transient(self, worker, now: float) -> None:
        if worker.health == "down":
            return
        self.transients += 1
        worker.pending_transient += 1
        self._obs_fault("transient", worker, now)

    def _recover(self, worker, now: float) -> None:
        if worker.health == "down":
            self.recoveries += 1
            worker.health = "recovering"
            adopted = self.fleet.rewarm(worker)
            self._obs_fault("recover", worker, now, adopted=adopted)
            self._push(now + self.probe_s, "probe", worker)
        elif worker.health == "degraded":
            self.recoveries += 1
            worker.health = "healthy"
            worker.throttle = 1.0
            self._obs_fault("recover", worker, now)

    def _probe(self, worker, now: float) -> None:
        """Health-check probe: a recovering worker passes and takes traffic."""
        if worker.health != "recovering":
            return  # crashed again before the probe fired
        worker.health = "healthy"
        if worker.down_since is not None:
            worker.downtime_s += now - worker.down_since
            worker.down_since = None
        self._obs_instant("fault.probe", now, worker.name, outcome="pass")
        self._release_parked(now)

    # -- flight lifecycle -------------------------------------------------

    def on_flush(self, worker, results: "Iterable[InferenceResult]", start, exec_s, now):
        """Defer a flushed batch's commit until it settles at ``start + exec_s``."""
        flight = _Flight(worker, list(results), start, exec_s, now)
        if worker.pending_transient > 0:
            worker.pending_transient -= 1
            flight.failed = True
            self._obs_instant(
                "fault.transient_failure", now, worker.name, batch=len(flight.results)
            )
        self._flights.setdefault(worker.worker_id, []).append(flight)
        self._push(start + exec_s, "settle", flight)

    def _settle(self, flight: _Flight, now: float) -> None:
        if flight.dead:
            return
        flight.dead = True
        worker = flight.worker
        flights = self._flights.get(worker.worker_id)
        if flights is not None:
            flights.remove(flight)
            if not flights:
                del self._flights[worker.worker_id]
        if flight.failed:
            self._settle_failure(flight, worker, now)
        else:
            self._settle_success(flight, worker, now)

    def _settle_failure(self, flight: _Flight, worker, now: float) -> None:
        breaker = self._breaker(worker)
        if breaker.record_failure(now):
            self._obs_instant("breaker.open", now, worker.name, trips=breaker.trips)
            self._count("repro_breaker_transitions_total", state="open")
        for result in flight.results:
            entry = self._copies.pop((worker.worker_id, result.request_id), None)
            if entry is None:
                continue
            _, logical, _ = entry
            logical.outstanding.discard((worker.worker_id, result.request_id))
            if logical.done or logical.outstanding:
                continue
            self._schedule_retry(logical, now)

    def _settle_success(self, flight: _Flight, worker, now: float) -> None:
        if worker.breaker is not None:
            was_open = worker.breaker.state != "closed"
            worker.breaker.record_success()
            if was_open:
                self._obs_instant("breaker.close", now, worker.name)
                self._count("repro_breaker_transitions_total", state="closed")
        for result in flight.results:
            key = (worker.worker_id, result.request_id)
            entry = self._copies.pop(key, None)
            if entry is None:
                continue
            _, logical, is_hedge = entry
            logical.outstanding.discard(key)
            if logical.done:
                # a sibling copy already won; this execution was wasted
                self.hedges_wasted += 1
                self._count("repro_hedges_total", outcome="wasted")
                continue
            logical.done = True
            if is_hedge:
                self.hedges_won += 1
                self._count("repro_hedges_total", outcome="won")
            assert self.commit is not None
            self.commit(
                worker, result, flight.start, flight.exec_s, flight.flush_now,
                logical.arrival_t, logical.slo_s,
            )
            self._cancel_siblings(logical, now)

    def _cancel_siblings(self, logical, now: float) -> None:
        """First copy wins: pull the still-queued duplicates back out."""
        for wid, rid in list(logical.outstanding):
            entry = self._copies.get((wid, rid))
            if entry is None:
                continue
            other = entry[0]
            if other.server.cancel(rid):
                self._copies.pop((wid, rid), None)
                logical.outstanding.discard((wid, rid))
                self.hedges_cancelled += 1
                self._obs_instant("hedge.cancel", now, other.name, request=rid)
                self._count("repro_hedges_total", outcome="cancelled")
            # else: already flushed — its settle will count it as wasted

    def _drop_copy(self, wid: int, rid: int, now: float) -> None:
        """A copy died with its worker; requeue the logical if it was the last."""
        entry = self._copies.pop((wid, rid), None)
        if entry is None:
            return
        _, logical, _ = entry
        logical.outstanding.discard((wid, rid))
        if logical.done or logical.outstanding:
            return
        self.requeues += 1
        self._count("repro_requeues_total")
        self._resubmit(logical, now)

    # -- retries & hedges -------------------------------------------------

    def _schedule_retry(self, logical, now: float) -> None:
        if self.retry is None or logical.attempts >= self.retry.max_attempts:
            self._lose(logical, now, reason="attempts")
            return
        if self.retries >= self._retry_budget:
            self.budget_denied += 1
            self._count("repro_retries_total", outcome="budget_denied")
            self._lose(logical, now, reason="budget")
            return
        delay = self.retry.backoff(logical.seq, logical.attempts)
        logical.attempts += 1
        self.retries += 1
        self._pending_retries += 1
        self._count("repro_retries_total", outcome="scheduled")
        self._obs_instant(
            "retry.scheduled", now, "fleet",
            request=logical.seq, attempt=logical.attempts, delay_s=delay,
        )
        self._push(now + delay, "retry", logical)

    def _release_retry(self, logical, now: float) -> None:
        if logical.done or logical.outstanding:
            return
        self._resubmit(logical, now)

    def _launch_hedge(self, logical, now: float) -> None:
        if logical.done or not logical.outstanding:
            # served already, or failed and in the retry path — don't hedge
            return
        exclude = frozenset(wid for wid, _ in logical.outstanding)
        assert self.submit is not None
        if self.submit(logical, now, exclude=exclude, is_hedge=True):
            self.hedges += 1
            self._obs_instant("hedge.launch", now, "fleet", request=logical.seq)
            self._count("repro_hedges_total", outcome="launched")

    def _lose(self, logical, now: float, *, reason: str) -> None:
        self.lost += 1
        self._obs_instant("request.lost", now, "fleet", request=logical.seq, reason=reason)
        self._count("repro_lost_requests_total", reason=reason)

    # -- breaker ----------------------------------------------------------

    def _breaker(self, worker) -> CircuitBreaker:
        if worker.breaker is None:
            worker.breaker = CircuitBreaker()
        return worker.breaker

    # -- obs --------------------------------------------------------------

    def _obs_instant(self, name: str, t: float, pid: str, **attrs) -> None:
        if self.tracer.enabled:
            self.tracer.instant(name, t_s=t, pid=pid, **attrs)

    def _count(self, name: str, **labels) -> None:
        if self.metrics.enabled:
            self.metrics.counter(name, help="Fault-injection accounting").inc(**labels)

    def _obs_fault(self, kind: str, worker, now: float, **attrs) -> None:
        self._obs_instant(f"fault.{kind}", now, worker.name, **attrs)
        self._count("repro_faults_total", kind=kind)

    # -- finalization -----------------------------------------------------

    def finalize(self, finish_t: float, duration_s: float) -> FaultStats:
        """Close the books: park losses, trailing downtime, availability."""
        for logical in self._parked:
            self._lose(logical, finish_t, reason="no_capacity")
        self._parked = []
        members = sorted(
            list(self.fleet.workers) + list(self.fleet.retired),
            key=lambda w: w.worker_id,
        )
        downtime = []
        for worker in members:
            total = worker.downtime_s
            if worker.down_since is not None:
                total += max(0.0, finish_t - worker.down_since)
            downtime.append((worker.name, total))
        window = max(duration_s, 1e-12) * max(len(members), 1)
        availability = max(0.0, 1.0 - sum(s for _, s in downtime) / window)
        trips = sum(w.breaker.trips for w in members if w.breaker is not None)
        return FaultStats(
            crashes=self.crashes,
            slowdowns=self.slowdowns,
            transients=self.transients,
            recoveries=self.recoveries,
            retries=self.retries,
            budget_denied=self.budget_denied,
            requeues=self.requeues,
            hedges=self.hedges,
            hedges_won=self.hedges_won,
            hedges_wasted=self.hedges_wasted,
            hedges_cancelled=self.hedges_cancelled,
            breaker_trips=trips,
            lost=self.lost,
            downtime_s=tuple(downtime),
            availability=availability,
        )
