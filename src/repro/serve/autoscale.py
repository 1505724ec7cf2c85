"""Reactive fleet autoscaling from backlog/occupancy signals.

The :class:`Autoscaler` watches the same per-worker backlog estimate the
fleet scheduler routes by (:meth:`FleetWorker.estimated_backlog_s`: device
occupancy plus the analytic cost of every queued request) and resizes the
:class:`~repro.serve.fleet.Fleet` between ``min_workers`` and
``max_workers``:

* **grow** — mean backlog per worker exceeds ``grow_backlog_s``: add one
  worker on the fleet's first GPU (configured identically to the boot
  workers, warm-started from the same tuning DB).
* **grow (lost capacity)** — faults (see :mod:`repro.serve.faults`) took
  the number of *serving* workers below ``min_workers``: replace the lost
  capacity immediately, even with no backlog signal — requests parked
  behind a dead fleet generate no queue to react to.  These events carry
  ``reason="lost_capacity"`` in the decision trace.
* **shrink** — mean backlog falls below ``shrink_backlog_s`` *and* some
  healthy worker is idle (empty queue, device free): retire the
  highest-numbered idle worker.  Its accounting stays in
  :meth:`Fleet.stats`.

``cooldown_s`` rate-limits actions: after any resize the controller holds
its size until the cooldown elapses, which damps grow/shrink oscillation on
bursty streams.  Everything is driven by explicit :meth:`Autoscaler.observe`
calls on the shared :class:`~repro.serve.loadgen.FakeClock`, so scaling
decisions — like everything else in the serving layer — are deterministic
and replayable.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import PlanError
from .fleet import Fleet, FleetWorker

__all__ = ["ScaleEvent", "AutoscalePolicy", "Autoscaler"]


@dataclass(frozen=True)
class ScaleEvent:
    """One resize action (the autoscaler's replayable decision trace)."""

    t: float
    action: str  # "grow" | "shrink"
    worker: str  # name of the worker added / retired
    backlog_s: float  # mean backlog per worker that triggered the action
    workers: int  # fleet size after the action
    reason: str = "backlog"  # "backlog" | "lost_capacity" | "idle"

    def describe(self) -> str:
        why = f", {self.reason}" if self.reason != "backlog" else ""
        return (
            f"t={self.t * 1e3:.3f}ms {self.action} {self.worker} "
            f"(mean backlog {self.backlog_s * 1e6:.1f}us{why}) "
            f"-> {self.workers} worker(s)"
        )


@dataclass(frozen=True)
class AutoscalePolicy:
    """The autoscaler's settings, validated when built: the replay harness
    and the CLI describe scaling before the fleet exists, and
    :meth:`bind` attaches an :class:`Autoscaler` to one."""

    min_workers: int = 1
    max_workers: int = 8
    grow_backlog_s: float = 2e-3
    shrink_backlog_s: float = 2e-4
    cooldown_s: float = 0.0

    def __post_init__(self) -> None:
        if self.min_workers < 1:
            raise PlanError(f"min_workers must be >= 1, got {self.min_workers}")
        if self.max_workers < self.min_workers:
            raise PlanError(
                f"max_workers ({self.max_workers}) must be >= min_workers "
                f"({self.min_workers})"
            )
        if self.shrink_backlog_s < 0 or self.grow_backlog_s <= self.shrink_backlog_s:
            raise PlanError(
                "need grow_backlog_s > shrink_backlog_s >= 0, got "
                f"grow={self.grow_backlog_s}, shrink={self.shrink_backlog_s}"
            )
        if self.cooldown_s < 0:
            raise PlanError(f"cooldown_s must be >= 0, got {self.cooldown_s}")

    def bind(self, fleet: Fleet) -> "Autoscaler":
        return Autoscaler(fleet, self)


class Autoscaler:
    """Reactive resize controller around one fleet (see module docstring),
    reading its settings from ``policy``; it grows on the GPU of the
    fleet's first worker."""

    def __init__(self, fleet: Fleet, policy: AutoscalePolicy) -> None:
        self.fleet = fleet
        self.policy = policy
        self.gpu = fleet.workers[0].gpu
        self.events: list[ScaleEvent] = []
        self._last_action_t: float | None = None
        #: high-water mark of fleet size (reported by fleet_replay).
        self.peak_workers = len(fleet.workers)
        #: observability rides on the fleet's sinks (no-ops by default).
        self.tracer = fleet.tracer
        self.metrics = fleet.metrics

    def mean_backlog_s(self, now: float) -> float:
        """The scaling signal: mean estimated backlog per *serving* worker.

        Down / recovering workers contribute neither backlog nor capacity
        (a fault injector drains them on crash), so losing a worker
        concentrates the signal on the survivors instead of diluting it.
        With every worker healthy this is exactly the all-workers mean.
        """
        workers = [w for w in self.fleet.workers if w.health in ("healthy", "degraded")]
        if not workers:
            return 0.0
        return sum(w.estimated_backlog_s(now) for w in workers) / len(workers)

    def in_cooldown(self, now: float) -> bool:
        return (
            self._last_action_t is not None
            and now - self._last_action_t < self.policy.cooldown_s
        )

    def _idle_worker(self, now: float) -> FleetWorker | None:
        """Highest-numbered *healthy* worker that is drained and not
        executing.  Faulted workers are never the shrink target: retiring
        a down worker would erase the capacity the injector is about to
        recover."""
        idle = [
            w
            for w in self.fleet.workers
            if w.health == "healthy" and not w.server.pending() and w.busy_until <= now
        ]
        return max(idle, key=lambda w: w.worker_id) if idle else None

    def serving_workers(self) -> int:
        """Workers currently able to take traffic (healthy or degraded)."""
        return sum(
            1 for w in self.fleet.workers if w.health in ("healthy", "degraded")
        )

    def observe(self, now: float) -> ScaleEvent | None:
        """Evaluate the signal at instant ``now`` and resize by at most one
        worker.  Returns the event, or None when holding steady (signal in
        band, bounds reached, cooldown active, or nobody idle to retire)."""
        if self.in_cooldown(now):
            return None
        policy = self.policy
        backlog = self.mean_backlog_s(now)
        event: ScaleEvent | None = None
        serving = self.serving_workers()
        if (
            serving < len(self.fleet.workers)  # somebody is actually down
            and serving < policy.min_workers
            and len(self.fleet.workers) < policy.max_workers
        ):
            # Faults took serving capacity below the floor: replace the
            # lost worker(s) even with no backlog signal yet — requests
            # parked behind a dead fleet generate no queue to react to.
            worker = self.fleet.add_worker(self.gpu)
            event = ScaleEvent(
                now, "grow", worker.name, backlog, len(self.fleet.workers),
                reason="lost_capacity",
            )
        elif backlog > policy.grow_backlog_s and len(self.fleet.workers) < policy.max_workers:
            worker = self.fleet.add_worker(self.gpu)
            event = ScaleEvent(
                now, "grow", worker.name, backlog, len(self.fleet.workers)
            )
        elif (
            backlog < policy.shrink_backlog_s
            and len(self.fleet.workers) > policy.min_workers
        ):
            worker = self._idle_worker(now)
            if worker is not None:
                self.fleet.remove_worker(worker)
                event = ScaleEvent(
                    now, "shrink", worker.name, backlog, len(self.fleet.workers)
                )
        if event is not None:
            self.events.append(event)
            self._last_action_t = now
            self.peak_workers = max(self.peak_workers, event.workers)
            if self.tracer.enabled or self.metrics.enabled:
                self.tracer.instant(
                    f"autoscale.{event.action}",
                    t_s=now,
                    pid=event.worker,
                    backlog_s=event.backlog_s,
                    workers=event.workers,
                )
                self.metrics.counter(
                    "repro_scale_events_total", help="Autoscaler resize actions"
                ).inc(action=event.action)
                self.metrics.gauge(
                    "repro_fleet_workers", help="Active fleet size after scaling"
                ).set(event.workers)
        return event
