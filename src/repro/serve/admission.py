"""Admission control: shed or degrade requests that cannot meet their SLO.

An overloaded server that accepts everything serves *nobody* on time: the
backlog grows without bound and every request's latency busts its deadline.
The :class:`AdmissionController` makes the tradeoff explicit at enqueue time.
For each offered request it projects the completion latency from the target
server's backlog (priced by :meth:`~repro.serve.server.ModelServer.
estimated_drain_s` — the backlog executed as full micro-batches, with the
offered request riding in the remainder batch; the analytic costs reflect
tuning calibration when the plans were built with one) and compares it to
the request's SLO:

* **accept** — the projection fits: enqueue as requested.
* **degrade** — the full-precision projection busts the SLO but the INT8
  plan variant's does not: reroute the request to the degraded precision.
  Through the existing :class:`~repro.serve.cache.PlanKey` identity this is
  simply enqueueing at ``dtype=int8`` — a separate resident plan that moves
  half the bytes, in the spirit of Daghero et al.'s degraded-precision
  fallback for DW-separable networks (PAPERS.md).
* **shed** — no variant can meet the deadline: reject the request outright
  (counted, never enqueued) so the requests already queued stay servable.

Every projection reads only *resident* plans (peeked), so admission never
perturbs the plan-cache accounting and stays deterministic on a
:class:`~repro.serve.loadgen.FakeClock`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.dtypes import DType
from ..errors import PlanError
from .server import ModelServer

__all__ = [
    "ADMISSION_POLICIES",
    "AdmissionDecision",
    "AdmissionStats",
    "AdmissionController",
    "admission_controller",
]

ADMISSION_POLICIES = ("shed", "degrade")


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of offering one request to the controller."""

    action: str  # "accept" | "degrade" | "shed"
    #: projected completion latency at the *admitted* precision (the
    #: requested one for accept/shed, the degraded one for degrade).
    projected_s: float
    slo_s: float

    @property
    def admitted(self) -> bool:
        return self.action != "shed"


@dataclass
class AdmissionStats:
    """Offered-request tally: every decision lands in exactly one bucket."""

    accepted: int = 0
    degraded: int = 0
    shed: int = 0

    @property
    def offered(self) -> int:
        return self.accepted + self.degraded + self.shed

    def count(self, decision: AdmissionDecision) -> None:
        if decision.action == "accept":
            self.accepted += 1
        elif decision.action == "degrade":
            self.degraded += 1
        else:
            self.shed += 1


class AdmissionController:
    """SLO-aware admission: accept, degrade to INT8, or shed (see module
    docstring).  ``policy="shed"`` disables the degraded-precision fallback;
    ``margin`` scales the projection (>1 sheds earlier, a safety factor)."""

    def __init__(
        self,
        policy: str = "degrade",
        *,
        degrade_dtype: DType = DType.INT8,
        margin: float = 1.0,
    ) -> None:
        if policy not in ADMISSION_POLICIES:
            raise PlanError(
                f"unknown admission policy {policy!r}; choose from {ADMISSION_POLICIES}"
            )
        if margin <= 0:
            raise PlanError(f"admission margin must be > 0, got {margin}")
        self.policy = policy
        self.degrade_dtype = degrade_dtype
        self.margin = margin
        self.stats = AdmissionStats()

    def projected_s(
        self,
        server: ModelServer,
        model: str,
        dtype: DType,
        *,
        occupancy_s: float = 0.0,
        throttle: float = 1.0,
    ) -> float:
        """Projected completion latency of one new ``(model, dtype)`` request
        on ``server``: device occupancy plus the *batched* drain of the
        backlog with this request appended to its queue
        (:meth:`ModelServer.estimated_drain_s` — the request's own execution
        rides in the remainder micro-batch; 0 while its plan is not yet
        resident).  ``throttle`` stretches the drain term for a thermally
        degraded worker (see serve.faults); 1.0 leaves the arithmetic
        untouched bit-for-bit."""
        drain = server.estimated_drain_s(extra=(model, dtype.value))
        if throttle != 1.0:
            drain *= throttle
        return occupancy_s + drain

    def decide(
        self,
        server: ModelServer,
        model: str,
        dtype: DType,
        slo_s: float,
        *,
        occupancy_s: float = 0.0,
        throttle: float = 1.0,
    ) -> AdmissionDecision:
        """Judge one offered request against ``slo_s`` and tally the outcome.

        ``occupancy_s`` is the budget already spent before the request can
        start: ``fleet_replay`` passes the routed worker's remaining busy
        time (:meth:`FleetWorker.occupancy_s`) plus any clock drift past the
        arrival instant.
        ``throttle`` is the target worker's slowdown factor under faults, so
        admission sheds earlier on a thermally degraded worker.
        """
        if slo_s <= 0:
            raise PlanError(f"slo_s must be > 0, got {slo_s}")
        projected = self.projected_s(
            server, model, dtype, occupancy_s=occupancy_s, throttle=throttle
        )
        if projected * self.margin <= slo_s:
            decision = AdmissionDecision("accept", projected, slo_s)
        elif self.policy == "degrade" and dtype is not self.degrade_dtype:
            degraded = self.projected_s(
                server, model, self.degrade_dtype,
                occupancy_s=occupancy_s, throttle=throttle,
            )
            if degraded * self.margin <= slo_s:
                decision = AdmissionDecision("degrade", degraded, slo_s)
            else:
                decision = AdmissionDecision("shed", degraded, slo_s)
        else:
            decision = AdmissionDecision("shed", projected, slo_s)
        self.stats.count(decision)
        return decision


def admission_controller(
    spec: "str | AdmissionController | None",
) -> AdmissionController | None:
    """Resolve a CLI/replay admission spec: None or ``"none"`` disable
    admission, a policy name builds a fresh controller, and an existing
    controller passes through (so callers can share one across replays)."""
    if spec is None or spec == "" or spec == "none":
        return None
    if isinstance(spec, AdmissionController):
        return spec
    return AdmissionController(spec)
