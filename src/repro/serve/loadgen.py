"""Synthetic request streams, trace files, and a discrete-event replay harness.

The serving benchmarks need latency *distributions*, not just batch
throughput: a request's latency is its queue wait (micro-batch formation)
plus its device wait plus its batch's simulated execution.
:func:`fleet_replay` drives a :class:`~repro.serve.fleet.Fleet` with a
deterministic arrival stream on a :class:`FakeClock` — a small
discrete-event simulation in the spirit of serving-system load generators.
A single GPU is a one-worker fleet (``fleet_replay([gpu], ...)``); there is
no separate single-server loop.

**The device/queue model.**  The replay clock only ever moves to the next
arrival or flush deadline; it never jumps ahead by execution time.  Each
worker keeps its own occupancy timeline (``busy_until``): a flushed batch
starts at ``max(now, busy_until)`` and holds the device for its execution
time, while new arrivals keep joining the queues and forming the next
batches.  That is how a real server behaves — the host-side queue does not
stop accepting work while the GPU runs — and it is the only model under
which two batches flushed at the same instant run back to back instead of
overlapping on one device.

Beyond the classic uniform/Poisson streams, the SLO layer adds:

* **heavy-tailed arrivals** — :func:`lognormal_arrival_times` /
  :func:`pareto_arrival_times` draw inter-arrival gaps whose mean is
  ``1/rate`` but whose tail produces the bursts that actually stress
  admission control;
* **diurnal arrivals** — :func:`diurnal_arrival_times` inverts the
  cumulative intensity of a sinusoidally-modulated Poisson process, so the
  offered rate swings around its mean like day/night traffic;
* **trace files** — :class:`TraceRequest` + :func:`write_trace` /
  :func:`read_trace`: a sorted JSONL format (one request per line, sorted
  keys) whose read→write round trip is byte-identical;
* **SLO accounting** — per-request deadlines (``slo_s``), admission control
  (:mod:`repro.serve.admission`), reactive autoscaling
  (:mod:`repro.serve.autoscale`), and attainment/shed/degraded/late counts
  in :class:`FleetStreamReport`, swept over offered load by
  :func:`attainment_curve`.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..core.dtypes import DType
from ..errors import PlanError
from ..gpu.specs import GpuSpec
from .admission import AdmissionController, admission_controller
from .autoscale import AutoscalePolicy, ScaleEvent
from .faults import FaultInjector, FaultPlan, FaultStats, RetryPolicy
from .fleet import Fleet, FleetWorker, RouteDecision, WorkerStats
from .server import InferenceResult, ModelServer

__all__ = [
    "ARRIVAL_KINDS",
    "FakeClock",
    "FleetStreamReport",
    "WorkerSloStats",
    "TraceRequest",
    "AttainmentPoint",
    "arrival_times",
    "lognormal_arrival_times",
    "pareto_arrival_times",
    "diurnal_arrival_times",
    "generate_arrivals",
    "write_trace",
    "read_trace",
    "percentile",
    "hedge_delay",
    "capacity_rps",
    "attainment_curve",
    "fleet_replay",
]


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank-above percentile (numpy ``method="higher"``).

    The serving convention for every reported p50/p99: the returned value is
    always an *observed* latency at or above the requested rank.  Linear
    interpolation (numpy's default) under-reports the tail on small result
    sets — with 10 samples it places p99 between the 9th and 10th order
    statistics, below the worst latency any request actually saw.

    An empty sample set has no observable rank: raises :class:`ValueError`
    (a shed-everything overload run serves zero requests — the replay
    harness reports NaN percentiles for that case rather than calling this).
    """
    if len(samples) == 0:
        raise ValueError(
            "percentile of an empty sample set is undefined (no requests "
            "were served; report NaN instead)"
        )
    return float(np.percentile(samples, q, method="higher"))


def _percentile_or_nan(samples: Sequence[float], q: float) -> float:
    return percentile(samples, q) if len(samples) else float("nan")


def hedge_delay(
    samples: Sequence[float], q: float = 99.0, *, multiplier: float = 1.0
) -> float:
    """Hedge-launch delay from observed latencies: ``multiplier`` times the
    nearest-rank-above ``q``-th percentile (the classic p99-based hedging
    rule — duplicate only the slowest ~1% of requests).

    Reuses :func:`percentile`, the tree's one nearest-rank implementation,
    so a hedge tuned from a report's ``latencies_s`` agrees bit-for-bit
    with that report's own p99.  Feed the result to
    ``RetryPolicy(hedge_delay_s=...)`` or ``fleet --hedge-ms``.
    """
    if multiplier <= 0:
        raise PlanError(f"hedge multiplier must be > 0, got {multiplier}")
    return multiplier * percentile(samples, q)


class FakeClock:
    """Manually-advanced monotonic clock (the server's clock/sleep pair)."""

    def __init__(self, start: float = 0.0) -> None:
        self.t = start

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        if dt < 0:
            raise PlanError(f"cannot advance a clock by {dt}")
        self.t += dt

    def sleep(self, dt: float) -> None:
        self.advance(dt)


# ---- arrival generators -------------------------------------------------------

ARRIVAL_KINDS = ("uniform", "poisson", "lognormal", "pareto", "diurnal")


def _validate_stream(n: int, rate_rps: float) -> None:
    if n < 1 or rate_rps <= 0:
        raise PlanError(f"need n >= 1 and rate > 0, got n={n}, rate={rate_rps}")


def arrival_times(n: int, rate_rps: float, *, poisson: bool = False, seed: int = 0) -> list[float]:
    """Arrival instants for ``n`` requests at ``rate_rps``.

    Uniform spacing by default (deterministic benches); ``poisson=True``
    draws exponential inter-arrival gaps from a seeded generator.
    """
    _validate_stream(n, rate_rps)
    if not poisson:
        return [i / rate_rps for i in range(n)]
    gaps = np.random.default_rng(seed).exponential(1.0 / rate_rps, size=n)
    return list(np.cumsum(gaps) - gaps[0])


def lognormal_arrival_times(
    n: int, rate_rps: float, *, sigma: float = 1.0, seed: int = 0
) -> list[float]:
    """Heavy-tailed arrivals: lognormal inter-arrival gaps with mean
    ``1/rate_rps`` and shape ``sigma`` (larger -> burstier; 0 reduces to
    uniform spacing)."""
    _validate_stream(n, rate_rps)
    if sigma < 0:
        raise PlanError(f"sigma must be >= 0, got {sigma}")
    mu = math.log(1.0 / rate_rps) - sigma * sigma / 2.0
    gaps = np.random.default_rng(seed).lognormal(mu, sigma, size=n)
    return list(np.cumsum(gaps) - gaps[0])


def pareto_arrival_times(
    n: int, rate_rps: float, *, alpha: float = 2.5, seed: int = 0
) -> list[float]:
    """Heavy-tailed arrivals: Pareto inter-arrival gaps with tail index
    ``alpha`` (> 1 so the mean exists) scaled so the mean gap is
    ``1/rate_rps``.  Small ``alpha`` -> rare huge gaps between dense bursts."""
    _validate_stream(n, rate_rps)
    if alpha <= 1:
        raise PlanError(f"pareto tail index must be > 1, got {alpha}")
    x_m = (alpha - 1.0) / (alpha * rate_rps)  # mean = alpha*x_m/(alpha-1)
    gaps = x_m * (1.0 + np.random.default_rng(seed).pareto(alpha, size=n))
    return list(np.cumsum(gaps) - gaps[0])


def diurnal_arrival_times(
    n: int,
    rate_rps: float,
    *,
    period_s: float = 1.0,
    amplitude: float = 0.5,
    seed: int = 0,
) -> list[float]:
    """Diurnal arrivals: a non-homogeneous Poisson process whose intensity
    swings sinusoidally around ``rate_rps``::

        lambda(t) = rate_rps * (1 + amplitude * sin(2*pi*t / period_s))

    The mean of the modulation over a full period is 1, so the long-run mean
    rate is ``rate_rps`` (the property test pins this within tolerance).
    Arrivals are produced by time-rescaling: unit-exponential marks are
    mapped through the inverse cumulative intensity by bisection, which keeps
    the stream exactly reproducible per seed.
    """
    _validate_stream(n, rate_rps)
    if not 0 <= amplitude < 1:
        raise PlanError(f"amplitude must be in [0, 1), got {amplitude}")
    if period_s <= 0:
        raise PlanError(f"period_s must be > 0, got {period_s}")
    marks = np.cumsum(np.random.default_rng(seed).exponential(1.0, size=n))

    two_pi = 2.0 * math.pi

    def cumulative(t: float) -> float:
        # integral of lambda from 0 to t
        return rate_rps * (
            t + amplitude * period_s / two_pi * (1.0 - math.cos(two_pi * t / period_s))
        )

    times: list[float] = []
    lo = 0.0
    for mark in marks:
        # lambda(t) >= rate*(1 - amplitude) > 0, so this bracket always holds.
        hi = mark / (rate_rps * (1.0 - amplitude)) + period_s
        lo_i = lo
        for _ in range(80):  # ~1e-24 relative: bisection converges fully
            mid = 0.5 * (lo_i + hi)
            if cumulative(mid) < mark:
                lo_i = mid
            else:
                hi = mid
        lo = 0.5 * (lo_i + hi)
        times.append(lo)
    return times


def generate_arrivals(
    kind: str,
    n: int,
    rate_rps: float,
    *,
    seed: int = 0,
    sigma: float = 1.0,
    alpha: float = 2.5,
    period_s: float = 1.0,
    amplitude: float = 0.5,
) -> list[float]:
    """Dispatch an arrival stream by kind (one of :data:`ARRIVAL_KINDS`)."""
    if kind == "uniform":
        return arrival_times(n, rate_rps, poisson=False, seed=seed)
    if kind == "poisson":
        return arrival_times(n, rate_rps, poisson=True, seed=seed)
    if kind == "lognormal":
        return lognormal_arrival_times(n, rate_rps, sigma=sigma, seed=seed)
    if kind == "pareto":
        return pareto_arrival_times(n, rate_rps, alpha=alpha, seed=seed)
    if kind == "diurnal":
        return diurnal_arrival_times(
            n, rate_rps, period_s=period_s, amplitude=amplitude, seed=seed
        )
    raise PlanError(f"unknown arrival kind {kind!r}; choose from {ARRIVAL_KINDS}")


# ---- trace files --------------------------------------------------------------


@dataclass(frozen=True)
class TraceRequest:
    """One request of a replayable trace: arrival instant, target model,
    precision, optional SLO and priority."""

    t: float
    model: str
    dtype: str = "fp32"
    slo_s: float | None = None
    priority: int = 0


def _validate_trace(requests: Sequence[TraceRequest]) -> None:
    if not requests:
        raise PlanError("a trace needs at least one request")
    dtypes = {d.value for d in DType}
    last = 0.0
    for i, req in enumerate(requests):
        if req.dtype not in dtypes:
            raise PlanError(f"trace entry {i}: unknown dtype {req.dtype!r}")
        if req.t < 0:
            raise PlanError(f"trace entry {i}: negative arrival time {req.t}")
        if req.t < last:
            raise PlanError(
                f"trace entry {i}: arrival times must be non-decreasing "
                f"({req.t} after {last})"
            )
        if req.slo_s is not None and req.slo_s <= 0:
            raise PlanError(f"trace entry {i}: slo_s must be > 0, got {req.slo_s}")
        last = req.t


def write_trace(path: "str | Path", requests: Sequence[TraceRequest]) -> Path:
    """Write a trace as sorted-key JSONL (one request per line).

    The format is canonical — fixed key set, sorted keys, compact separators,
    shortest-round-trip floats — so ``write_trace(read_trace(p))`` reproduces
    the file byte for byte.
    """
    _validate_trace(requests)
    path = Path(path)
    lines = [
        json.dumps(
            {
                "t": r.t,
                "model": r.model,
                "dtype": r.dtype,
                "slo_s": r.slo_s,
                "priority": r.priority,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        for r in requests
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def read_trace(path: "str | Path") -> list[TraceRequest]:
    """Read a JSONL trace written by :func:`write_trace` (validated: sorted,
    non-negative arrivals, known dtypes, positive SLOs)."""
    requests: list[TraceRequest] = []
    for i, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines()):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            requests.append(
                TraceRequest(
                    t=float(obj["t"]),
                    model=str(obj["model"]),
                    dtype=str(obj.get("dtype", "fp32")),
                    slo_s=None if obj.get("slo_s") is None else float(obj["slo_s"]),
                    priority=int(obj.get("priority", 0)),
                )
            )
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise PlanError(f"{path}:{i + 1}: malformed trace line: {exc}") from exc
    _validate_trace(requests)
    return requests


# ---- stream normalization -----------------------------------------------------


def _stream_entries(
    request_trace: Sequence[TraceRequest] | None,
    models: "str | Sequence[str] | None",
    n_requests: int | None,
    rate_rps: float | None,
    dtype: DType,
    slo_s: float | None,
    arrival: str | None,
    poisson: bool,
    seed: int,
) -> tuple[list[TraceRequest], tuple[str, ...], float]:
    """Normalize a replay's inputs into (entries, models, offered rate).

    A ``request_trace`` is replayed as given; otherwise request ``i`` of the
    generated stream targets ``models[i % len(models)]``.
    """
    if request_trace is not None:
        entries = list(request_trace)
        _validate_trace(entries)
        span = entries[-1].t - entries[0].t
        rate = (len(entries) - 1) / span if span > 0 else float(len(entries))
        return entries, tuple(dict.fromkeys(e.model for e in entries)), rate
    if models is None or n_requests is None or rate_rps is None:
        raise PlanError(
            "fleet_replay needs either a request_trace or "
            "(models, n_requests, rate_rps)"
        )
    model_list = (models,) if isinstance(models, str) else tuple(models)
    if not model_list:
        raise PlanError("fleet_replay needs at least one model")
    kind = arrival if arrival is not None else ("poisson" if poisson else "uniform")
    times = generate_arrivals(kind, n_requests, rate_rps, seed=seed)
    entries = [
        TraceRequest(
            t=t,
            model=model_list[i % len(model_list)],
            dtype=dtype.value,
            slo_s=slo_s,
        )
        for i, t in enumerate(times)
    ]
    return entries, model_list, rate_rps


# ---- capacity + attainment sweeps ---------------------------------------------


def capacity_rps(gpu: GpuSpec, model: str, dtype: DType = DType.FP32, **server) -> float:
    """The server's analytic saturation throughput (img/s at full batches):
    the natural ``1x`` anchor for offered-load sweeps.  ``server`` holds
    :class:`~repro.serve.server.ModelServer` settings (``max_batch``,
    ``max_chain``, ``calibration``, ...)."""
    srv = ModelServer(gpu, **server)
    return srv.max_batch / srv.submit_analytic(model, srv.max_batch, dtype).latency_s


@dataclass(frozen=True)
class AttainmentPoint:
    """One offered-load point of an SLO attainment curve."""

    overload: float  # offered load as a multiple of capacity_rps
    rate_rps: float
    offered: int
    served: int
    attained: int
    shed: int
    degraded: int
    late: int
    p99_s: float  # NaN when everything was shed

    @property
    def attainment(self) -> float:
        return self.attained / self.offered if self.offered else 0.0


def attainment_curve(
    gpu: GpuSpec,
    model: str,
    *,
    slo_s: float,
    overloads: Sequence[float] = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0),
    n_requests: int = 64,
    dtype: DType = DType.FP32,
    admission: str | None = "degrade",
    arrival: str = "lognormal",
    seed: int = 0,
    **server,
) -> list[AttainmentPoint]:
    """SLO attainment vs offered load: replay the same seeded stream shape on
    one GPU at each multiple of its analytic capacity and report the
    attained/shed/degraded/late split per point.  ``server`` holds
    :class:`~repro.serve.server.ModelServer` settings, forwarded to both
    :func:`capacity_rps` and :func:`fleet_replay`.  Fully deterministic — the
    acceptance test replays the whole curve twice and asserts equality."""
    base = capacity_rps(gpu, model, dtype, **server)
    points: list[AttainmentPoint] = []
    for overload in overloads:
        report = fleet_replay(
            [gpu],
            model,
            n_requests,
            base * overload,
            dtype,
            arrival=arrival,
            slo_s=slo_s,
            admission=admission,
            seed=seed,
            **server,
        )
        points.append(
            AttainmentPoint(
                overload=overload,
                rate_rps=base * overload,
                offered=report.n_requests,
                served=report.served,
                attained=report.attained,
                shed=report.shed,
                degraded=report.degraded,
                late=report.late,
                p99_s=report.latency_p99_s,
            )
        )
    return points


# ---- fleet replay -------------------------------------------------------------


@dataclass(frozen=True)
class WorkerSloStats:
    """Per-worker SLO outcome split (sheds attributed to the routed worker)."""

    worker: str
    served: int
    attained: int
    late: int
    shed: int
    degraded: int


@dataclass
class FleetStreamReport:
    """Result of replaying one request stream against a fleet (a single GPU
    is a fleet of one).

    ``latency_p50_s``/``latency_p99_s`` follow the nearest-rank-above
    convention (see :func:`percentile`) over *served* requests; both are NaN
    when nothing was served.  ``n_requests`` counts *offered* requests:
    ``shed`` of them were rejected by admission, ``fault_stats.lost`` were
    lost to faults, and the rest were served (``degraded`` of those at the
    fallback precision, ``late`` past their SLO, ``attained`` within it).
    ``plan_hit_rate`` is the fleet-wide plan-cache hit rate — the number the
    affinity-vs-round-robin comparison pivots on.
    """

    models: tuple[str, ...]
    gpus: tuple[str, ...]
    policy: str
    dtype: str
    n_requests: int
    max_batch: int
    rate_rps: float
    duration_s: float
    throughput_img_s: float
    latency_p50_s: float
    latency_p99_s: float
    mean_batch: float
    #: mean simulated energy per served image (NaN when nothing was served).
    energy_per_image_j: float
    plan_hit_rate: float
    planner_invocations: int
    #: the fleet's per-worker accounting snapshot at end of replay
    #: (``busy_s`` is the worker's cumulative simulated execution time).
    per_worker: tuple[WorkerStats, ...]
    latencies_s: list[float] = field(default_factory=list)
    #: populated when the replay ran with ``trace=True`` (``fleet --explain``).
    routing_trace: tuple[RouteDecision, ...] = ()
    #: planning passes that happened while requests were in flight — a
    #: TuningDB-warm-started fleet replays its tuned models at 0.
    critical_path_planner_invocations: int = 0
    #: plans preloaded at boot from a tuning DB (0 for cold starts).
    warm_starts: int = 0
    slo_s: float | None = None
    admission: str | None = None
    shed: int = 0
    degraded: int = 0
    late: int = 0
    attained: int = 0
    #: per-worker SLO split, parallel to ``per_worker`` (empty without SLOs).
    slo_per_worker: tuple[WorkerSloStats, ...] = ()
    #: the autoscaler's decision trace (empty without autoscaling).
    scale_events: tuple[ScaleEvent, ...] = ()
    #: high-water mark of fleet size during the replay.
    peak_workers: int = 0
    #: chaos accounting (None unless a FaultPlan / RetryPolicy was armed).
    fault_stats: "FaultStats | None" = None

    @property
    def availability(self) -> float:
        """Fleet availability over the replay window (1.0 without faults)."""
        return self.fault_stats.availability if self.fault_stats is not None else 1.0

    @property
    def served(self) -> int:
        """Requests that completed (offered minus shed and lost)."""
        return len(self.latencies_s)

    @property
    def attainment(self) -> float | None:
        """Fraction of *offered* requests served within their SLO (shed and
        lost requests count against attainment); None when no SLO was in
        play."""
        if self.slo_s is None:
            return None
        return self.attained / self.n_requests if self.n_requests else 0.0

    def describe(self) -> str:
        warm = (
            f", {self.warm_starts} warm-started plan(s), "
            f"{self.critical_path_planner_invocations} on the critical path"
            if self.warm_starts
            else ""
        )
        lines = [
            f"fleet[{'+'.join(self.gpus)}] policy={self.policy} "
            f"({self.dtype}): {self.n_requests} reqs of "
            f"{','.join(self.models)} @ {self.rate_rps:g} rps, "
            f"max_batch={self.max_batch} -> "
            f"{self.throughput_img_s:.0f} img/s, "
            f"p50 {self.latency_p50_s * 1e3:.3f} ms, "
            f"p99 {self.latency_p99_s * 1e3:.3f} ms, "
            f"mean batch {self.mean_batch:.1f}, "
            f"{self.energy_per_image_j * 1e3:.3f} mJ/img, "
            f"plan hit rate {self.plan_hit_rate:.0%} "
            f"({self.planner_invocations} planning pass(es){warm})"
        ]
        if self.slo_s is not None:
            lines.append(
                f"  SLO {self.slo_s * 1e3:g} ms"
                + (f" [admission={self.admission}]" if self.admission else "")
                + f": attainment {self.attainment:.1%} "
                f"({self.attained} attained, {self.late} late, "
                f"{self.shed} shed, {self.degraded} degraded)"
            )
        if self.scale_events:
            lines.append(
                f"  autoscale: {len(self.scale_events)} action(s), "
                f"peak {self.peak_workers} worker(s)"
            )
            for event in self.scale_events:
                lines.append(f"    {event.describe()}")
        if self.fault_stats is not None:
            lines.extend(f"  {line}" for line in self.fault_stats.describe().splitlines())
        slo_by_worker = {s.worker: s for s in self.slo_per_worker}
        for w in self.per_worker:
            line = (
                f"  {w.worker}: {w.requests} reqs in {w.batches} batches "
                f"(mean {w.mean_batch:.1f}), busy {w.busy_s * 1e3:.3f} ms, "
                f"cache {w.plan_hits}h/{w.plan_misses}m, "
                f"{w.planner_invocations} plan(s)"
            )
            s = slo_by_worker.get(w.worker)
            if s is not None:
                line += (
                    f", slo {s.attained}/{s.served} attained "
                    f"({s.late} late, {s.shed} shed, {s.degraded} degraded)"
                )
            lines.append(line)
        return "\n".join(lines)


def fleet_replay(
    gpus: Sequence[GpuSpec],
    models: "str | Sequence[str] | None" = None,
    n_requests: int | None = None,
    rate_rps: float | None = None,
    dtype: DType = DType.FP32,
    *,
    poisson: bool = False,
    arrival: str | None = None,
    request_trace: Sequence[TraceRequest] | None = None,
    slo_s: float | None = None,
    admission: "str | AdmissionController | None" = None,
    autoscale: AutoscalePolicy | None = None,
    faults: FaultPlan | None = None,
    retry: RetryPolicy | None = None,
    probe_s: float = 1e-4,
    breaker_threshold: int = 3,
    breaker_reset_s: float = 1e-3,
    seed: int = 0,
    fleet: Fleet | None = None,
    **fleet_settings,
) -> FleetStreamReport:
    """Replay one stream over a fleet of GPUs on a shared :class:`FakeClock`.

    This is the repo's one replay loop; a single GPU is ``fleet_replay([gpu],
    ...)``.  Request ``i`` targets ``models[i % len(models)]`` — a
    deterministic multi-model trace (or pass ``request_trace`` to replay
    explicit :class:`TraceRequest` entries; ``models``/``n_requests``/
    ``rate_rps`` are then ignored).  ``arrival`` picks a generator from
    :data:`ARRIVAL_KINDS` (overriding the legacy ``poisson`` flag), and
    ``seed`` seeds it.

    ``fleet_settings`` (``policy``, ``spill_factor``, ``trace`` and the
    :class:`~repro.serve.server.ModelServer` settings) build the replay's
    :class:`Fleet` on the shared clock.  Pass ``fleet`` to reuse one built
    on a FakeClock as both ``clock`` and ``sleep``; passing fleet settings
    alongside it raises :class:`PlanError`.  A fleet preplanned with
    :meth:`Fleet.preplan` serves the stream with no planning on the
    critical path.

    The shared clock never advances by execution time: each
    :class:`FleetWorker` keeps its own occupancy timeline (``busy_until``),
    batches keep forming while devices execute, and a flushed batch starts
    at ``max(now, busy_until)``.  A request's latency is queue wait + device
    wait + batched execution.  Everything (arrivals, routing, occupancy,
    admission, scaling) is deterministic, so replaying the same stream over
    a fresh identically-configured fleet reproduces the report exactly.

    ``slo_s`` stamps a deadline on every generated request (a trace entry's
    own ``slo_s`` wins), which arms the servers' deadline-aware flushing.
    ``admission`` (a policy name or an
    :class:`~repro.serve.admission.AdmissionController`) sheds or degrades
    requests whose projected latency would bust their SLO; it judges the
    request against the worker routing picked for it, occupancy included,
    and a degraded request stays on that worker at the fallback precision.
    ``autoscale`` binds a reactive :class:`~repro.serve.autoscale.
    Autoscaler` to the fleet; it observes the backlog at every arrival and
    during the drain, and its decisions land in ``scale_events``.

    ``tracer``/``metrics`` (a :class:`repro.obs.Tracer` /
    :class:`repro.obs.MetricsRegistry`) capture the replay as a
    deterministic timeline: the tracer binds to the shared FakeClock and
    every worker, the scheduler, and the autoscaler emit into the same
    sinks, so two identical invocations export byte-identical traces.

    ``faults``/``retry`` arm the chaos path (:mod:`repro.serve.faults`):
    a :class:`FaultInjector` replays the :class:`FaultPlan` on the shared
    clock — crashes void in-flight batches and requeue queued work to
    survivors, slowdowns stretch execution by the throttle factor, and
    recoveries re-warm the worker's plan cache from peers before a probe
    returns it to service.  The :class:`RetryPolicy` governs re-submission
    (bounded backoff, retry budget, optional hedging); accounting lands in
    ``FleetStreamReport.fault_stats``.  With neither armed, no injector is
    constructed and each batch commits as it flushes.
    """
    if fleet is None:
        clock = FakeClock()
        fleet = Fleet(gpus, clock=clock, sleep=clock.sleep, **fleet_settings)
    elif fleet_settings:
        raise PlanError(
            f"fleet_replay got fleet= and fleet settings {sorted(fleet_settings)}; "
            "set them when the fleet is built"
        )
    elif isinstance(fleet.clock, FakeClock):
        clock = fleet.clock
    else:
        raise PlanError("fleet_replay needs a fleet driven by a FakeClock")
    tracer = fleet.tracer
    metrics = fleet.metrics
    if tracer.enabled:
        # Simulated time stamps every span/instant (byte-stable exports).
        tracer.clock = clock
    entries, model_list, offered_rate = _stream_entries(
        request_trace, models, n_requests, rate_rps, dtype, slo_s, arrival,
        poisson, seed,
    )

    # Anything planned so far (warm start, preplan, or a pre-used fleet)
    # happened at boot: replay-time planning is what the critical-path
    # accounting tracks.
    boot_invocations = fleet.stats().planner_invocations

    controller = admission_controller(admission)
    scaler = autoscale.bind(fleet) if autoscale is not None else None
    slo_in_play = slo_s is not None or any(e.slo_s is not None for e in entries)
    latencies: list[float] = []
    #: (worker_id, worker-local request id) -> (arrival instant, slo)
    meta: dict[tuple[int, int], tuple[float, float | None]] = {}
    #: simulated energy of each served image
    energies: list[float] = []
    attained = late = 0
    slo_counts: dict[str, dict[str, int]] = {}

    def worker_counts(name: str) -> dict[str, int]:
        return slo_counts.setdefault(
            name, {"served": 0, "attained": 0, "late": 0, "shed": 0, "degraded": 0}
        )

    def commit(worker, r, start, exec_s, flush_now, arrival_t, slo) -> None:
        """Latency, energy and SLO accounting for one completed request of a
        batch flushed at ``flush_now`` that ran on ``worker`` from ``start``
        for ``exec_s``.  The chaos path calls this when a batch settles,
        keyed by the logical request's original arrival instant and SLO."""
        nonlocal attained, late
        latency = r.wait_s + (start - flush_now) + exec_s
        latencies.append(latency)
        energies.append(r.energy_per_image_j)
        if not slo_in_play:
            return
        counts = worker_counts(worker.name)
        counts["served"] += 1
        if slo is None:
            # best-effort requests in a mixed trace have no deadline to
            # miss: served counts as attained.
            attained += 1
            counts["attained"] += 1
            return
        # The SLO clock starts at *arrival*: wait_s starts at enqueue
        # (= flush_now - wait_s), so add back any arrival->enqueue gap.
        gap = max(0.0, (flush_now - r.wait_s) - arrival_t)
        if latency + gap <= slo:
            attained += 1
            counts["attained"] += 1
        else:
            late += 1
            counts["late"] += 1

    def handle(flushed: list[tuple[FleetWorker, InferenceResult]], now: float) -> None:
        # Batches start in flush order on their own device; occupancy is
        # per worker, so concurrently flushed workers overlap in time.
        batches: dict[tuple[int, int], tuple[FleetWorker, list[InferenceResult]]] = {}
        for worker, result in flushed:
            key = (worker.worker_id, result.batch_seq)
            if key in batches:
                batches[key][1].append(result)
            else:
                batches[key] = (worker, [result])
        for (_, batch_seq), (worker, batch) in batches.items():
            start = max(now, worker.busy_until)
            exec_s = batch[0].exec_s
            if worker.throttle != 1.0:
                # thermal throttle (serve.faults): never taken fault-free.
                exec_s *= worker.throttle
            worker.busy_until = start + exec_s
            worker.busy_s += exec_s
            if tracer.enabled:
                # The device-occupancy lane (tid 1): the batch's *true*
                # interval on its device, which the flush-time batch.execute
                # span (tid 0) doesn't know — the device may still be busy.
                tracer.add_span(
                    "worker.busy",
                    start,
                    start + exec_s,
                    pid=worker.name,
                    tid=1,
                    batch_seq=batch_seq,
                    model=batch[0].model,
                    batch_size=len(batch),
                )
            if injector is not None:
                # Chaos path: the commit is deferred until the batch
                # settles at start + exec_s, so a crash in between can
                # void it (the injector calls commit on success).
                injector.on_flush(worker, batch, start, exec_s, now)
                continue
            for r in batch:
                arrival_t, slo = meta.get((worker.worker_id, r.request_id), (None, None))
                commit(worker, r, start, exec_s, now, arrival_t, slo)

    def pump(now: float) -> int:
        """Flush due micro-batches once; returns how many results flushed."""
        flushed = fleet.step()
        handle(flushed, now)
        return len(flushed)

    def chaos_submit(logical, now, exclude=frozenset(), is_hedge=False) -> bool:
        """(Re)route one logical request into the fleet; False if nothing
        is routable.  Retries carry their *remaining* SLO budget so
        deadline-aware flushing stays honest about the time already lost."""
        target = fleet.scheduler.route(logical.model, logical.dtype, now, exclude=exclude)
        if target is None:
            return False
        remaining = None
        if logical.slo_s is not None:
            slack = logical.arrival_t + logical.slo_s - now
            remaining = slack if slack > 0 else None
        rid = target.server.enqueue(
            logical.model,
            dtype=logical.dtype,
            slo_s=remaining,
            priority=logical.priority,
        )
        injector.register(target, rid, logical, is_hedge=is_hedge)
        return True

    injector: FaultInjector | None = None
    if faults is not None or retry is not None:
        injector = FaultInjector(
            fleet,
            faults if faults is not None else FaultPlan(()),
            retry=retry,
            offered=len(entries),
            probe_s=probe_s,
            breaker_threshold=breaker_threshold,
            breaker_reset_s=breaker_reset_s,
            submit=chaos_submit,
            commit=commit,
            tracer=tracer,
            metrics=metrics,
        )

    for entry in entries:
        t = entry.t
        # Partial batches whose deadline expires before this arrival flush at
        # their deadline, not lazily at the next enqueue.  With an injector
        # armed, its events (faults, settles, retries, hedges, probes) that
        # fall before this arrival interleave in time order, injector-first
        # on ties; with none armed this is exactly the fault-free loop.
        while True:
            due = fleet.next_deadline()
            ev = injector.next_t() if injector is not None else None
            if ev is not None and ev <= t and (due is None or ev <= due):
                clock.t = max(clock.t, ev)
                injector.process(clock.t)
                pump(clock.t)
                continue
            if due is None or due > t:
                break
            clock.t = max(clock.t, due)
            progressed = pump(clock.t)
            if injector is not None:
                injector.process(clock.t)
            if progressed == 0:
                break
        clock.t = max(clock.t, t)
        if scaler is not None:
            scaler.observe(clock.t)
        req_dtype = DType(entry.dtype)
        req_slo = entry.slo_s if entry.slo_s is not None else slo_s
        worker = fleet.scheduler.route(entry.model, req_dtype, clock.t)
        if worker is None:
            # Every worker is down (only reachable with faults armed): the
            # arrival is accepted but parked until capacity recovers.
            injector.park(
                arrival_t=t,
                model=entry.model,
                dtype=req_dtype,
                slo_s=req_slo,
                priority=entry.priority,
            )
            continue
        if controller is not None and req_slo is not None:
            # Device occupancy plus any deadline-flush clock drift past the
            # arrival instant: SLO budget already spent at decision time.
            decision = controller.decide(
                worker.server,
                entry.model,
                req_dtype,
                req_slo,
                occupancy_s=worker.occupancy_s(clock.t) + max(0.0, clock.t - t),
                throttle=worker.throttle,
            )
            if decision.action in ("shed", "degrade") and (
                tracer.enabled or metrics.enabled
            ):
                tracer.instant(
                    f"admission.{decision.action}",
                    t_s=clock.t,
                    pid=worker.name,
                    model=entry.model,
                    slo_s=req_slo,
                )
                metrics.counter(
                    "repro_admission_total", help="Admission verdicts by action"
                ).inc(action=decision.action, worker=worker.name)
            if decision.action == "shed":
                worker_counts(worker.name)["shed"] += 1
                continue
            if decision.action == "degrade":
                req_dtype = controller.degrade_dtype
                worker_counts(worker.name)["degraded"] += 1
        rid = worker.server.enqueue(
            entry.model, dtype=req_dtype, slo_s=req_slo, priority=entry.priority
        )
        meta[(worker.worker_id, rid)] = (t, req_slo)
        if injector is not None:
            injector.track(
                worker,
                rid,
                arrival_t=t,
                model=entry.model,
                dtype=req_dtype,
                slo_s=req_slo,
                priority=entry.priority,
                now=clock.t,
            )
        pump(clock.t)

    while fleet.pending() or (injector is not None and injector.pending()):
        due = fleet.next_deadline()
        ev = injector.next_t() if injector is not None else None
        if ev is not None and (due is None or ev <= due):
            clock.t = max(clock.t, ev)
            if scaler is not None:
                scaler.observe(clock.t)
            injector.process(clock.t)
            pump(clock.t)
            continue
        if due is not None:
            clock.t = max(clock.t, due)
        if scaler is not None:
            scaler.observe(clock.t)
        pump(clock.t)

    if scaler is not None:
        # Post-drain settling: once every device has gone quiet the backlog
        # signal is 0, so surplus workers retire back toward min_workers
        # (bounded by cooldown — one action per observation instant).
        clock.t = max([clock.t] + [w.busy_until for w in fleet.workers])
        while True:
            event = scaler.observe(clock.t)
            if event is None:
                break

    stats = fleet.stats()
    finish = max([clock.t] + [w.busy_until for w in fleet.workers])
    duration = max(finish - entries[0].t, 1e-12)
    fault_stats = (
        injector.finalize(finish, duration) if injector is not None else None
    )
    latencies.sort()
    first_slo = next((e.slo_s for e in entries if e.slo_s is not None), None)
    return FleetStreamReport(
        models=model_list,
        gpus=tuple(w.gpu.name for w in fleet.workers),
        policy=fleet.policy,
        dtype=dtype.value,
        n_requests=len(entries),
        max_batch=fleet.workers[0].server.max_batch,
        rate_rps=offered_rate,
        duration_s=duration,
        throughput_img_s=len(latencies) / duration,
        latency_p50_s=_percentile_or_nan(latencies, 50),
        latency_p99_s=_percentile_or_nan(latencies, 99),
        mean_batch=stats.mean_batch,
        energy_per_image_j=float(np.mean(energies)) if energies else float("nan"),
        plan_hit_rate=stats.plan_hit_rate,
        planner_invocations=stats.planner_invocations,
        per_worker=stats.per_worker,
        latencies_s=latencies,
        routing_trace=tuple(fleet.trace or ()),
        critical_path_planner_invocations=(
            stats.planner_invocations - boot_invocations
        ),
        warm_starts=stats.warm_starts,
        slo_s=slo_s if slo_s is not None else first_slo,
        admission=controller.policy if controller is not None else None,
        shed=sum(c["shed"] for c in slo_counts.values()),
        degraded=sum(c["degraded"] for c in slo_counts.values()),
        late=late,
        attained=attained,
        slo_per_worker=tuple(
            WorkerSloStats(worker=name, **counts)
            for name, counts in sorted(slo_counts.items())
        ),
        scale_events=tuple(scaler.events) if scaler is not None else (),
        peak_workers=scaler.peak_workers if scaler is not None else len(fleet.workers),
        fault_stats=fault_stats,
    )
