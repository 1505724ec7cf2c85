"""LRU plan cache: plan once, serve many times.

FusePlanner's whole-model pass (tiling search over every layer and fusion
candidate) costs orders of magnitude more than pricing one inference, yet its
output depends only on (model, precision, GPU, cost convention, chain cap).
The serving layer therefore memoizes the
:class:`~repro.planner.plan.ExecutionPlan` *together with* a
:class:`~repro.runtime.network_params.NetworkParams` handle and a ready
:class:`~repro.runtime.session.InferenceSession`, keyed by exactly those
five inputs.  The handle generates the weights when the first
functional request reads them; analytic (counters-only) serving never does,
so its entries hold no weight tensors.  Cross-layer reuse work (Wang et al.)
makes the same point for fused kernels: fusion pays off most when one plan is
amortized over many invocations.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from ..core.dtypes import DType
from ..errors import PlanError
from ..gpu.specs import GpuSpec
from ..ir.graph import ModelGraph
from ..models.zoo import build_model
from ..obs import resolve_metrics, resolve_tracer
from ..planner.plan import ExecutionPlan
from ..planner.planner import FusePlanner
from ..runtime.network_params import NetworkParams, materialize_network
from ..runtime.session import InferenceSession, SessionReport

__all__ = ["PlanKey", "CachedPlan", "CacheStats", "PlanCache"]


@dataclass(frozen=True)
class PlanKey:
    """Identity of one memoized plan: everything FusePlanner's output
    depends on (and nothing it doesn't — request batch size is *not* part
    of the key; one plan serves every batch size).  ``max_chain`` is part
    of the identity because the DP emits different plans per chain cap."""

    model: str
    dtype: str
    gpu: str
    convention: str
    max_chain: int = 2

    @classmethod
    def of(
        cls,
        model: str,
        dtype: DType,
        gpu: GpuSpec,
        convention: str,
        max_chain: int = 2,
    ) -> "PlanKey":
        return cls(
            model=model,
            dtype=dtype.value,
            gpu=gpu.name,
            convention=convention,
            max_chain=max_chain,
        )

    def variant(self, dtype: DType) -> "PlanKey":
        """The same plan identity at another precision — the degraded-
        precision reroute (:mod:`repro.serve.admission`) is a cache lookup
        under this key, not a new serving path."""
        return PlanKey(
            model=self.model,
            dtype=dtype.value,
            gpu=self.gpu,
            convention=self.convention,
            max_chain=self.max_chain,
        )


@dataclass
class CachedPlan:
    """One cache entry: the planned model, ready to execute at any batch size."""

    key: PlanKey
    graph: ModelGraph
    plan: ExecutionPlan
    params: NetworkParams
    session: InferenceSession
    #: memoized analytic reports, keyed by batch size (pricing a micro-batch
    #: of a size already seen is then a dict lookup).
    _analytic: dict[int, SessionReport] = field(default_factory=dict)

    def analytic_report(self, batch_size: int) -> SessionReport:
        """Counters-only batched report for this plan (memoized per size)."""
        if batch_size not in self._analytic:
            self._analytic[batch_size] = self.session.run_analytic_batch(batch_size)
        return self._analytic[batch_size]


@dataclass
class CacheStats:
    """Hit/miss/eviction tally plus the planner-invocation count the
    serving acceptance test pins down (N requests, 1 planning pass).

    ``warm_starts`` counts plans built at boot by :meth:`PlanCache.
    warm_start` — those planner invocations happen *off* the serving
    critical path, which is what the warm-started fleet replay asserts."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    planner_invocations: int = 0
    warm_starts: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class PlanCache:
    """LRU cache of :class:`CachedPlan` entries.

    ``capacity`` bounds the number of resident plans (once a functional
    request has read its weights, an entry holds every weight tensor of its
    network, so unbounded growth would be a memory leak in a long-running
    server).  Least-recently-*used* eviction: every hit refreshes the
    entry's recency.  Weights use :func:`materialize_network`'s default
    seed, so every cache serves the same weights for one (model, dtype).
    """

    def __init__(
        self,
        capacity: int = 8,
        calibration=None,
        *,
        tracer=None,
        metrics=None,
    ) -> None:
        if capacity < 1:
            raise PlanError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        #: optional measurement-feedback corrections (duck-typed
        #: :class:`repro.tune.calibrate.Calibration`) handed to every
        #: FusePlanner this cache builds.
        self.calibration = calibration
        self.tracer = resolve_tracer(tracer)
        self.metrics = resolve_metrics(metrics)
        self.stats = CacheStats()
        self._entries: OrderedDict[PlanKey, CachedPlan] = OrderedDict()
        #: bumped whenever the resident set changes (insert, eviction,
        #: clear) — not on a hit's recency refresh — so a server can drop
        #: what it derived from the resident plans exactly when they move.
        self.generation = 0

    def _count(self, event: str, amount: int = 1) -> None:
        self.metrics.counter(
            "repro_plan_cache_total", help="Plan-cache events by kind"
        ).inc(amount, event=event)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: PlanKey) -> bool:
        return key in self._entries

    def keys(self) -> list[PlanKey]:
        """Resident keys, least recently used first."""
        return list(self._entries)

    def peek(self, key: PlanKey) -> CachedPlan | None:
        """Return the resident entry for ``key`` without touching hit/miss
        stats or LRU recency — the fleet scheduler's routing probe must not
        perturb the accounting it is making decisions from."""
        return self._entries.get(key)

    def get(
        self,
        model: str,
        dtype: DType,
        gpu: GpuSpec,
        convention: str = "paper",
        max_chain: int = 2,
    ) -> CachedPlan:
        """Return the memoized plan, building (and possibly evicting) on miss."""
        key = PlanKey.of(model, dtype, gpu, convention, max_chain)
        entry = self._entries.get(key)
        if entry is not None:
            self.stats.hits += 1
            self._count("hit")
            self._entries.move_to_end(key)
            return entry
        self.stats.misses += 1
        self._count("miss")
        graph = build_model(model, dtype)
        self.stats.planner_invocations += 1
        self._count("planner_invocation")
        plan = FusePlanner(
            gpu, convention, max_chain=max_chain, calibration=self.calibration,
            tracer=self.tracer, metrics=self.metrics,
        ).plan(graph)
        return self._insert(_entry(key, dtype, graph, plan))

    def install(
        self,
        model: str,
        dtype: DType,
        gpu: GpuSpec,
        convention: str = "paper",
        max_chain: int = 2,
        *,
        plan: ExecutionPlan,
    ) -> CachedPlan:
        """Adopt a plan produced elsewhere as a resident entry
        (:meth:`repro.serve.fleet.Fleet.preplan` plans once per GPU and
        installs the plan on every worker sharing it).

        The planner already ran, so this counts as a ``warm_start``, not a
        miss or a planner invocation: the plan-once/serve-many accounting
        the replay asserts must not depend on *where* boot-time planning
        happened.  The graph, weights handle and session are built here
        (cheap relative to planning); the weights themselves are generated
        only when a functional request first reads them.  An already
        resident entry wins: installing under a live key is a no-op so a
        preplan pass can never clobber serving state.
        """
        key = PlanKey.of(model, dtype, gpu, convention, max_chain)
        resident = self._entries.get(key)
        if resident is not None:
            return resident
        return self.adopt(_entry(key, dtype, build_model(model, dtype), plan))

    def clear(self) -> int:
        """Drop every resident entry, keeping cumulative stats (crash path).

        A crashed GPU loses its on-device state: the plans are gone but the
        hit/miss/planner history still happened.  Returns the number of
        entries dropped; they are losses, not LRU evictions, so the
        eviction counter is untouched.
        """
        dropped = len(self._entries)
        self._entries.clear()
        self.generation += 1
        return dropped

    def adopt(self, entry: CachedPlan) -> CachedPlan:
        """Share a peer's resident entry (recovery re-warm path).

        The plan, weights handle and session already exist on a same-GPU
        peer, so adopting the object is free (weights the peer generated are
        shared, not generated again) and counts as a ``warm_start`` exactly
        like :meth:`install`.  An already resident entry wins (no-op), and
        adoption respects capacity via LRU eviction like any other
        insertion.
        """
        resident = self._entries.get(entry.key)
        if resident is not None:
            return resident
        self._insert(entry)
        self.stats.warm_starts += 1
        self._count("warm_start")
        return entry

    def warm_start(
        self,
        db,
        gpu: GpuSpec,
        *,
        convention: str = "paper",
        max_chain: int = 2,
    ) -> list[PlanKey]:
        """Preload plans from a tuning DB's model-level records at boot.

        Every ``family == "model"`` record matching this GPU, convention and
        chain cap is planned *now*, so the first request for a tuned model
        finds its plan resident — cold-start planning leaves the serving
        critical path entirely.  Records this build cannot replay — models
        absent from the zoo, unknown dtypes, plans that no longer have a
        feasible tiling (all possible with a DB tuned against another
        build) — are skipped, not fatal: a stale record must never stop a
        server from booting.  Returns the keys preloaded, in the DB's
        canonical order; LRU capacity still applies, so a DB larger than
        the cache keeps only the last ``capacity`` plans.
        """
        from ..errors import UnsupportedError
        from ..models.zoo import MODELS

        loaded: list[PlanKey] = []
        for rec in db:
            k = rec.key
            if k.family != "model" or k.gpu != gpu.name or k.convention != convention:
                continue
            if not (isinstance(k.geometry, tuple) and len(k.geometry) == 2):
                continue  # foreign tooling's model record: skip, not fatal
            model, rec_chain = k.geometry
            if rec_chain != max_chain or model not in MODELS:
                continue
            try:
                dtype = DType(k.dtype)
            except ValueError:
                continue  # a dtype this build doesn't know: skip, not fatal
            try:
                entry = self.get(model, dtype, gpu, convention, max_chain)
            except (UnsupportedError, PlanError):
                continue
            self.stats.warm_starts += 1
            self._count("warm_start")
            loaded.append(entry.key)
        return loaded

    def _insert(self, entry: CachedPlan) -> CachedPlan:
        """Make ``entry`` resident, evicting least-recently-used entries
        past capacity."""
        self._entries[entry.key] = entry
        self.generation += 1
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
            self._count("eviction")
        return entry


def _entry(key: PlanKey, dtype: DType, graph: ModelGraph, plan: ExecutionPlan) -> CachedPlan:
    """A ready-to-serve entry for ``plan``: its session and a weights handle
    that generates the weights when a functional request first reads them."""
    params = materialize_network(graph, dtype)
    session = InferenceSession(graph, plan, params)
    return CachedPlan(key=key, graph=graph, plan=plan, params=params, session=session)
