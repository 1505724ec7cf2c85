"""The benchmark's four workloads.

Each workload runs in a fresh interpreter (see ``child.py``): ``setup()``
builds what a user builds before the first request, then ``run_unit()``
does one fixed unit of work on the host clock and checks every output, and
``post()`` adds figures computed after the timed work.  The simulated
(modelled-GPU) figures depend only on the seed, never on host speed.

Every call into the program goes through a public name looked up on its
module at call time (``loadgen.fleet_replay``, ``zoo.build_model``), so a
traced run's patches see the benchmark's own calls too.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import replace

import numpy as np

from repro.baselines.tvm import TvmCompiler
from repro.core.dtypes import DType
from repro.experiments import fig10_fig11
from repro.gpu.specs import ALL_GPUS, GTX1660, ORIN, RTX_A4000
from repro.models import zoo
from repro.planner.planner import FusePlanner
from repro.runtime.session import TvmSession, seeded_input
from repro.serve import FaultEvent, FaultPlan, Fleet, ModelServer, PlanKey, RetryPolicy, loadgen

__all__ = ["WORKLOADS"]

DTYPES = (DType.FP32, DType.INT8)


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def vs_tvm(entries) -> dict[str, float]:
    """Geomean speedup / energy / GMA of resident plans (``CachedPlan``)
    against TVM's on the same (model, GPU, dtype), reusing their weights:
    nothing is planned or materialized again."""
    speed, energy, gma = [], [], []
    for entry in entries:
        ours = entry.session.run_analytic()
        tvm_plan = TvmCompiler(entry.plan.gpu).compile(entry.graph, entry.plan.dtype)
        tvm = TvmSession(entry.graph, tvm_plan, params=entry.params).run_analytic()
        speed.append(tvm.latency_s / ours.latency_s)
        energy.append(ours.energy_j / tvm.energy_j)
        gma.append(ours.total_gma_bytes / tvm.total_gma_bytes)
    return {
        "sim_speedup_vs_tvm": geomean(speed),
        "sim_energy_vs_tvm": geomean(energy),
        "sim_gma_vs_tvm": geomean(gma),
    }


def timed(parts: list, label: str, fn, *args, **kwargs):
    """Call ``fn`` and append ``[label, host seconds]`` to ``parts``.

    A run sums, over labels, one statistic of each label's seconds across
    its processes (the median for set-up, the minimum for the unit), so a
    burst of host noise costs one part of one process, not its total.
    """
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    parts.append([label, time.perf_counter() - t0])
    return result


def interpreter_s() -> float:
    """Host seconds a fixed pure-Python loop takes right now.

    On a shared VM the interpreter's speed swings by up to 1.6x within
    minutes, with the host's load.  Interpreter-bound parts (replays,
    planning, graph build, imports) are rescaled by this loop's time on a
    reference host (:data:`PYTHON_PROBE`).
    """
    t0 = time.perf_counter()
    table: dict[int, float] = {}
    for i in range(100_000):
        k = i % 1024
        table[k] = table.get(k, 0.0) + i * 0.5
    sorted((i * 7919) % 10007 for i in range(30_000))
    return time.perf_counter() - t0


def numpy_s() -> float:
    """Host seconds a fixed NumPy random fill takes right now.

    Weight materialization, most of the sweep's and the replays' set-up
    cost, is this kind of work; its speed drifts with the host's load too
    (by 20% within two minutes), but by less than, and not in step with,
    :func:`interpreter_s`.
    """
    t0 = time.perf_counter()
    np.random.default_rng(0).standard_normal(300_000).astype(np.float32)
    return time.perf_counter() - t0


_W = np.random.default_rng(0).standard_normal((128, 256))
_X = np.random.default_rng(1).standard_normal((256, 3072))
#: a pointwise conv's GEMM at both accumulator precisions (INT8 runs its
#: GEMMs as float64)
_GEMMS = ((_W, _X), (_W.astype(np.float32), _X.astype(np.float32)))


def blas_s() -> float:
    """Host seconds two fixed GEMMs take right now: functional requests
    and warm-ups are mostly BLAS GEMMs and einsums."""
    t0 = time.perf_counter()
    for w, x in _GEMMS:
        w @ x
    return time.perf_counter() - t0


#: (probe, its seconds on an unloaded 2-core host): parts rescaled with a
#: probe read as seconds at that reference speed.
PYTHON_PROBE = (interpreter_s, 0.02)
NUMPY_PROBE = (numpy_s, 0.005)
BLAS_PROBE = (blas_s, 0.005)


def slowdown(probe) -> float:
    """The ``probe``'s seconds now over its reference seconds (fastest of
    three: the first probe after other work runs slow)."""
    measure, reference_s = probe
    return min(measure() for _ in range(3)) / reference_s


def timed_rescaled(parts: list, label: str, probe, fn, *args, **kwargs):
    """:func:`timed`, with the part rescaled to the ``probe``'s reference
    speed, measured just before and just after it."""
    before = slowdown(probe)
    result = timed(parts, label, fn, *args, **kwargs)
    parts[-1][1] /= (before + slowdown(probe)) / 2
    return result


class Unit:
    """What one unit of work produced: timed parts, items done, operations
    attempted and failed (broken output checks), plus the simulated metrics."""

    def __init__(self) -> None:
        self.parts: list[list] = []
        self.items = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.sim: dict[str, float] = {}
        self.layers: dict[str, float] = {}
        #: how many latencies the simulated percentiles were taken over
        self.samples = 0
        #: per-rung (rate, attainment, p50 ms, p99 ms, mean batch, shed)
        self.rungs: list[tuple] = []

    @property
    def host_s(self) -> float:
        return sum(seconds for _label, seconds in self.parts)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)


# ---- paper_sweep ---------------------------------------------------------------


#: planner calls timed as one part (~0.5 s; each part pays six speed probes)
PLAN_CHUNK = 36


class PaperSweep:
    """Fig. 10/11 for FP32 and INT8 (4 CNNs x 3 GPUs, ours vs TVM, analytic)
    and ``FusePlanner.plan`` over all 6 zoo models x 3 GPUs x 2 dtypes x
    ``max_chain`` 1-3, in a seed-shuffled order."""

    name = "paper_sweep"

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.cnns = ("mobilenet_v1",) if tiny else zoo.CNN_MODELS
        self.models = ("mobilenet_v1",) if tiny else tuple(zoo.MODELS)
        self.gpus = (RTX_A4000,) if tiny else ALL_GPUS
        self.chains = (1, 2) if tiny else (1, 2, 3)

    def setup(self) -> None:
        self.setup_parts: list[list] = []
        self.graphs = timed_rescaled(self.setup_parts, "graphs", PYTHON_PROBE, lambda: {
            (m, d): zoo.build_model(m, d) for m in self.models for d in DTYPES
        })
        self.order = [
            (m, d, gpu, k)
            for (m, d) in self.graphs
            for gpu in self.gpus
            for k in self.chains
        ]
        random.Random(self.seed).shuffle(self.order)

    def run_unit(self) -> Unit:
        unit = Unit()
        points = []
        for dtype in DTYPES:
            for gpu in self.gpus:
                points += timed_rescaled(
                    unit.parts, f"fig10_11 {dtype.value} {gpu.name}", NUMPY_PROBE,
                    fig10_fig11.figure10_11, dtype, gpus=(gpu,), models=self.cnns,
                )
        plans = []
        for i in range(0, len(self.order), PLAN_CHUNK):
            chunk = self.order[i:i + PLAN_CHUNK]
            plans += timed_rescaled(unit.parts, f"plan {i // PLAN_CHUNK}", PYTHON_PROBE, lambda: [
                (m, d, gpu, FusePlanner(gpu, max_chain=k).plan(self.graphs[m, d]))
                for m, d, gpu, k in chunk
            ])
        unit.items = len(points) + len(plans)
        for p in points:
            unit.check(
                all(
                    math.isfinite(v) and v > 0
                    for v in (p.speedup_vs_tvm, p.energy_vs_tvm, p.gma_vs_tvm,
                              p.ours_latency_ms, p.tvm_latency_ms)
                ),
                f"fig10/11 point {p.model}/{p.gpu}/{p.dtype} not finite and positive",
            )
        for m, d, gpu, plan in plans:
            unit.check(
                bool(plan.steps) and plan.dtype is d and plan.gpu is gpu
                and plan.num_conv_layers > 0,
                f"plan {m}/{d.value}/{gpu.name} is empty or mislabelled",
            )
        lat = [p.ours_latency_ms for p in points]
        unit.sim = {
            "sim_p50_ms": loadgen.percentile(lat, 50),
            "sim_p99_ms": loadgen.percentile(lat, 99),
            "sim_capacity_rps": geomean(1e3 / v for v in lat),
            "slo_attainment": 1.0,
            "availability": 1.0,
            "served_share": (unit.attempted - unit.failed) / unit.attempted,
            "sim_speedup_vs_tvm": geomean(p.speedup_vs_tvm for p in points),
            "sim_energy_vs_tvm": geomean(p.energy_vs_tvm for p in points),
            "sim_gma_vs_tvm": geomean(p.gma_vs_tvm for p in points),
        }
        unit.samples = len(lat)
        return unit

    def post(self, unit: Unit) -> None:
        """The sweep already compared against TVM."""


# ---- serve_replay / chaos_replay -------------------------------------------------

#: the heterogeneous fleet: the paper's three GPUs, RTX twice.
FLEET_GPUS = (RTX_A4000, GTX1660, ORIN, RTX_A4000)
MIX = ("mobilenet_v1", "mobilenet_v2", "proxylessnas", "xception")
SLO_S = 10e-3
MAX_BATCH = 8
#: 2 ms lets micro-batches form (mean batch 1.0 at 0.2 ms).
MAX_DELAY_S = 2e-3
#: offered rates, req/s: the knee of this fleet under the SLO sits between
#: 4500 and 6000, so the ladder has rungs on both sides of it.
LADDER = (1000.0, 2000.0, 3000.0, 4500.0, 6000.0, 9000.0)
#: a rung "meets the limit" when this share of offered requests is served
#: within the SLO and the fleet drains within one SLO of the last arrival.
ATTAINMENT_LIMIT = 0.95


def meets(report, seed: int) -> bool:
    """Whether a rung met :data:`ATTAINMENT_LIMIT` without a growing backlog:
    the fleet drained within one SLO of the last arrival."""
    arrivals = loadgen.generate_arrivals(
        "poisson", report.n_requests, report.rate_rps, seed=seed
    )
    drain_s = report.duration_s - (arrivals[-1] - arrivals[0])
    return report.attainment >= ATTAINMENT_LIMIT and drain_s <= SLO_S


def new_fleet() -> Fleet:
    clock = loadgen.FakeClock()
    return Fleet(
        FLEET_GPUS, max_batch=MAX_BATCH, max_delay_s=MAX_DELAY_S,
        clock=clock, sleep=clock.sleep,
    )


class ServeReplay:
    """Open-loop seeded Poisson streams replayed with ``fleet_replay`` on the
    simulated clock, one fresh fleet per rung of :data:`LADDER`."""

    name = "serve_replay"

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.n = 120 if tiny else 2000
        self.ladder = LADDER[::2] if tiny else LADDER
        self.mix = MIX[:2] if tiny else MIX

    def setup(self) -> None:
        self.setup_parts: list[list] = []
        self.fleet = timed(self.setup_parts, "fleet", new_fleet)
        for model in self.mix:
            # INT8 too: degrade-to-INT8 admission must find its plans resident.
            timed_rescaled(
                self.setup_parts, f"preplan {model}", NUMPY_PROBE,
                self.fleet.preplan, [model], DTYPES,
            )

    def fresh_fleet(self) -> Fleet:
        """A new fleet at simulated time 0 sharing the set-up fleet's plans
        and weights (``PlanCache.adopt``: no planning, no materialization)."""
        fleet = new_fleet()
        for worker, source in zip(fleet.workers, self.fleet.workers):
            for key in source.server.cache.keys():
                worker.server.cache.adopt(source.server.cache.peek(key))
        return fleet

    def replay(self, unit: Unit, rate: float, seed: int, **chaos):
        report = timed_rescaled(
            unit.parts, f"{rate:g} rps seed {seed}", PYTHON_PROBE, loadgen.fleet_replay,
            FLEET_GPUS, self.mix, self.n, rate, poisson=True, slo_s=SLO_S,
            admission="degrade", seed=seed, fleet=self.fresh_fleet(), **chaos,
        )
        lost = report.fault_stats.lost if report.fault_stats is not None else 0
        served = len(report.latencies_s)
        unit.check(
            served + report.shed + lost == report.n_requests,
            f"{rate:g} rps: served {served} + shed {report.shed} + lost {lost} "
            f"!= offered {report.n_requests}",
        )
        unit.check(
            report.attained + report.late == served,
            f"{rate:g} rps: attained {report.attained} + late {report.late} "
            f"!= served {served}",
        )
        unit.check(
            all(v >= 0 for v in report.latencies_s), f"{rate:g} rps: negative latency"
        )
        return report

    def run_unit(self) -> Unit:
        unit = Unit()
        seeds = [self.seed * len(self.ladder) + i for i in range(len(self.ladder))]
        reports = [self.replay(unit, rate, s) for rate, s in zip(self.ladder, seeds)]
        self.summarize(unit, reports, capacity=self.capacity(reports, seeds))
        return unit

    def capacity(self, reports, seeds) -> float:
        """The highest offered rate meeting :data:`ATTAINMENT_LIMIT` without a
        growing backlog, interpolated linearly in attainment between the last
        passing rung and the first failing one (the ladder is coarse, and a
        step function would jump between rungs from seed to seed)."""
        passing = [meets(r, s) for r, s in zip(reports, seeds)]
        if not passing[0]:
            return reports[0].rate_rps * reports[0].attainment
        k = passing.index(False) - 1 if False in passing else len(reports) - 1
        if k == len(reports) - 1:
            return reports[k].rate_rps
        lo, hi = reports[k], reports[k + 1]
        frac = (lo.attainment - ATTAINMENT_LIMIT) / (lo.attainment - hi.attainment)
        return lo.rate_rps + min(1.0, frac) * (hi.rate_rps - lo.rate_rps)

    def summarize(self, unit: Unit, reports, capacity: float) -> None:
        lat = sorted(v for r in reports for v in r.latencies_s)
        offered = sum(r.n_requests for r in reports)
        unit.items = offered
        shed_lost = sum(
            r.shed + (r.fault_stats.lost if r.fault_stats is not None else 0)
            for r in reports
        )
        unit.samples = len(lat)
        unit.sim = {
            "sim_p50_ms": loadgen.percentile(lat, 50) * 1e3,
            "sim_p99_ms": loadgen.percentile(lat, 99) * 1e3,
            "sim_capacity_rps": capacity,
            "slo_attainment": sum(r.attained for r in reports) / offered,
            "availability": min(r.availability for r in reports),
            "served_share": (offered - shed_lost - unit.failed) / offered,
        }
        batches = sum(w.batches for r in reports for w in r.per_worker)
        images = sum(w.images_served for r in reports for w in r.per_worker)
        busy = sum(w.busy_s for r in reports for w in r.per_worker)
        window = sum(r.duration_s * len(r.per_worker) for r in reports)
        hits = sum(w.plan_hits for r in reports for w in r.per_worker)
        lookups = hits + sum(w.plan_misses for r in reports for w in r.per_worker)
        unit.layers = {
            "serve.mean_batch": images / batches if batches else 0.0,
            "serve.plan_hit_rate": hits / lookups if lookups else 0.0,
            "serve.worker_busy_share": busy / window,
        }
        stats = [r.fault_stats for r in reports if r.fault_stats is not None]
        if stats:
            hedges = sum(s.hedges for s in stats)
            unit.layers.update({
                "faults.retries": sum(s.retries for s in stats),
                "faults.requeues": sum(s.requeues for s in stats),
                "faults.lost": sum(s.lost for s in stats),
                "faults.hedge_useful_ratio": (
                    sum(s.hedges_won for s in stats) / hedges if hedges else 0.0
                ),
            })
        unit.rungs = [
            (r.rate_rps, r.attainment, r.latency_p50_s * 1e3, r.latency_p99_s * 1e3,
             r.mean_batch, r.shed)
            for r in reports
        ]

    def post(self, unit: Unit) -> None:
        plans = {}
        for worker in self.fleet.workers:
            for model in self.mix:
                key = PlanKey.of(model, DType.FP32, worker.gpu, "paper", 2)
                plans.setdefault(key, worker.server.cache.peek(key))
        unit.sim.update(vs_tvm(plans.values()))


#: chaos_replay runs at the 3000 req/s rung, below the knee, so the faults
#: rather than overload decide what is late or lost.
CHAOS_RATE = 3000.0
#: the workers that crash: the RTX pair, which re-warm from each other.  A
#: GTX or Orin worker has no same-GPU peer, so after a crash it would plan and
#: materialize weights again inside the replay, which is set-up work.
CRASH_WORKERS = (0, 3)
#: mean time between crashes and to recovery, per crashing worker, in
#: simulated seconds
CHAOS_MTBF_S = 0.4
CHAOS_MTTR_S = 0.005
#: one transient batch failure every this many simulated seconds, round
#: robin over the workers; these are what the retry policy retries.
TRANSIENT_EVERY_S = 0.01
#: the fault schedule is part of the scenario, not of the seeded input: a
#: seeded plan would move availability by more than the request stream does.
CHAOS_PLAN_SEED = 7
#: independent streams per unit, each timed as its own part
CHAOS_STREAMS = 2
#: passes over the streams per interpreter.  A repeat keeps its stream's
#: part label, so the run takes each stream's fastest time over passes and
#: interpreters: one pass of three streams spread 10.8% over ten seeds on a
#: 2-core VM, where one stream's host time swung by 2x from pass to pass.
CHAOS_PASSES = 3


class ChaosReplay(ServeReplay):
    """The same fleet and stream with a crash/recover plan and transient
    batch failures armed, budgeted retries, and hedging at the SLO."""

    name = "chaos_replay"

    def __init__(self, seed: int, tiny: bool) -> None:
        super().__init__(seed, tiny)
        self.n = 600 if tiny else 2000

    def run_unit(self) -> Unit:
        unit = Unit()
        duration = self.n / CHAOS_RATE
        crashes = tuple(
            replace(ev, worker=CRASH_WORKERS[ev.worker])
            for ev in FaultPlan.chaos(
                len(CRASH_WORKERS), duration, mtbf_s=CHAOS_MTBF_S, mttr_s=CHAOS_MTTR_S,
                seed=CHAOS_PLAN_SEED,
            ).events
        )
        transients = tuple(
            FaultEvent(t=k * TRANSIENT_EVERY_S, worker=k % len(FLEET_GPUS), kind="transient")
            for k in range(1, int(duration / TRANSIENT_EVERY_S))
        )
        plan = FaultPlan(tuple(sorted(crashes + transients, key=lambda ev: ev.t)))
        # Hedge a request still unserved at its deadline.
        retry = RetryPolicy(max_attempts=3, budget=0.5, hedge_delay_s=SLO_S)
        reports = []
        for rep in range(CHAOS_PASSES):
            for i in range(CHAOS_STREAMS):
                seed = self.seed * CHAOS_STREAMS + i
                report = self.replay(unit, CHAOS_RATE, seed,
                                     faults=plan, retry=retry, probe_s=1e-3)
                if rep == 0:
                    reports.append(report)
                    continue
                first = reports[i]
                unit.check(
                    report.latencies_s == first.latencies_s
                    and report.fault_stats == first.fault_stats,
                    f"seed {seed}: a repeated replay differs from the first",
                )
        # One rate: the capacity figure is the goodput, requests served
        # within the SLO per simulated second.
        goodput = sum(r.attained for r in reports) / sum(r.duration_s for r in reports)
        self.summarize(unit, reports, capacity=goodput)
        return unit


# ---- functional -------------------------------------------------------------


FUNCTIONAL_GPU = RTX_A4000
#: one CNN, one ViT and the heaviest CNN, each at both precisions: INT8 runs
#: its GEMMs as exact float64 BLAS, FP32 as float32.
FUNCTIONAL_MODELS = ("mobilenet_v2", "ceit", "xception")
#: images per request: single images keep a run's three cold processes
#: within the time budget (a batch of 2 doubles the unit, ~5.5 s here).
BATCH = 1


class Functional:
    """Closed loop, one client: fixed-size real-tensor requests through
    ``ModelServer.submit`` on one GPU, each checked against the analytic
    report of the same plan."""

    name = "functional"

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        models = FUNCTIONAL_MODELS[:1] if tiny else FUNCTIONAL_MODELS
        self.configs = [(m, d) for m in models for d in DTYPES]

    def setup(self) -> None:
        self.setup_parts: list[list] = []
        self.server = ModelServer(FUNCTIONAL_GPU)
        self.entries = {}
        self.inputs = {}
        self.shapes = {}
        for i, (model, dtype) in enumerate(self.configs):
            tag = f"{model}/{dtype.value}"
            entry = timed_rescaled(
                self.setup_parts, f"plan {tag}", NUMPY_PROBE,
                self.server.cache.get, model, dtype, FUNCTIONAL_GPU,
            )
            entry.analytic_report(BATCH)  # the reference each batch is checked against
            self.entries[model, dtype] = entry
            self.inputs[model, dtype] = seeded_input(
                entry.graph, dtype, seed=self.seed * 100 + i, batch=BATCH
            )
            # The process's first call is several times slower; users pay it
            # once.  One image per configuration warms it up, and gives the
            # per-image output shape every timed batch must reproduce.
            warm = seeded_input(entry.graph, dtype, seed=self.seed * 100 + 50 + i)
            shape = timed_rescaled(
                self.setup_parts, f"warm {tag}", BLAS_PROBE,
                self.server.submit, model, warm, dtype,
            ).output.shape
            if shape[0] != 1:
                raise RuntimeError(f"{tag}: output shape {shape}")
            self.shapes[model, dtype] = (BATCH,) + shape[1:]

    def run_unit(self) -> Unit:
        unit = Unit()
        lat = []
        for model, dtype in self.configs:
            report = timed_rescaled(
                unit.parts, f"{model}/{dtype.value}", BLAS_PROBE,
                self.server.submit, model, self.inputs[model, dtype], dtype,
            )
            unit.items += BATCH
            self.check(unit, model, dtype, report)
            lat.append(report.latency_s * 1e3)
        unit.samples = len(lat)
        unit.sim = {
            "sim_p50_ms": loadgen.percentile(lat, 50),
            "sim_p99_ms": loadgen.percentile(lat, 99),
            "sim_capacity_rps": unit.items / (sum(lat) / 1e3),
            "slo_attainment": 1.0,
            "availability": 1.0,
            "served_share": (unit.attempted - unit.failed) / unit.attempted,
        }
        return unit

    def check(self, unit: Unit, model: str, dtype: DType, report) -> None:
        tag = f"{model}/{dtype.value}"
        entry = self.entries[model, dtype]
        ref = entry.analytic_report(BATCH)
        out = report.output
        unit.check(
            out is not None and out.shape == self.shapes[model, dtype]
            and bool(np.isfinite(out).all()),
            f"{tag}: output missing, misshaped or not finite",
        )
        same = len(report.records) == len(ref.records) and all(
            a.name == b.name
            and a.counters.total_bytes == b.counters.total_bytes
            and a.counters.macs == b.counters.macs
            and a.time_s == b.time_s
            for a, b in zip(report.records, ref.records)
        )
        unit.check(same, f"{tag}: per-step bytes/MACs/time differ from the analytic report")

    def post(self, unit: Unit) -> None:
        unit.sim.update(vs_tvm(self.entries.values()))


WORKLOADS = {
    cls.name: cls for cls in (PaperSweep, ServeReplay, ChaosReplay, Functional)
}
