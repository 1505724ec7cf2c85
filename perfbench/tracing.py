"""In-memory timing spans around the public entry points of each layer.

A traced run patches every name in :data:`PATCHES` where its caller looks
it up: a function imported with ``from x import f`` is a separate binding in
each importing module, so each binding is listed and wrapped; methods are
wrapped on their class.  Spans (name, start, end, parent) are kept in
memory; :meth:`Recorder.dump` writes them out when the process ends.  Self
time is a span's duration minus the part of it its child spans cover.

Only the benchmark's own process is patched: the program's source is never
touched, and an untraced run imports nothing from this module.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

__all__ = ["PATCHES", "KERNEL_CLASSES", "Recorder", "install", "layer_metrics", "span_table"]

#: the seven kernel classes the registry builds; each is timed separately so
#: a change to one kernel family (e.g. the PW GEMM) shows where it lands.
KERNEL_CLASSES = (
    "DwDirectKernel",
    "PwDirectKernel",
    "DwPwFusedKernel",
    "PwDwFusedKernel",
    "PwDwRFusedKernel",
    "PwPwFusedKernel",
    "FusedChainKernel",
)

#: (span name, module, attribute path).  One span name may cover several
#: bindings of the same function.
PATCHES: tuple[tuple[str, str, str], ...] = (
    ("ir.build_model", "repro.models.zoo", "build_model"),
    ("ir.build_model", "repro.serve.cache", "build_model"),
    ("ir.build_model", "repro.experiments.fig10_fig11", "build_model"),
    ("planner.plan", "repro.planner.planner", "FusePlanner.plan"),
    ("baselines.tvm_compile", "repro.baselines.tvm", "TvmCompiler.compile"),
    ("baselines.cudnn_run", "repro.runtime.session", "run_cudnn"),
    ("runtime.materialize", "repro.runtime.network_params", "materialize_network"),
    ("runtime.materialize", "repro.runtime.session", "materialize_network"),
    ("runtime.materialize", "repro.serve.cache", "materialize_network"),
    ("runtime.analytic", "repro.runtime.session", "InferenceSession.run_analytic"),
    ("runtime.analytic_batch", "repro.runtime.session", "InferenceSession.run_analytic_batch"),
    ("runtime.run_batch", "repro.runtime.session", "InferenceSession.run_batch"),
    ("runtime.glue", "repro.runtime.session", "apply_glue"),
    ("gpu.roofline", "repro.runtime.session", "time_kernel"),
    ("gpu.roofline", "repro.kernels.base", "time_kernel"),
    ("gpu.roofline", "repro.baselines.cudnn", "time_kernel"),
    ("gpu.roofline", "repro.baselines.tvm", "time_kernel"),
    ("serve.submit", "repro.serve.server", "ModelServer.submit"),
    ("serve.route", "repro.serve.fleet", "FleetScheduler.route"),
    ("serve.queue_cost", "repro.serve.server", "ModelServer.estimated_queue_cost_s"),
    ("serve.step", "repro.serve.fleet", "Fleet.step"),
    ("serve.next_deadline", "repro.serve.fleet", "Fleet.next_deadline"),
    ("serve.admission", "repro.serve.admission", "AdmissionController.decide"),
    ("serve.preplan", "repro.serve.fleet", "Fleet.preplan"),
    ("serve.loadgen", "repro.serve.loadgen", "fleet_replay"),
    ("faults.process", "repro.serve.faults", "FaultInjector.process"),
    ("experiments.fig10_11", "repro.experiments.fig10_fig11", "figure10_11"),
) + tuple(
    (f"kernels.{cls}.simulate_batch", "repro.kernels", f"{cls}.simulate_batch")
    for cls in KERNEL_CLASSES
)

#: spans kept per process for the written trace; aggregates cover every call.
MAX_SPANS = 50_000


class Recorder:
    """Span stack plus per-name aggregates (calls, total and self seconds)."""

    def __init__(self) -> None:
        self.enabled = True
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple[str, float, float, str | None]] = []
        #: open spans: [name, start, seconds covered by children]
        self._stack: list[list] = []
        #: every SessionReport an InferenceSession produced, and every
        #: result a Fleet.step flushed (the simulated per-layer figures).
        self.reports: list = []
        self.flushed: list = []

    def wrap(self, name: str, fn):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                self.calls[name] += 1
                self.total_s[name] += dur
                self.self_s[name] += dur - frame[2]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += dur
                if len(self.spans) < MAX_SPANS:
                    self.spans.append(
                        (name, frame[1], end, parent[0] if parent is not None else None)
                    )

        return traced

    def count_property(self, name: str, prop: property) -> property:
        getter = prop.fget

        def counted(obj):
            if self.enabled:
                self.counts[name] += 1
            return getter(obj)

        return property(counted, prop.fset, prop.fdel, prop.__doc__)

    def dump(self, path) -> None:
        """Write the kept spans as JSON lines (name, start, end, parent)."""
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def install() -> Recorder:
    """Patch every entry point in :data:`PATCHES`; returns the recorder."""
    rec = Recorder()
    for name, module, attr in PATCHES:
        owner, leaf = _resolve(module, attr)
        setattr(owner, leaf, rec.wrap(name, getattr(owner, leaf)))
    session = importlib.import_module("repro.runtime.session")
    report_cls = session.SessionReport
    report_cls.latency_s = rec.count_property(
        "runtime.report_latency", report_cls.__dict__["latency_s"]
    )
    # Keep what the simulated per-layer figures are computed from.
    for attr in ("run_analytic", "run_analytic_batch", "run_batch"):
        _keep_results(rec, session.InferenceSession, attr, rec.reports.append)
    fleet = importlib.import_module("repro.serve.fleet")
    _keep_results(rec, fleet.Fleet, "step", rec.flushed.extend)
    return rec


#: spans reported as per-layer metrics ``<span>_s`` (inclusive seconds) and
#: ``<span>_calls``.
TIMED_LAYERS = (
    "ir.build_model",
    "planner.plan",
    "runtime.materialize",
    "runtime.analytic_batch",
    "runtime.glue",
    "baselines.tvm_compile",
    "baselines.cudnn_run",
    "gpu.roofline",
    "serve.route",
    "serve.queue_cost",
    "serve.step",
    "serve.next_deadline",
    "serve.admission",
    "faults.process",
) + tuple(f"kernels.{cls}.simulate_batch" for cls in KERNEL_CLASSES)
STEP_KINDS = ("fcm", "lbl", "std", "glue")
#: per-layer figures the workload itself reports (0 where it has none).
UNIT_LAYERS = (
    "serve.mean_batch",
    "serve.plan_hit_rate",
    "serve.worker_busy_share",
    "faults.retries",
    "faults.requeues",
    "faults.lost",
    "faults.hedge_useful_ratio",
)


def layer_metrics(rec: Recorder, unit_layers: dict, memo) -> dict[str, float]:
    """Every per-layer metric of one traced process (set-up and unit)."""
    from repro.serve.loadgen import percentile

    out: dict[str, float] = {}
    for span in TIMED_LAYERS:
        out[f"{span}_s"] = rec.total_s.get(span, 0.0)
        out[f"{span}_calls"] = rec.calls.get(span, 0)
    out["serve.loadgen_self_s"] = rec.self_s.get("serve.loadgen", 0.0)
    out["runtime.report_latency_calls"] = rec.counts.get("runtime.report_latency", 0)
    lookups = memo.hits + memo.misses
    out["planner.memo_hit_rate"] = memo.hits / lookups if lookups else 0.0
    for name in UNIT_LAYERS:
        out[name] = unit_layers.get(name, 0)
    waits = [r.wait_s for _worker, r in rec.flushed]
    out["serve.queue_wait_ms_p99"] = percentile(waits, 99) * 1e3 if waits else 0.0
    step_us = dict.fromkeys(STEP_KINDS, 0.0)
    gma_mb = dict.fromkeys(STEP_KINDS, 0.0)
    steps = mem_bound = 0
    for report in rec.reports:
        for r in report.records:
            step_us[r.kind] += r.time_s * 1e6
            gma_mb[r.kind] += r.counters.total_bytes / 1e6
            steps += 1
            mem_bound += r.bound == "M"
    for kind in STEP_KINDS:
        out[f"sim.step_us.{kind}"] = step_us[kind]
        out[f"sim.gma_mb.{kind}"] = gma_mb[kind]
    out["sim.mem_bound_share"] = mem_bound / steps if steps else 0.0
    return out


def span_table(rec: Recorder) -> dict[str, list]:
    """name -> [calls, total seconds, self seconds] for every span name."""
    return {
        name: [rec.calls[name], rec.total_s[name], rec.self_s[name]]
        for name in sorted(rec.calls)
    }


def _keep_results(rec: Recorder, cls, attr: str, sink) -> None:
    fn = getattr(cls, attr)

    def keeping(*args, **kwargs):
        result = fn(*args, **kwargs)
        if rec.enabled:
            sink(result)
        return result

    setattr(cls, attr, keeping)
