"""End-to-end inference sessions: ours (FCM + LBL plan) and the TVM baseline.

Both sessions execute the *same* materialized network
(:mod:`repro.runtime.network_params`), so outputs are comparable numerically;
they differ exactly where the paper's systems differ:

* ours runs FusePlanner's plan — fused FCM kernels where suggested, tuned
  LBL kernels elsewhere, shared cuDNN-modelled kernels for standard convs,
  and pays for residual-add glue;
* the TVM session runs every conv through its tuned cuDNN-backend algorithm
  and gets residual adds for free (injective fusion).

Every entry point of both sessions is one walk over the plan that prices
each step with :func:`step_record`.  The functional walk (``run``,
``run_batch``) pushes real tensors through the simulated kernels and prices
DW/PW steps from the counters those kernels metered; the analytic walk
(``run_analytic``, ``run_analytic_batch``) materializes nothing and prices
them from the measured-convention estimators, whose global bytes, MACs and
re-reads equal the metered ones exactly — so the large end-to-end sweeps
get the same per-step latency in milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..baselines.cudnn import CudnnAlgo, cudnn_batched, run_cudnn
from ..baselines.tvm import TvmConvStep, TvmGlueStep, TvmPlan
from ..core.dtypes import DType
from ..errors import PlanError, ShapeError
from ..gpu.counters import AccessCounters
from ..gpu.energy import energy_of
from ..gpu.fastpath import DEFAULT_ENGINE
from ..gpu.roofline import time_kernel
from ..gpu.specs import GpuSpec
from ..ir.graph import ModelGraph
from ..kernels.registry import build_chain_kernel, build_lbl_kernel
from ..planner.analytic import chain_counters, lbl_counters
from ..planner.plan import ChainStep, ExecutionPlan, LblStep, PlanStep, StdStep
from .glue import apply_glue, glue_counters
from .network_params import NetworkParams, materialize_network

__all__ = [
    "StepRecord",
    "SessionReport",
    "step_record",
    "InferenceSession",
    "TvmSession",
    "build_session",
    "reference_run",
    "seeded_input",
]

#: cuDNN algorithm of our standard-conv steps (TVM's carry their tuned one).
_STD_ALGO = CudnnAlgo.IMPLICIT_PRECOMP_GEMM


@dataclass(frozen=True)
class StepRecord:
    """Per-step accounting: traffic, time, energy, boundedness."""

    name: str
    kind: str  # 'fcm' | 'lbl' | 'std' | 'glue' | 'tvm-conv'
    counters: AccessCounters
    time_s: float
    energy_j: float
    bound: str


@dataclass
class SessionReport:
    """Aggregated result of one end-to-end inference (optionally batched).

    ``batch_size > 1`` means every record describes a *batched* launch — one
    kernel covering the whole batch — and ``output`` carries a leading batch
    dimension.  ``latency_s`` is then the batch's wall time; the per-image
    views (:attr:`throughput_img_s`, :attr:`energy_per_image_j`) are what the
    serving layer reports.

    A report is built from its finished records: the totals are summed once,
    in record order, when it is constructed (serving re-reads the memoized
    analytic reports' latency on every routing and flush decision).
    """

    model_name: str
    gpu: GpuSpec
    dtype: DType
    records: tuple[StepRecord, ...] = ()
    output: np.ndarray | None = None
    batch_size: int = 1

    def __post_init__(self) -> None:
        self._latency_s = sum(r.time_s for r in self.records)
        self._energy_j = sum(r.energy_j for r in self.records)
        self._total_gma_bytes = sum(r.counters.total_bytes for r in self.records)
        self._kernel_launches = sum(r.counters.kernel_launches for r in self.records)

    @property
    def latency_s(self) -> float:
        return self._latency_s

    @property
    def latency_per_image_s(self) -> float:
        return self.latency_s / self.batch_size

    @property
    def throughput_img_s(self) -> float:
        """Images per second at this batch size (batch wall time amortized)."""
        return self.batch_size / self.latency_s

    @property
    def energy_per_image_j(self) -> float:
        return self.energy_j / self.batch_size

    @property
    def energy_j(self) -> float:
        return self._energy_j

    @property
    def total_gma_bytes(self) -> int:
        return self._total_gma_bytes

    @property
    def kernel_launches(self) -> int:
        return self._kernel_launches

    def describe(self) -> str:
        batch = f" batch={self.batch_size}" if self.batch_size > 1 else ""
        return (
            f"{self.model_name} on {self.gpu.name} ({self.dtype}{batch}): "
            f"{self.latency_s * 1e3:.3f} ms, {self.energy_j * 1e3:.3f} mJ, "
            f"{self.total_gma_bytes / 1e6:.2f} MB GMA, "
            f"{self.kernel_launches} kernel launches"
        )


def _cudnn_launch(step: StdStep | TvmConvStep) -> dict:
    """Algorithm (and blocking) of a library conv step: TVM's tuned pair, or
    :data:`_STD_ALGO` at the library's default blocking."""
    if isinstance(step, TvmConvStep):
        return {"algo": step.algo, "gemm_tile": step.gemm_tile}
    return {"algo": _STD_ALGO}


def step_record(
    step: PlanStep | TvmConvStep | TvmGlueStep,
    gpu: GpuSpec,
    dtype: DType,
    batch: int = 1,
    counters: AccessCounters | None = None,
) -> StepRecord:
    """Price one plan step launched once over ``batch`` images.

    The one pricer of both sessions and of the tuning harness.  A DW/PW step
    takes ``counters`` — what its kernel metered on a functional walk — or
    else the measured-convention estimators' (:func:`chain_counters`,
    :func:`lbl_counters`), through the roofline.  Library convs (our standard
    convs and every TVM conv) price through :func:`cudnn_batched`, glue
    through :func:`glue_counters` (free when TVM fused it).
    """
    timing = None
    if isinstance(step, ChainStep):
        name, kind = "+".join(step.layer_names), "fcm"
        if counters is None:
            counters = chain_counters(step.specs, step.tiling).batched(
                batch, sum(sp.weights_bytes for sp in step.specs)
            )
    elif isinstance(step, LblStep):
        name, kind = step.spec.name, "lbl"
        if counters is None:
            counters = lbl_counters(step.spec, step.tiling).batched(
                batch, step.spec.weights_bytes
            )
    elif isinstance(step, (StdStep, TvmConvStep)):
        name, kind = step.spec.name, "std" if isinstance(step, StdStep) else "tvm-conv"
        counters, timing = cudnn_batched(
            step.spec, gpu=gpu, batch=batch, **_cudnn_launch(step)
        )
    else:
        name, kind = step.spec.name, "glue"
        fused = isinstance(step, TvmGlueStep) and step.fused
        counters = glue_counters(step.spec, dtype, fused=fused).batched(batch)
    if timing is None:
        timing = time_kernel(counters, gpu, dtype)
    energy = energy_of(counters, timing, gpu, dtype)
    return StepRecord(
        name=name, kind=kind, counters=counters, time_s=timing.t_total_s,
        energy_j=energy.total_j, bound=timing.bound,
    )


def _unbatched(report: SessionReport) -> SessionReport:
    """A batch-of-one report with the batch dimension dropped from its output."""
    if report.output is not None:
        report.output = report.output[0]
    return report


class _PlanSession:
    """A plan over a materialized network, and the one walk that runs it."""

    def __init__(
        self,
        graph: ModelGraph,
        plan: ExecutionPlan | TvmPlan,
        params: NetworkParams | None = None,
        seed: int = 0,
    ) -> None:
        self.graph = graph
        self.plan = plan
        self.gpu = plan.gpu
        self.dtype = plan.dtype
        self.params = params if params is not None else materialize_network(
            graph, plan.dtype, seed
        )
        if self.params.dtype is not plan.dtype:
            raise PlanError("network params precision differs from the plan's")

    def _walk(
        self,
        batch: int,
        batch_input: np.ndarray | None = None,
        engine: str = DEFAULT_ENGINE,
    ) -> SessionReport:
        """Price every plan step once; with ``batch_input`` also execute it.

        The functional walk runs each step over the whole batch as one
        launch — DW/PW kernels on ``engine``, library convs and glue through
        their reference ops image by image — and prices DW/PW steps from the
        counters their kernels metered.  Without ``batch_input`` nothing is
        materialized and :func:`step_record` prices every step analytically.
        """
        if batch < 1:
            raise PlanError(f"batch_size must be >= 1, got {batch}")
        params, gpu, dtype = self.params, self.gpu, self.dtype
        records: list[StepRecord] = []
        values: dict[str, np.ndarray] = {}
        for step in self.plan.steps:
            metered = None
            if batch_input is not None:
                specs = step.specs if isinstance(step, ChainStep) else (step.spec,)
                preds = self.graph.predecessors(specs[0].name)
                inputs = [values.get(p, batch_input) for p in preds] or [batch_input]
                if isinstance(step, (ChainStep, LblStep)):
                    kernel = (
                        build_chain_kernel([params[sp.name] for sp in specs], step.tiling)
                        if isinstance(step, ChainStep)
                        else build_lbl_kernel(params[step.spec.name], step.tiling)
                    )
                    res = kernel.simulate_batch(inputs[0], gpu, engine)
                    out, metered = res.output, res.counters
                elif isinstance(step, (StdStep, TvmConvStep)):
                    launch = _cudnn_launch(step)
                    out = np.stack([
                        run_cudnn(params[step.spec.name], ifm, gpu=gpu, **launch)[0]
                        for ifm in inputs[0]
                    ])
                else:
                    scales = [params.out_scales.get(p) for p in preds]
                    out = np.stack([
                        apply_glue(step.spec, [x[i] for x in inputs], scales, dtype)[0]
                        for i in range(batch)
                    ])
                values[specs[-1].name] = out
            records.append(step_record(step, gpu, dtype, batch, metered))
        output = None
        if batch_input is not None:
            output = values.get([s.name for s in self.graph.topological()][-1])
        return SessionReport(
            self.plan.model_name, gpu, dtype, tuple(records), output, batch_size=batch
        )


def _batch_size(batch_input: np.ndarray) -> int:
    if batch_input.ndim != 4:
        raise ShapeError(
            f"run_batch expects (batch, C, H, W), got shape {batch_input.shape}"
        )
    return batch_input.shape[0]


class InferenceSession(_PlanSession):
    """Execute a FusePlanner :class:`ExecutionPlan` end to end.

    DW/PW simulated kernels run each grid as one vectorized pass with bulk
    counter accounting; :func:`reference_run` replays a batch on the
    per-block engine they are checked against.
    """

    # ---- functional execution -------------------------------------------------
    def run(self, input_array: np.ndarray) -> SessionReport:
        """Run one image (no batch dim) through the simulated kernels per the
        plan: a batch of one through :meth:`run_batch`, output unbatched."""
        return _unbatched(self.run_batch(input_array[None]))

    def run_batch(self, batch_input: np.ndarray) -> SessionReport:
        """Run a stack of inputs (leading batch dim) through batched launches.

        Per step the whole batch goes through one kernel launch: per-image
        traffic and compute scale with the batch while launch overhead is paid
        once and cross-image weight re-streams are served from L2 (see
        :meth:`~repro.gpu.counters.AccessCounters.batched`).  Outputs are
        numerically identical to running each image alone.
        """
        return self._walk(_batch_size(batch_input), batch_input)

    # ---- analytic execution -----------------------------------------------------
    # Neither analytic entry point calls another public one, so a wrapper
    # around any of them sees each report exactly once.
    def run_analytic(self) -> SessionReport:
        """Counters-only execution via the measured-convention estimators.

        Per-step bytes, MACs, re-reads and latency equal the functional run
        exactly; no tensors are materialized, so full-size models sweep in
        milliseconds.
        """
        return self._walk(1)

    def run_analytic_batch(self, batch_size: int) -> SessionReport:
        """Counters-only batched execution (the serving fast path).

        Per-step bytes, MACs, re-reads and latency equal :meth:`run_batch`
        exactly, with no tensors materialized — one call per (plan, batch
        size) prices a whole micro-batch in microseconds.
        """
        return self._walk(batch_size)


def build_session(
    model: str,
    gpu: GpuSpec,
    dtype: DType = DType.FP32,
    *,
    max_chain: int = 2,
    seed: int = 0,
) -> InferenceSession:
    """Plan ``model`` on ``gpu`` and build a ready session (its weights are
    generated on the first functional run).

    The build-graph -> plan -> materialize -> session scaffold every
    functional entry point needs (CLI ``run``, ``make profile``, the kernel
    benches); keep them on this one helper so the setup can't drift apart.
    """
    from ..models.zoo import build_model
    from ..planner.planner import FusePlanner

    graph = build_model(model, dtype)
    plan = FusePlanner(gpu, max_chain=max_chain).plan(graph)
    params = materialize_network(graph, dtype, seed)
    return InferenceSession(graph, plan, params)


def reference_run(session: InferenceSession, batch_input: np.ndarray) -> SessionReport:
    """:meth:`InferenceSession.run_batch` with every DW/PW kernel on the
    per-block ``"reference"`` engine — the oracle the fast path must match:
    identical records down to the counters, outputs at dtype tolerance."""
    return session._walk(_batch_size(batch_input), batch_input, "reference")


def seeded_input(graph: ModelGraph, dtype: DType, seed: int = 0, batch: int = 1) -> np.ndarray:
    """Deterministic random input matching the graph's first layer.

    ``batch > 1`` prepends a batch dimension (for :meth:`InferenceSession.
    run_batch`); INT8 graphs get full-range int8 samples, FP32 standard
    normals.
    """
    shape = next(iter(graph.topological())).ifm.shape
    if batch > 1:
        shape = (batch,) + shape
    rng = np.random.default_rng(seed)
    if dtype is DType.INT8:
        return rng.integers(-128, 128, shape).astype(np.int8)
    return rng.standard_normal(shape).astype(np.float32)


class TvmSession(_PlanSession):
    """Execute a :class:`TvmPlan` (cuDNN-backend per-layer, fused adds)."""

    def run(self, input_array: np.ndarray) -> SessionReport:
        """Functional execution of one image (reference ops + cuDNN
        accounting): a batch of one, output unbatched."""
        return _unbatched(self._walk(1, input_array[None]))

    def run_analytic(self) -> SessionReport:
        """Counters-only execution of the TVM plan."""
        return self._walk(1)
