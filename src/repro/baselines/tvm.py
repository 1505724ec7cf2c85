"""TVM-like end-to-end compiler baseline (paper §V-C).

The paper's strongest end-to-end comparator is TVM with the cuDNN backend:
it fuses each convolution with its trailing normalization/activation (but
never conv with conv), auto-tunes for 20 iterations, and applies graph-level
optimizations that our conv-conv-fused runtime does not (most relevantly,
folding elementwise residual adds into producer kernels — the reason the
paper sees TVM closest on complex-DAG models and our largest win on the
linear MobileNetV1, §VI-C).

``TvmCompiler`` reproduces that surface: per conv layer it tunes over
(algorithm x GEMM blocking) candidates with :func:`random_search`, and its
plan marks add-glue as free (fused).  ``TvmSession``-style execution lives in
:mod:`repro.runtime.session` via the shared step abstractions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from ..core.dtypes import DType
from ..gpu.roofline import time_kernel  # noqa: F401  (perfbench/tracing.py patches this binding)
from ..gpu.specs import GpuSpec
from ..ir.graph import GlueSpec, ModelGraph
from ..ir.layers import ConvSpec
from .autotune import random_search
from .cudnn import CudnnAlgo, cudnn_timing, layer_geometry

__all__ = ["TvmConvStep", "TvmGlueStep", "TvmPlan", "TvmCompiler"]


@dataclass(frozen=True)
class TvmConvStep:
    """One conv layer as TVM executes it: tuned cuDNN-backend kernel."""

    spec: ConvSpec
    algo: CudnnAlgo
    gemm_tile: int
    tuned_cost_s: float


@dataclass(frozen=True)
class TvmGlueStep:
    """A non-conv node; ``fused`` add-glue costs no extra traffic under TVM."""

    spec: GlueSpec
    fused: bool


@dataclass
class TvmPlan:
    """Compiled TVM execution plan for one model/GPU/precision."""

    model_name: str
    gpu: GpuSpec
    dtype: DType
    steps: list[TvmConvStep | TvmGlueStep] = field(default_factory=list)

    @property
    def conv_steps(self) -> list[TvmConvStep]:
        return [s for s in self.steps if isinstance(s, TvmConvStep)]

    def describe(self) -> str:
        lines = [f"TvmPlan[{self.model_name} on {self.gpu.name}, {self.dtype}]"]
        for s in self.steps:
            if isinstance(s, TvmConvStep):
                lines.append(
                    f"  CONV {s.spec.name}: {s.algo.value} tile={s.gemm_tile} "
                    f"t={s.tuned_cost_s * 1e6:.1f}us"
                )
            else:
                tag = "fused" if s.fused else "kernel"
                lines.append(f"  GLUE {s.spec.name} ({s.spec.op}, {tag})")
        return "\n".join(lines)


class TvmCompiler:
    """Graph compiler with conv+elementwise fusion and 20-iteration auto-tuning.

    A tuning depends only on the layer's geometry, precision and the GPU, so
    it is shared process-wide at two levels: the nine candidates' batch-1
    cuDNN tallies are derived once per geometry, for every GPU
    (:func:`repro.baselines.cudnn.cudnn_batched` reads them), and layers of
    one geometry, in any model, are tuned once per GPU (:func:`_tuned`),
    each GPU timing every candidate.
    """

    #: GEMM output-tile blockings the tuner may pick.
    TILE_CANDIDATES = (32, 64, 128)

    def __init__(self, gpu: GpuSpec) -> None:
        self.gpu = gpu

    def tune_layer(self, spec: ConvSpec) -> TvmConvStep:
        """Pick (algorithm, blocking) minimizing modelled latency."""
        algo, tile, cost = _tuned(layer_geometry(spec), self.gpu)
        return TvmConvStep(spec=spec, algo=algo, gemm_tile=tile, tuned_cost_s=cost)

    def compile(self, graph: ModelGraph, dtype: DType | None = None) -> TvmPlan:
        """Compile a model: tune every conv, fuse elementwise glue.

        Without ``dtype`` the plan takes the graph's own precision (FP32 for
        a graph without conv layers).
        """
        graph.validate()
        if dtype is not None:
            plan_dtype = dtype
        else:
            plan_dtype = graph.dtype if graph.dtype is not None else DType.FP32
        plan = TvmPlan(model_name=graph.name, gpu=self.gpu, dtype=plan_dtype)
        for spec in graph.topological():
            if isinstance(spec, GlueSpec):
                # TVM's injective-fusion folds residual adds into producers.
                plan.steps.append(TvmGlueStep(spec=spec, fused=spec.op == "add"))
                continue
            conv = spec.with_dtype(dtype) if dtype is not None else spec
            plan.steps.append(self.tune_layer(conv))
        return plan


@lru_cache(maxsize=None)
def _tuned(geometry: tuple, gpu: GpuSpec) -> tuple[CudnnAlgo, int, float]:
    """(algorithm, blocking, cost) of one layer geometry on one GPU.

    ``geometry`` is :func:`~repro.baselines.cudnn.layer_geometry`: all that
    :func:`cudnn_timing` reads.
    """
    spec = ConvSpec("", *geometry)
    candidates = [(algo, tile) for algo in CudnnAlgo for tile in TvmCompiler.TILE_CANDIDATES]

    def evaluate(cfg: tuple[CudnnAlgo, int]) -> float:
        algo, tile = cfg
        return cudnn_timing(spec, algo, gpu, gemm_tile=tile).t_total_s

    # The paper's 20 iterations cover all 9 candidates: the search is
    # exhaustive, so no seed ever reaches it.
    (algo, tile), cost, _evaluated = random_search(candidates, evaluate, 20)
    return algo, tile, cost
