"""Kernel base class and launch results.

Simulated kernels follow the structure of the paper's FCM skeleton
(Listing 1): per thread block they (1) allocate shared buffers, (2) prefetch
weight tiles, (3) compute the first conv-norm-act into the commBuffer, and
(4) compute the second from it.  LBL kernels are the degenerate single-stage
case.  :meth:`SimKernel.simulate` runs the grid on one of two engines and
returns both the functional output and the launch's counters and
statistics.  The fast engine computes every kernel the same way, one
whole-tensor pass per stage (:meth:`SimKernel.forward`): a fused kernel
changes where its intermediates live, not what it computes.  A launch's
counters have one model, :mod:`repro.planner.analytic`
(:meth:`SimKernel.model_counters`): the fast engine reports it, and the
reference engine meters it block by block over instrumented global buffers.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.dtypes import DType
from ..core.ops import exact_matmul
from ..errors import ShapeError
from ..gpu.counters import AccessCounters
from ..gpu.energy import EnergyBreakdown, energy_of
from ..gpu.executor import LaunchStats, launch
from ..gpu.fastpath import grid_depthwise, resolve_engine
from ..gpu.memory import GlobalBuffer, SharedMemory
from ..gpu.roofline import KernelTiming, time_kernel
from ..gpu.specs import GpuSpec
from ..ir.layers import ConvKind
from .params import LayerParams

__all__ = ["KernelResult", "SimKernel"]


@dataclass(frozen=True)
class KernelResult:
    """Everything one simulated launch produced."""

    output: np.ndarray
    counters: AccessCounters
    stats: LaunchStats
    gpu: GpuSpec
    dtype: DType

    def timing(self) -> KernelTiming:
        """Roofline timing of the launch on the result's GPU."""
        return time_kernel(self.counters, self.gpu, self.dtype)

    @property
    def time_s(self) -> float:
        """End-to-end launch latency — the cost the tuning harness records."""
        return self.timing().t_total_s

    def energy(self) -> EnergyBreakdown:
        """Energy of the launch on the result's GPU."""
        return energy_of(self.counters, self.timing(), self.gpu, self.dtype)


class SimKernel(abc.ABC):
    """A simulated GPU kernel: a grid of blocks over the layers it fuses.

    Every kernel runs on both execution engines (both produce one
    :class:`KernelResult`) and defines the model of its counters; a
    subclass missing its per-block program or its model cannot be built:

    * ``"fast"`` (default) — :meth:`forward`, one whole-tensor pass per
      stage, which only computes; the launch reports the model's counters
      (:meth:`model_counters`) and shared-memory peak
      (:meth:`model_shared_peak`);
    * ``"reference"`` — the per-block interpreted launch of
      :meth:`run_block` over the buffers :meth:`bind` instruments, through
      :func:`repro.gpu.executor.launch`, which meters every block's loads,
      stores, commBuffer traffic and MACs: the independent check on the
      model.  Only what no block can see comes from the model: which MACs
      recompute a halo, and which reads revisit a tensor the roofline may
      serve from L2.
    """

    #: kernel name used in reports and error messages.
    name: str
    #: storage precision of feature maps and weights.
    dtype: DType
    #: the layers the kernel runs, in order: one for an LBL kernel, the
    #: chain's for a fused one.
    stages: Sequence[LayerParams]

    @abc.abstractmethod
    def grid(self) -> Sequence[tuple[int, ...]]:
        """Block coordinates of the launch grid."""

    @abc.abstractmethod
    def bind(self, ifm: np.ndarray, counters: AccessCounters) -> None:
        """Wrap inputs/outputs/weights into instrumented global buffers for a
        reference launch."""

    @abc.abstractmethod
    def run_block(self, coord: tuple[int, ...], shared: SharedMemory) -> None:
        """Execute one thread block against the bound buffers."""

    @abc.abstractmethod
    def output_array(self) -> np.ndarray:
        """The OFM array after a reference launch."""

    @abc.abstractmethod
    def model_counters(self) -> AccessCounters:
        """The measured model's counters of one launch
        (:func:`~repro.planner.analytic.lbl_counters` or
        :func:`~repro.planner.analytic.chain_counters`)."""

    def model_shared_peak(self) -> int:
        """The model's peak per-block shared-memory bytes of one launch
        (0: direct kernels keep everything in registers / L1)."""
        return 0

    def weight_bytes(self) -> int:
        """Bytes of every stage's weight tensors at storage precision.

        Batch-invariant traffic: a batched launch streams weights once from
        DRAM and re-reads them from L2 for the remaining images (see
        :meth:`~repro.gpu.counters.AccessCounters.batched`).
        """
        return sum(p.spec.weights_bytes for p in self.stages)

    def check_capacity(self, gpu: GpuSpec) -> None:
        """Validate the L1 working-set constraint before launching.

        Kernels override this with their Eq. 2/3/4 tile-footprint check; the
        shared-memory portion is additionally enforced at runtime by
        :class:`~repro.gpu.memory.SharedMemory`.
        """

    # ---- common machinery -------------------------------------------------
    def make_buffer(
        self, name: str, array: np.ndarray, kind: str, counters: AccessCounters
    ) -> GlobalBuffer:
        """Instrumented buffer at the kernel's storage width."""
        return GlobalBuffer(name, array, kind, counters, elem_bytes=self.dtype.nbytes)

    def _memo_grid(self, build) -> Sequence[tuple[int, ...]]:
        """Materialize the launch grid once per kernel instance.

        A kernel's geometry is fixed at construction, yet every launch used
        to rebuild the coordinate list from scratch — measurable overhead
        for batch loops re-simulating the same instance.
        """
        cached = getattr(self, "_grid_cache", None)
        if cached is None:
            cached = build()
            self._grid_cache = cached
        return cached

    def forward(self, ifm: np.ndarray) -> np.ndarray:
        """The fast engine's launch: the whole grid as one pass per stage.

        A DW stage convolves the whole plane (:func:`grid_depthwise`), a PW
        stage multiplies its filters into the strided pixels
        (:func:`~repro.core.ops.exact_matmul`), and each stage's epilogue
        feeds the next; the last one writes into a fresh output array.  The
        tiling decides where a fused kernel keeps its intermediates, not what
        it computes, so the pass ignores it, and it counts nothing: the
        launch reports :meth:`model_counters`.
        """
        acc_t = self.dtype.acc_dtype
        x = ifm
        last = len(self.stages) - 1
        for i, params in enumerate(self.stages):
            spec = params.spec
            if spec.kind is ConvKind.DEPTHWISE:
                acc = grid_depthwise(
                    window=x,
                    weights=params.weights,
                    rows_out=spec.out_h,
                    cols_out=spec.out_w,
                    row_off=spec.padding,
                    col_off=spec.padding,
                    kernel=spec.kernel,
                    stride=spec.stride,
                    acc_dtype=acc_t,
                )
            else:
                s = spec.stride
                pixels = np.ascontiguousarray(x[:, ::s, ::s]).reshape(spec.in_channels, -1)
                acc = exact_matmul(params.weights, pixels, acc_t).reshape(spec.ofm.shape)
            out = np.empty(spec.ofm.shape, self.dtype.np_dtype) if i == last else None
            x = params.epilogue.apply(acc, 0, spec.out_channels, self.dtype, out=out)
        return x

    def _launch(
        self, ifm: np.ndarray, gpu: GpuSpec, counters: AccessCounters, engine: str
    ) -> tuple[np.ndarray, LaunchStats]:
        """Run one launch on ``engine``: its output and stats.  Only the
        reference engine binds buffers and counts (into ``counters``)."""
        if engine == "reference":
            self.bind(ifm, counters)
            stats = launch(self, gpu, counters)
            return self.output_array(), stats
        blocks = len(self.grid())
        return self.forward(ifm), LaunchStats(
            kernel_name=self.name,
            num_blocks=blocks,
            peak_shared_bytes=self.model_shared_peak(),
            waves=-(-blocks // gpu.sm_count),
        )

    def simulate(
        self, ifm: np.ndarray, gpu: GpuSpec, engine: str | None = None
    ) -> KernelResult:
        """Run the kernel on ``ifm`` and return output + metered statistics.

        ``engine`` selects the execution path (``"fast"`` by default,
        ``"reference"`` for the per-block interpreted launch); outputs are
        allclose at dtype tolerance and counters/stats exactly equal (see
        the class docstring for where each engine's counters come from).
        """
        engine = resolve_engine(engine)
        if ifm.dtype != self.dtype.np_dtype:
            raise ShapeError(
                f"{self.name}: IFM dtype {ifm.dtype} does not match kernel {self.dtype}"
            )
        expected = self.stages[0].spec.ifm.shape
        if ifm.shape != expected:
            raise ShapeError(f"{self.name}: IFM shape {ifm.shape} != {expected}")
        counters = AccessCounters()
        self.check_capacity(gpu)
        output, stats = self._launch(ifm, gpu, counters, engine)
        model = self.model_counters()
        if engine == "fast":
            counters.merge(model)
        else:
            counters.macs -= model.redundant_macs
            counters.redundant_macs += model.redundant_macs
            counters.rereads.extend(model.rereads)
        return KernelResult(
            output=output,
            counters=counters,
            stats=stats,
            gpu=gpu,
            dtype=self.dtype,
        )

    def simulate_batch(
        self, ifms: np.ndarray, gpu: GpuSpec, engine: str | None = None
    ) -> KernelResult:
        """Run a stack of IFMs (leading batch dimension) as one batched launch.

        Functionally each image flows through the same simulated grid; the
        returned counters describe the single batched launch — one kernel
        launch total, per-image traffic/compute scaled by the batch, and the
        cross-image weight re-streams annotated for L2 absorption.  The
        output keeps the leading batch dimension.

        Batched counters are the first image's totals scaled by the batch
        (see :meth:`AccessCounters.batched` — asserted in the test suite),
        so only image 0 is counted; the remaining images execute
        functionally against scratch counters, each output copied into the
        batch array.
        """
        if ifms.ndim < 2 or ifms.shape[0] < 1:
            raise ShapeError(f"{self.name}: batched IFM needs a leading batch dim")
        engine = resolve_engine(engine)
        n = ifms.shape[0]
        first = self.simulate(ifms[0], gpu, engine)
        out = np.empty((n,) + first.output.shape, dtype=first.output.dtype)
        out[0] = first.output
        scratch = AccessCounters()
        for i in range(1, n):
            out[i] = self._launch(ifms[i], gpu, scratch, engine)[0]
        counters = first.counters.batched(n, self.weight_bytes())
        return KernelResult(
            output=out,
            counters=counters,
            stats=first.stats,
            gpu=gpu,
            dtype=self.dtype,
        )
