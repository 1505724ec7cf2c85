"""Execution-plan data structures — FusePlanner's output.

A plan lists, in topological order, the steps an inference session executes:
fused chain steps (two or more convs, one kernel), layer-by-layer conv
steps, and glue steps (residual adds, pooling, ...).  Each conv-bearing step
carries the tile sizes and the estimated GMA that justified the decision
(paper Fig. 5's "FCMs / LBL" output box, generalized to chains).

:class:`ChainStep` is the fused step of any length; a length-2 step's
pairwise :class:`~repro.core.fcm.FcmType` is read off its stage kinds and
tiling keys, never stored apart from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..core.dtypes import DType
from ..core.fcm import FcmType
from ..gpu.specs import GpuSpec
from ..ir.graph import GlueSpec
from ..ir.layers import ConvSpec
from .chain_costs import fcm_type_of

__all__ = [
    "LblStep",
    "ChainStep",
    "GlueStep",
    "StdStep",
    "ExecutionPlan",
    "lbl_family",
    "chain_family",
    "step_family",
]


@dataclass(frozen=True)
class LblStep:
    """One unfused DW or PW convolution with its chosen tiling."""

    spec: ConvSpec
    tiling: dict[str, int]
    est_gma_bytes: int

    @property
    def layer_names(self) -> tuple[str, ...]:
        return (self.spec.name,)


@dataclass(frozen=True)
class ChainStep:
    """One fused module: a chain of convolutions executed as a single kernel.

    ``fcm_type`` is derived, not passed: the pairwise taxonomy type the
    stage kinds and tiling keys speak
    (:func:`~repro.planner.chain_costs.fcm_type_of`), ``None`` for longer
    chains, which use the chain vocabulary (``tile_h``/``tile_w``[/``tile_m``]).
    """

    specs: tuple[ConvSpec, ...]
    tiling: dict[str, int]
    est_gma_bytes: int
    est_lbl_gma_bytes: int  # what the member layers would cost unfused
    redundancy_ratio: float
    fcm_type: FcmType | None = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "fcm_type", fcm_type_of(self.specs, self.tiling))

    @property
    def length(self) -> int:
        return len(self.specs)

    @property
    def first(self) -> ConvSpec:
        return self.specs[0]

    @property
    def second(self) -> ConvSpec:
        return self.specs[1]

    @property
    def layer_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.specs)

    @property
    def label(self) -> str:
        """Human-readable module label: FCM type name or the stage kinds."""
        if self.fcm_type is not None:
            return self.fcm_type.name
        return "-".join(s.kind.short.upper() for s in self.specs)

    @property
    def est_savings_bytes(self) -> int:
        return self.est_lbl_gma_bytes - self.est_gma_bytes


@dataclass(frozen=True)
class StdStep:
    """A standard convolution (stem/exit layers) — outside FCM scope.

    Executed identically by our runtime and the baselines so end-to-end
    comparisons isolate the DW/PW treatment.
    """

    spec: ConvSpec


@dataclass(frozen=True)
class GlueStep:
    """A non-convolutional node carried through for end-to-end accounting."""

    spec: GlueSpec


PlanStep = LblStep | ChainStep | StdStep | GlueStep


def lbl_family(spec: ConvSpec) -> str:
    """Kernel-family name of one layer-by-layer kernel (``lbl-dw``/``lbl-pw``)."""
    return f"lbl-{spec.kind.short}"


def chain_family(specs: Sequence[ConvSpec], tiling: Mapping[str, int]) -> str:
    """Kernel-family name of one fused module: ``fcm-<type>`` for a pair
    whose tiling speaks an FCM, ``chain-<N>`` otherwise."""
    fcm_type = fcm_type_of(specs, tiling)
    if fcm_type is not None:
        return f"fcm-{fcm_type.name.lower()}"
    return f"chain-{len(specs)}"


def step_family(step: PlanStep) -> str:
    """Canonical kernel-family name of one plan step.

    The vocabulary both the calibration fit (:mod:`repro.tune`) and the
    calibrated planner group corrections by: ``lbl-dw`` / ``lbl-pw``,
    ``fcm-<type>`` for pairwise fused modules, ``chain-<N>`` for longer
    chains, ``std`` and ``glue`` for the shared non-DW/PW steps.  The
    planner's cost hooks and the measurement harness both resolve names
    through :func:`lbl_family` / :func:`chain_family`, so the vocabulary
    has exactly one owner.
    """
    if isinstance(step, ChainStep):
        return chain_family(step.specs, step.tiling)
    if isinstance(step, LblStep):
        return lbl_family(step.spec)
    if isinstance(step, StdStep):
        return "std"
    return "glue"


@dataclass
class ExecutionPlan:
    """FusePlanner's decision for one model on one GPU at one precision."""

    model_name: str
    gpu: GpuSpec
    dtype: DType
    steps: list[PlanStep] = field(default_factory=list)

    # ---- summaries ----------------------------------------------------------
    @property
    def fcm_steps(self) -> list[ChainStep]:
        """Fused steps of any length."""
        return [s for s in self.steps if isinstance(s, ChainStep)]

    @property
    def lbl_steps(self) -> list[LblStep]:
        return [s for s in self.steps if isinstance(s, LblStep)]

    @property
    def num_fused_layers(self) -> int:
        """DW/PW conv layers executing inside a fused chain."""
        return sum(s.length for s in self.fcm_steps)

    @property
    def num_conv_layers(self) -> int:
        """DW/PW conv layers covered by the plan (a chain counts its stages)."""
        return self.num_fused_layers + len(self.lbl_steps)

    @property
    def fused_layer_fraction(self) -> float:
        """Fraction of DW/PW layers executing inside an FCM (paper: 46-58%)."""
        n = self.num_conv_layers
        return (self.num_fused_layers / n) if n else 0.0

    @property
    def max_chain_length(self) -> int:
        """Longest fused chain in the plan (0 when nothing fused)."""
        return max((s.length for s in self.fcm_steps), default=0)

    @property
    def est_total_gma_bytes(self) -> int:
        total = 0
        for s in self.steps:
            if isinstance(s, (LblStep, ChainStep)):
                total += s.est_gma_bytes
        return total

    @property
    def est_savings_bytes(self) -> int:
        """Estimated GMA saved versus the all-LBL plan."""
        return sum(s.est_savings_bytes for s in self.fcm_steps)

    def describe(self) -> str:
        """Multi-line human-readable plan summary."""
        lines = [
            f"ExecutionPlan[{self.model_name} on {self.gpu.name}, {self.dtype}]:"
        ]
        for s in self.steps:
            if isinstance(s, ChainStep):
                lines.append(
                    f"  FCM {s.label:8s} {'+'.join(s.layer_names)} "
                    f"tiles={s.tiling} gma={s.est_gma_bytes}B "
                    f"(saves {s.est_savings_bytes}B, redund {s.redundancy_ratio:.1%})"
                )
            elif isinstance(s, LblStep):
                lines.append(
                    f"  LBL {s.spec.kind.short:3s}     {s.spec.name} "
                    f"tiles={s.tiling} gma={s.est_gma_bytes}B"
                )
            elif isinstance(s, StdStep):
                lines.append(f"  STD         {s.spec.name}")
            else:
                lines.append(f"  GLUE        {s.spec.name} ({s.spec.op})")
        lines.append(
            f"  -> {len(self.fcm_steps)} FCMs, {len(self.lbl_steps)} LBL layers, "
            f"fused fraction {self.fused_layer_fraction:.0%}, "
            f"est GMA {self.est_total_gma_bytes} B"
        )
        return "\n".join(lines)
