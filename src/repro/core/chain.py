"""FusedChain IR: an arbitrary-length run of DW/PW convolutions fused as one kernel.

The paper's FCMs fuse exactly two convolutions; its GMA cost model extends
naturally to longer chains (cross-layer reuse work fuses three and more
layers to keep intermediates on-chip).  A :class:`FusedChain` is the ordered
list of convolution stages one fused kernel executes: every intermediate
feature map lives in shared-memory commBuffers and never touches global
memory.  Each stage keeps its own epilogue (norm + activation +
requantization), so a chain of N convolutions folds up to ``3N`` layers.

Legality mirrors the pairwise rules (paper §III) stage by stage:

* every stage is DW or PW (standard convolutions are never chain members);
* adjacent stages must connect shape- and dtype-wise;
* DW->DW adjacency is rejected (it never occurs in the paper's networks);
* only the *first* stage may read a strided/halo'd window straight from
  global memory without recomputation — any later DW stage forces halo
  recomputation of every stage before it, exactly the PWDW_R redundancy
  generalized.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ShapeError
# repro: allow[RPR004] chain IR composes ConvSpec geometry; the core<->ir
# split predates chain fusion and ir.layers never imports back into core.chain
from ..ir.layers import ConvKind, ConvSpec

__all__ = ["FusedChain", "composed_receptive_field"]

@dataclass(frozen=True)
class FusedChain:
    """An ordered, shape-checked run of DW/PW conv stages fused into one kernel."""

    specs: tuple[ConvSpec, ...]

    def __post_init__(self) -> None:
        if len(self.specs) < 2:
            raise ShapeError("a fused chain needs at least two stages")
        for spec in self.specs:
            if spec.kind not in (ConvKind.DEPTHWISE, ConvKind.POINTWISE):
                raise ShapeError(
                    f"chain stage {spec.name!r} is {spec.kind.value}; "
                    "only DW/PW layers fuse"
                )
        first = self.specs[0]
        for prev, cur in zip(self.specs, self.specs[1:]):
            if prev.kind is cur.kind is ConvKind.DEPTHWISE:
                raise ShapeError(
                    f"illegal {prev.kind.short}->{cur.kind.short} adjacency "
                    f"({prev.name}->{cur.name})"
                )
            if (prev.out_channels, prev.out_h, prev.out_w) != (
                cur.in_channels,
                cur.in_h,
                cur.in_w,
            ):
                raise ShapeError(
                    f"chain: {prev.name} output does not feed {cur.name} input"
                )
            if prev.dtype is not first.dtype or cur.dtype is not first.dtype:
                raise ShapeError("all chain stages must share one precision")

    # ---- structure ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self.specs)

    @property
    def length(self) -> int:
        return len(self.specs)

    @property
    def first(self) -> ConvSpec:
        return self.specs[0]

    @property
    def last(self) -> ConvSpec:
        return self.specs[-1]

    @property
    def dtype(self):
        return self.specs[0].dtype

    @property
    def kinds(self) -> str:
        """Stage kinds as a label, e.g. ``'pw-dw-pw'``."""
        return "-".join(s.kind.short for s in self.specs)

    @property
    def layer_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.specs)

    @property
    def name(self) -> str:
        return "+".join(self.layer_names)

    @property
    def macs(self) -> int:
        """Useful MACs: every stage output computed exactly once."""
        return sum(s.macs for s in self.specs)

    @property
    def weights_elements(self) -> int:
        return sum(s.weights_elements for s in self.specs)

    @property
    def weights_bytes(self) -> int:
        return sum(s.weights_bytes for s in self.specs)

    @property
    def has_interior_halo(self) -> bool:
        """Whether any non-first stage is a DW (forcing halo recomputation)."""
        return any(s.kind is ConvKind.DEPTHWISE for s in self.specs[1:])

    def sub(self, start: int, stop: int) -> "FusedChain":
        """Sub-chain ``specs[start:stop]`` (must keep >= 2 stages)."""
        return FusedChain(self.specs[start:stop])

    def describe(self) -> str:
        head = self.specs[0]
        return (
            f"chain[{self.kinds}] {self.name} "
            f"{head.in_channels}ch {head.in_h}x{head.in_w} {head.dtype}"
        )


def composed_receptive_field(
    specs: tuple[ConvSpec, ...] | list[ConvSpec],
) -> tuple[int, int]:
    """Effective ``(kernel, stride)`` of a stage run, composed front to back.

    One output pixel of the run's last stage depends on a ``k_eff x k_eff``
    window of the run's input, and adjacent output pixels are ``s_eff`` input
    pixels apart — the standard receptive-field composition.  A single stage
    returns its own ``(kernel, stride)``; pure-PW runs return ``(1, 1)``
    (times the strides).
    """
    k_eff, jump = 1, 1
    for spec in specs:
        k_eff += (spec.kernel - 1) * jump
        jump *= spec.stride
    return k_eff, jump
