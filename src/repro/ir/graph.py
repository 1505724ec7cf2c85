"""Model DAG: an ordered graph of :class:`~repro.ir.layers.ConvSpec` nodes.

The paper's FusePlanner consumes "a DAG representing a model or set of layers,
their weight and FM specifications, and the layers connectivity" (§IV).  The
DAG is built in dataflow order, so its insertion order is its topological
order, and what the planner derives from it (validation, fusion runs) is
derived once per graph.  Non-convolutional glue (residual adds, pooling,
classifier) is carried as opaque :class:`GlueSpec` nodes so end-to-end
sessions account for them identically in ours and the baselines' executions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..core.dtypes import DType
from ..errors import ShapeError
from .layers import ConvKind, ConvSpec

__all__ = ["GlueSpec", "ModelGraph", "FusionCandidate"]


@dataclass(frozen=True)
class GlueSpec:
    """Non-convolutional node (residual add, pooling, flatten, dense...).

    These execute identically in all compared implementations; they carry just
    enough information (output bytes moved) for end-to-end accounting.
    """

    name: str
    op: str
    out_elements: int
    flops: int = 0


@dataclass(frozen=True)
class FusionCandidate:
    """A producer->consumer conv pair eligible for FCM fusion."""

    first: ConvSpec
    second: ConvSpec

    @property
    def pair_kinds(self) -> tuple[str, str]:
        return (self.first.kind.short, self.second.kind.short)


class ModelGraph:
    """A directed acyclic graph of model layers.

    Nodes are layer names; each carries either a :class:`ConvSpec` or a
    :class:`GlueSpec`.  Edges follow dataflow.  :meth:`add` only wires a
    layer after layers that already exist, so insertion order is a
    topological order and the graph can never hold a cycle.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        # Insertion-ordered; every list is kept in insertion position order.
        self._specs: dict[str, ConvSpec | GlueSpec] = {}
        self._pos: dict[str, int] = {}
        self._preds: dict[str, list[str]] = {}
        self._succs: dict[str, list[str]] = {}
        # Derived once per graph, dropped by the next add().
        self._validated = False
        self._runs: list[list[ConvSpec]] | None = None

    # ---- construction ------------------------------------------------------
    def add(self, spec: ConvSpec | GlueSpec, after: str | list[str] | None = None) -> str:
        """Add a layer, optionally wiring it after one or more existing layers.

        Returns the layer name for chaining.  By default the new node is wired
        after the most recently added node (linear model building).  A
        predecessor listed twice is one edge.
        """
        name = spec.name
        if name in self._specs:
            raise ShapeError(f"duplicate layer name {name!r} in model {self.name!r}")
        preds: list[str]
        if after is None:
            preds = [next(reversed(self._specs))] if self._specs else []
        elif isinstance(after, str):
            preds = [after]
        else:
            preds = list(after)
        for p in preds:
            if p not in self._specs:
                raise ShapeError(f"unknown predecessor {p!r} for layer {name!r}")
        preds = sorted(set(preds), key=self._pos.__getitem__)
        self._pos[name] = len(self._specs)
        self._specs[name] = spec
        self._preds[name] = preds
        self._succs[name] = []
        for p in preds:
            self._succs[p].append(name)
        self._validated = False
        self._runs = None
        return name

    # ---- access -----------------------------------------------------------
    def spec(self, name: str) -> ConvSpec | GlueSpec:
        try:
            return self._specs[name]
        except KeyError:
            raise ShapeError(f"no layer named {name!r} in model {self.name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def __len__(self) -> int:
        return len(self._specs)

    @property
    def dtype(self) -> DType | None:
        """Precision of the first conv layer (``None`` without conv layers)."""
        return next((s.dtype for s in self._specs.values() if isinstance(s, ConvSpec)), None)

    def topological(self) -> Iterator[ConvSpec | GlueSpec]:
        """Specs in a deterministic topological order: insertion order."""
        return iter(self._specs.values())

    def conv_layers(self) -> list[ConvSpec]:
        """All convolutional layers in topological order."""
        return [s for s in self._specs.values() if isinstance(s, ConvSpec)]

    def successors(self, name: str) -> list[str]:
        self.spec(name)
        return list(self._succs[name])

    def predecessors(self, name: str) -> list[str]:
        self.spec(name)
        return list(self._preds[name])

    # ---- validation ---------------------------------------------------------
    def validate(self) -> None:
        """Check conv-to-conv shape compatibility along edges.

        Runs once per graph and again only after a further :meth:`add`.
        """
        if self._validated:
            return
        for u, succs in self._succs.items():
            su = self._specs[u]
            if not isinstance(su, ConvSpec):
                continue
            for v in succs:
                sv = self._specs[v]
                if isinstance(sv, ConvSpec) and (su.out_channels, su.out_h, su.out_w) != (
                    sv.in_channels,
                    sv.in_h,
                    sv.in_w,
                ):
                    raise ShapeError(
                        f"shape mismatch on edge {u}->{v}: "
                        f"{su.out_channels}x{su.out_h}x{su.out_w} vs "
                        f"{sv.in_channels}x{sv.in_h}x{sv.in_w}"
                    )
        self._validated = True

    # ---- fusion candidates ---------------------------------------------------
    def fusion_candidates(self) -> list[FusionCandidate]:
        """Conv pairs eligible for FCM fusion (paper Fig. 4).

        A pair qualifies when the producer is a DW or PW conv whose *only*
        consumer is the DW/PW conv that follows it (fusing a multi-consumer
        intermediate would force recomputation for the other consumers), and
        the pair is one of DW->PW, PW->DW, PW->PW.
        """
        return [
            FusionCandidate(first=run[i], second=run[i + 1])
            for run in self.fusion_runs()
            for i in range(len(run) - 1)
        ]

    def _chainable_edge(self, name: str) -> str | None:
        """Successor of ``name`` it could fuse with, or ``None``.

        The edge qualifies when the producer is a DW/PW conv whose *only*
        consumer is a DW/PW conv with no other producer, and the pair is not
        DW->DW.
        """
        first = self._specs[name]
        if not isinstance(first, ConvSpec) or first.kind is ConvKind.STANDARD:
            return None
        succ = self._succs[name]
        if len(succ) != 1:
            return None
        second = self._specs[succ[0]]
        if not isinstance(second, ConvSpec) or second.kind is ConvKind.STANDARD:
            return None
        if len(self._preds[succ[0]]) != 1:
            return None
        if (first.kind, second.kind) == (ConvKind.DEPTHWISE, ConvKind.DEPTHWISE):
            return None
        return succ[0]

    def fusion_runs(self) -> list[list[ConvSpec]]:
        """Maximal linear runs of chainable DW/PW convs, in topological order.

        Each run is a path ``v1 -> v2 -> ... -> vn`` where every edge is a
        legal fusion adjacency (see :meth:`_chainable_edge`); consecutive
        pairs within runs are exactly :meth:`fusion_candidates`, and runs of
        length ``>= 3`` are the chain planner's search space.  Every
        chainable edge leaves its endpoints with one eligible in- and
        out-edge at most, so runs are disjoint simple paths and the
        decomposition is unique.  Derived once per graph and again only
        after a further :meth:`add`.
        """
        if self._runs is None:
            next_of: dict[str, str] = {}
            for name in self._specs:
                nxt = self._chainable_edge(name)
                if nxt is not None:
                    next_of[name] = nxt
            has_prev = set(next_of.values())
            self._runs = []
            for name in self._specs:
                if name in has_prev or name not in next_of:
                    continue
                run = [name]
                while run[-1] in next_of:
                    run.append(next_of[run[-1]])
                self._runs.append([self._specs[n] for n in run])
        return [list(run) for run in self._runs]
