"""Cross-model geometry memo: tile searches keyed by what they depend on.

Zoo models repeat geometries heavily — MobileNetV2's inverted residuals
reuse a handful of (channels, extent, stride) shapes, and *different* models
share stem/head shapes too.  :class:`repro.planner.planner.FusePlanner`
already memoizes per instance (``_lbl_cache`` / ``_chain_cache``); this
module lifts that to a process-wide, in-memory store shared across planner
instances (the serving fleet builds one planner per worker).  It is never
saved: a fresh process starts with an empty memo.

Only the two *search* families are memoized — ``best_lbl_tiling`` and
``best_chain_tiling`` (one entry per chain and tiling vocabulary) — because
their winners depend solely on (geometry, dtype, GPU limits, cost
convention).  Arbitration between a chain's vocabularies and the
run-partitioning DP are deliberately *not* memoized here: those decisions
are calibration-dependent and stay in the planner.
The scalar oracles (``scalar_*_tiling``) never read or fill a memo, so the
parity suite always compares a real sweep against the grid search.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (search uses memos)
    from .search import SearchResult

__all__ = ["GeometryMemo", "shared_memo"]


def _spec_key(spec) -> tuple:
    """Everything a tile search reads from one layer: geometry + precision."""
    return (
        spec.kind.short,
        spec.in_channels,
        spec.out_channels,
        spec.in_h,
        spec.in_w,
        spec.kernel,
        spec.stride,
        spec.padding,
        spec.dtype.value,
    )


def _gpu_key(gpu) -> tuple:
    """Everything a tile search reads from the GPU: capacity limits only."""
    return (gpu.name, gpu.sm_count, gpu.l1_kb, gpu.shared_kb, gpu.warp_size)


class GeometryMemo:
    """Process-wide keyed store of tile-search winners (``None`` = infeasible).

    Infeasible outcomes are memoized too — re-proving that PWPW does not fit
    at FP32 for every model that asks costs as much as finding a winner.
    """

    def __init__(self) -> None:
        self._store: dict[tuple, "SearchResult | None"] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._store)

    def clear(self) -> None:
        self._store.clear()
        self.hits = 0
        self.misses = 0

    # ---- keys ----------------------------------------------------------------
    def lbl_key(self, spec, gpu, convention: str) -> tuple:
        return ("lbl", _spec_key(spec), _gpu_key(gpu), convention)

    def chain_key(self, chain, keys, gpu, convention: str) -> tuple:
        return (
            "chain",
            tuple(keys),
            tuple(map(_spec_key, chain.specs)),
            _gpu_key(gpu),
            convention,
        )

    # ---- lookup ---------------------------------------------------------------
    def get_or_search(
        self, key: tuple, search: Callable[[], "SearchResult | None"]
    ) -> "SearchResult | None":
        """Return the memoized result, running ``search`` on first miss.

        A ``search`` that raises stores nothing (e.g. an infeasible-LBL
        PlanError carries the layer *name*, which is not part of the
        geometry key and must not be replayed for an unrelated layer).
        """
        if key in self._store:
            self.hits += 1
            return self._store[key]
        self.misses += 1
        value = search()
        self._store[key] = value
        return value


#: The process-wide default memo every FusePlanner shares unless handed its
#: own (tests pass fresh instances; worker processes each grow their own).
_SHARED = GeometryMemo()


def shared_memo() -> GeometryMemo:
    return _SHARED
