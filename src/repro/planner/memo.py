"""Cross-model geometry memo: tile searches keyed by what they depend on.

Zoo models repeat geometries heavily — MobileNetV2's inverted residuals
reuse a handful of (channels, extent, stride) shapes, and *different* models
share stem/head shapes too.  :class:`repro.planner.planner.FusePlanner`
already memoizes per instance (``_lbl_cache`` / ``_chain_cache``); this
module lifts that to a process-wide, in-memory store shared across planner
instances (the serving fleet builds one planner per worker).  It is never
saved: a fresh process starts with an empty memo.

Only the two *search* families are memoized — ``best_lbl_tiling`` and
``best_chain_tiling`` (one entry per chain and tiling vocabulary) — at two
levels, because a search is a GPU-independent table plus a per-GPU pick
(:mod:`repro.planner.grid_search`):

* a **table** per (layer or chain geometry with dtype, tiling vocabulary):
  every candidate's GMA, MACs, footprints and block count, which the cost
  models price from the geometry alone.  It is built on the first search
  of that geometry on *any* GPU and serves every later one;
* a **winner** per (that geometry, GPU capacity limits): the table's pick
  on one GPU, ``None`` when nothing fits.  ``hits``, ``misses`` and
  ``len(memo)`` count winners only.

Every search ranks in the paper cost convention.  Arbitration between a
chain's vocabularies and the run-partitioning DP are deliberately *not*
memoized here: those decisions are calibration-dependent and stay in the
planner.  The scalar oracles (``scalar_*_tiling``) never read or fill a
memo, so the parity suite always compares a real sweep against the grid
search.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (search uses memos)
    from .grid_search import TileTable
    from .search import SearchResult

__all__ = ["GeometryMemo", "shared_memo", "spec_key"]


def spec_key(spec) -> tuple:
    """Everything a tile search reads from one layer: geometry + precision,
    as plain strings and ints (cheap to hash, unlike enum members)."""
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
    """Process-wide keyed store of candidate tables and tile-search winners
    (``None`` = infeasible).

    Infeasible outcomes are memoized too — re-proving that PWPW does not fit
    at FP32 for every model that asks costs as much as finding a winner.
    """

    def __init__(self) -> None:
        self._store: dict[tuple, "SearchResult | None"] = {}
        #: candidate tables by geometry key (a winner key's first element).
        self._tables: dict[tuple, "TileTable"] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._store)

    def clear(self) -> None:
        self._store.clear()
        self._tables.clear()
        self.hits = 0
        self.misses = 0

    # ---- keys ----------------------------------------------------------------
    # A winner key is (geometry key, GPU key); the geometry key alone keys
    # the table every GPU's winner is picked from.
    def lbl_key(self, spec, gpu) -> tuple:
        return (("lbl", spec_key(spec)), _gpu_key(gpu))

    def chain_key(self, chain, keys, gpu) -> tuple:
        return (("chain", tuple(keys), tuple(map(spec_key, chain.specs))), _gpu_key(gpu))

    def table(self, key: tuple, build: Callable[[], "TileTable"]) -> "TileTable":
        """The candidate table behind winner ``key`` (:meth:`lbl_key`,
        :meth:`chain_key`), built by ``build`` on first request and shared
        by every GPU's search of that geometry."""
        geometry = key[0]
        table = self._tables.get(geometry)
        if table is None:
            table = self._tables[geometry] = build()
        return table

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
