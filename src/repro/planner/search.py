"""Tile-size search: enumerate feasible tilings and minimize estimated GMA.

FusePlanner "explores all tile sizes that meet the constraints in Equations
2, 3 and 4 and identifies the ones that minimize the global memory accesses"
(§IV-B), with candidates "restricted to multiples of the warp size to avoid
resource underutilization".  The warp rule applies to a thread block's
*thread count* — the product of the tile dimensions — so late layers with
tiny spatial extents (7x7) can still trade pixels for filters.  Among
feasible configurations, warp-multiple blocks are preferred, then minimum
GMA, then larger tiles (fewer blocks) as the tie-break.

The ``best_*`` searches evaluate the whole candidate grid as array programs
(:mod:`repro.planner.grid_search`); an optional
:class:`repro.planner.memo.GeometryMemo` caches their winners across planner
instances in one process.  The ``scalar_*`` sweeps are
the per-candidate loops the grid search replaced, kept as the oracles the
parity suite compares against (:class:`repro.planner.planner.ScalarPlanner`
plans with them); both return bit-identical :class:`SearchResult` winners.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod
from typing import Iterable, Mapping

from ..core.chain import FusedChain
from ..core.tiling import DwTiling, PwTiling
from ..errors import PlanError
from ..gpu.specs import GpuSpec
from ..ir.layers import ConvKind, ConvSpec
from .chain_costs import FcmCost, chain_feasible, chain_gma, tiling_ladder, tiling_vocabulary
from .costs import dw_feasible, dw_gma, pw_feasible, pw_gma
from .grid_search import chain_grid, lbl_grid, pow2_candidates

__all__ = [
    "SearchResult",
    "best_lbl_tiling",
    "best_chain_tiling",
    "scalar_lbl_tiling",
    "scalar_chain_tiling",
    "enumerate_lbl_tilings",
    "enumerate_chain_tilings",
]


@dataclass(frozen=True)
class SearchResult:
    """Winner of one tile-size sweep."""

    tiling: dict[str, int]
    gma_bytes: int
    redundancy_ratio: float = 0.0


def _pow2_upto(limit: int, minimum: int = 1) -> tuple[int, ...]:
    """Powers of two in [minimum, limit], always including ``limit`` itself."""
    return pow2_candidates(limit, minimum)


def _rank_key(tiling: Mapping[str, int], gma: int, warp: int) -> tuple[int, int, int]:
    """Search ordering: warp-multiple blocks first, then GMA, then big tiles."""
    threads = prod(tiling.values())
    return (0 if threads % warp == 0 else 1, gma, -threads)


def _best(
    scored: Iterable[tuple[tuple[int, int, int], dict[str, int], float]],
) -> SearchResult | None:
    """Pick the minimum-ranked configuration (``None`` if there is none)."""
    best = None
    for key, tiling, redundancy in scored:
        if best is None or key < best[0]:
            best = (key, tiling, redundancy)
    if best is None:
        return None
    return SearchResult(tiling=best[1], gma_bytes=best[0][1], redundancy_ratio=best[2])


def _grid_best(grid, gpu: GpuSpec) -> SearchResult | None:
    """A grid's winner under the same rank order (``None`` if none feasible)."""
    win = grid.best(gpu.warp_size)
    if win is None:
        return None
    return SearchResult(tiling=win[0], gma_bytes=win[1], redundancy_ratio=win[2])


def _feasible_lbl(res: SearchResult | None, spec: ConvSpec, gpu: GpuSpec) -> SearchResult:
    if res is None:
        raise PlanError(
            f"{spec.name}: no feasible LBL tiling on {gpu.name} "
            f"(L1 {gpu.l1_kb}KiB, {gpu.sm_count} SMs)"
        )
    return res


def enumerate_lbl_tilings(spec: ConvSpec, gpu: GpuSpec) -> list[dict[str, int]]:
    """All *feasible* LBL tiling dicts for one DW/PW layer, in sweep order.

    The grid the planner minimizes over — and the candidate space the
    :mod:`repro.tune` measurement harness searches by observed cost.
    """
    out: list[dict[str, int]] = []
    if spec.kind is ConvKind.POINTWISE:
        out_hw = spec.out_h * spec.out_w
        for tm in _pow2_upto(spec.out_channels):
            for thw in _pow2_upto(out_hw, minimum=4):
                if pw_feasible(spec, PwTiling(tm, thw), gpu):
                    out.append({"tile_m": tm, "tile_hw": thw})
    elif spec.kind is ConvKind.DEPTHWISE:
        for tc in _pow2_upto(spec.in_channels):
            for th in _pow2_upto(spec.out_h):
                for tw in _pow2_upto(spec.out_w):
                    if dw_feasible(spec, DwTiling(tc, th, tw), gpu):
                        out.append({"tile_c": tc, "tile_h": th, "tile_w": tw})
    else:
        raise PlanError(f"{spec.name}: LBL search supports only DW/PW layers")
    return out


def best_lbl_tiling(
    spec: ConvSpec,
    gpu: GpuSpec,
    convention: str = "paper",
    *,
    memo=None,
) -> SearchResult:
    """Minimize Eq. 2 / Eq. 3 over the feasible tile grid for one layer.

    ``memo`` is an optional :class:`repro.planner.memo.GeometryMemo`
    consulted before searching.
    """
    def search() -> SearchResult | None:
        return _grid_best(lbl_grid(spec, gpu, convention), gpu)

    if memo is None:
        res = search()
    else:
        res = memo.get_or_search(memo.lbl_key(spec, gpu, convention), search)
    return _feasible_lbl(res, spec, gpu)


def scalar_lbl_tiling(spec: ConvSpec, gpu: GpuSpec, convention: str = "paper") -> SearchResult:
    """:func:`best_lbl_tiling` as the scalar per-candidate sweep (the oracle)."""
    scored: list[tuple[tuple[int, int, int], dict[str, int], float]] = []
    for d in enumerate_lbl_tilings(spec, gpu):
        if spec.kind is ConvKind.POINTWISE:
            gma = pw_gma(spec, PwTiling(d["tile_m"], d["tile_hw"]), convention).total_bytes
        else:
            gma = dw_gma(
                spec, DwTiling(d["tile_c"], d["tile_h"], d["tile_w"]), convention
            ).total_bytes
        scored.append((_rank_key(d, gma, gpu.warp_size), d, 0.0))
    return _feasible_lbl(_best(scored), spec, gpu)


def _tiling_candidates(chain: FusedChain, keys: tuple[str, ...]) -> list[dict[str, int]]:
    """Every pow2 candidate of one tiling vocabulary, in sweep order (the
    last key varies fastest, as the grid search's C-order does)."""
    keys = tiling_vocabulary(chain, keys)
    ladders = [_pow2_upto(*tiling_ladder(chain, k)) for k in keys]
    return [dict(zip(keys, vals)) for vals in product(*ladders)]


def enumerate_chain_tilings(
    chain: FusedChain, keys: tuple[str, ...], gpu: GpuSpec
) -> list[dict[str, int]]:
    """All *feasible* tiling dicts of one fused chain in one vocabulary, in
    sweep order."""
    return [t for t in _tiling_candidates(chain, keys) if chain_feasible(chain, t, gpu)]


def best_chain_tiling(
    chain: FusedChain,
    keys: tuple[str, ...],
    gpu: GpuSpec,
    convention: str = "paper",
    *,
    memo=None,
) -> SearchResult | None:
    """Minimize the chain estimator over one vocabulary's feasible tile grid.

    Powers of two per tile axis, warp-multiple thread blocks preferred,
    minimum GMA, then larger tiles.  ``keys`` is one of the chain's
    vocabularies (:func:`~repro.planner.chain_costs.chain_vocabularies`):
    an FCM's for a length-2 chain, the chain keys (``tile_h``/``tile_w``
    on the final output plus ``tile_m`` when the last stage is pointwise)
    beyond.  Returns ``None`` when no tiling satisfies the fused
    constraints — the module is infeasible on this GPU at this precision
    (paper §IV-B: "PWPW fusion is less likely when the weights use FP32").
    ``None`` outcomes are memoized too when a ``memo`` is supplied.
    """
    def search() -> SearchResult | None:
        return _grid_best(chain_grid(chain, keys, gpu, convention), gpu)

    if memo is None:
        return search()
    return memo.get_or_search(memo.chain_key(chain, keys, gpu, convention), search)


def scalar_chain_tiling(
    chain: FusedChain, keys: tuple[str, ...], gpu: GpuSpec, convention: str = "paper"
) -> SearchResult | None:
    """:func:`best_chain_tiling` as the scalar per-candidate sweep (the oracle)."""
    scored: list[tuple[tuple[int, int, int], dict[str, int], float]] = []
    for tiling in enumerate_chain_tilings(chain, keys, gpu):
        cost: FcmCost = chain_gma(chain, tiling, convention)
        scored.append(
            (
                _rank_key(tiling, cost.gma.total_bytes, gpu.warp_size),
                dict(tiling),
                cost.redundancy_ratio,
            )
        )
    return _best(scored)
