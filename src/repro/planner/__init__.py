"""FusePlanner: cost models (paper Eq. 1-4), tile search, and the DAG planner."""

from .chain_costs import FcmCost, chain_feasible, chain_footprints, chain_gma, chain_tiling_keys
from .costs import (
    GmaEstimate,
    dw_feasible,
    dw_gma,
    dw_tile_footprint,
    lbl_gma,
    loaded_axis_elems,
    pw_feasible,
    pw_gma,
    pw_tile_footprint,
)
from .grid_search import TilingGrid, chain_grid, lbl_grid, pow2_candidates
from .memo import GeometryMemo, shared_memo
from .plan import ChainStep, ExecutionPlan, GlueStep, LblStep, StdStep
from .planner import CandidateReport, ChainDecision, FusePlanner, ScalarPlanner
from .search import (
    SearchResult,
    best_chain_tiling,
    best_lbl_tiling,
    scalar_chain_tiling,
    scalar_lbl_tiling,
)

__all__ = [
    "GmaEstimate",
    "dw_feasible",
    "dw_gma",
    "dw_tile_footprint",
    "lbl_gma",
    "loaded_axis_elems",
    "pw_feasible",
    "pw_gma",
    "pw_tile_footprint",
    "FcmCost",
    "chain_feasible",
    "chain_footprints",
    "chain_gma",
    "chain_tiling_keys",
    "ExecutionPlan",
    "ChainStep",
    "GlueStep",
    "LblStep",
    "StdStep",
    "FusePlanner",
    "ScalarPlanner",
    "ChainDecision",
    "CandidateReport",
    "SearchResult",
    "best_chain_tiling",
    "best_lbl_tiling",
    "scalar_chain_tiling",
    "scalar_lbl_tiling",
    "TilingGrid",
    "lbl_grid",
    "chain_grid",
    "pow2_candidates",
    "GeometryMemo",
    "shared_memo",
]
