"""FusePlanner: cost models (paper Eq. 1-4), tile search, and the DAG planner."""

from .chain_costs import chain_feasible, chain_footprints, chain_gma, chain_tiling_keys
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
from .fcm_costs import FcmCost, fcm_feasible, fcm_footprints, fcm_gma
from .grid_search import TilingGrid, chain_grid, fcm_grid, lbl_grid, pow2_candidates
from .memo import GeometryMemo, shared_memo
from .plan import ChainStep, ExecutionPlan, FcmStep, GlueStep, LblStep, StdStep
from .planner import CandidateReport, ChainDecision, FusePlanner, FusionDecision, ScalarPlanner
from .search import (
    SearchResult,
    best_chain_tiling,
    best_fcm_tiling,
    best_lbl_tiling,
    scalar_chain_tiling,
    scalar_fcm_tiling,
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
    "fcm_feasible",
    "fcm_footprints",
    "fcm_gma",
    "chain_feasible",
    "chain_footprints",
    "chain_gma",
    "chain_tiling_keys",
    "ExecutionPlan",
    "ChainStep",
    "FcmStep",
    "GlueStep",
    "LblStep",
    "StdStep",
    "FusePlanner",
    "ScalarPlanner",
    "FusionDecision",
    "ChainDecision",
    "CandidateReport",
    "SearchResult",
    "best_chain_tiling",
    "best_fcm_tiling",
    "best_lbl_tiling",
    "scalar_chain_tiling",
    "scalar_fcm_tiling",
    "scalar_lbl_tiling",
    "TilingGrid",
    "lbl_grid",
    "fcm_grid",
    "chain_grid",
    "pow2_candidates",
    "GeometryMemo",
    "shared_memo",
]
