"""Experiment harnesses regenerating every table and figure of the paper."""

from .chains import ChainComparison, chain_comparison, compare_chain_planning
from .fig1 import Fig1Row, figure1
from .fig10_fig11 import EndToEndPoint, end_to_end_point, figure10_11
from .fig6_fig7 import SpeedupPoint, figure6_7
from .fig8 import GmaTimeBar, figure8
from .fig9 import CudnnPoint, cudnn_pair_time_s, figure9
from .fusion_cases import CaseRun, FusionCase, case_runs, select_fusion_cases, table2_rows
from .reporting import format_table
from .table3 import BoundRow, table3

__all__ = [
    "ChainComparison",
    "chain_comparison",
    "compare_chain_planning",
    "Fig1Row",
    "figure1",
    "SpeedupPoint",
    "figure6_7",
    "GmaTimeBar",
    "figure8",
    "CudnnPoint",
    "cudnn_pair_time_s",
    "figure9",
    "EndToEndPoint",
    "end_to_end_point",
    "figure10_11",
    "FusionCase",
    "CaseRun",
    "select_fusion_cases",
    "case_runs",
    "table2_rows",
    "format_table",
    "BoundRow",
    "table3",
]
