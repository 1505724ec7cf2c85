"""End-to-end runtime: network parameters, glue ops, inference sessions."""

from .glue import apply_glue, glue_counters
from .network_params import NetworkParams, materialize_network
from .session import (
    InferenceSession,
    SessionReport,
    StepRecord,
    TvmSession,
    build_session,
    seeded_input,
)

__all__ = [
    "apply_glue",
    "glue_counters",
    "NetworkParams",
    "materialize_network",
    "InferenceSession",
    "SessionReport",
    "StepRecord",
    "TvmSession",
    "build_session",
    "seeded_input",
]
