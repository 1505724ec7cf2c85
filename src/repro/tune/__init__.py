"""Measurement-feedback autotuning: measure → record → calibrate → warm-start.

The loop the paper closes with real hardware (§V-C), closed here over the
simulated substrate:

* :mod:`repro.tune.measure` — price planned steps and tiling candidates
  through the analytic counters, which meter what the simulated kernels
  meter byte for byte (:func:`simulated_kernel_cost_s` is that oracle);
* :mod:`repro.tune.records` — persist every observation in a versioned,
  deterministic JSON-lines :class:`TuningDB` keyed by full geometry + GPU +
  dtype + convention;
* :mod:`repro.tune.calibrate` — fit per-(GPU, dtype, kernel-family)
  multiplicative corrections from the records and thread them back into
  FusePlanner's candidate ranking;
* warm-start — :meth:`repro.serve.cache.PlanCache.warm_start` replays a
  DB's model-level records at boot so serving never plans on the critical
  path.
"""

from .calibrate import Calibration, analytic_cost_s, fit_calibration
from .measure import (
    MODES,
    ModelMeasurement,
    estimated_step_cost_s,
    measure_model,
    measured_step_cost_s,
    plan_cost_estimate,
    simulated_kernel_cost_s,
    tune_models,
    tune_step_tiling,
)
from .records import (
    SCHEMA_VERSION,
    TuningDB,
    TuningKey,
    TuningRecord,
    chain_geometry,
    spec_geometry,
)

__all__ = [
    "Calibration",
    "analytic_cost_s",
    "fit_calibration",
    "MODES",
    "ModelMeasurement",
    "estimated_step_cost_s",
    "measure_model",
    "measured_step_cost_s",
    "plan_cost_estimate",
    "simulated_kernel_cost_s",
    "tune_models",
    "tune_step_tiling",
    "SCHEMA_VERSION",
    "TuningDB",
    "TuningKey",
    "TuningRecord",
    "chain_geometry",
    "spec_geometry",
]
