"""Fit measurement-feedback correction factors and price plans with them.

The planner's candidate ranking is driven by an *analytic* cost proxy —
estimated GMA bytes over peak bandwidth plus launch overhead
(:func:`analytic_cost_s`).  The measurement harness observes what those
kernels actually cost on the simulated substrate (L2 absorption, MAC
boundedness, utilization/bandwidth efficiencies, convention gaps — none of
which the proxy sees).  Calibration closes the gap the cheapest defensible
way: one multiplicative factor per ``(GPU, dtype, kernel family)``, the
geometric mean of measured/estimated ratios over the family's records.

A single per-family multiplier cannot reorder tilings *within* a family
(monotone transform), but it absolutely reorders decisions *across*
families — fuse-vs-stay-unfused, DWPW vs PWDW_R arbitration, chain length
selection — which is exactly where the analytic model and the measurements
disagree.  :class:`Calibration` is duck-typed into
:class:`~repro.planner.planner.FusePlanner` via its :meth:`Calibration.cost_s`
hook (the planner never imports this package, keeping the dependency arrow
tune → planner one-way).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..gpu.specs import GpuSpec
from .records import TuningDB

__all__ = ["analytic_cost_s", "Calibration", "fit_calibration"]


def analytic_cost_s(gma_bytes: float, launches: int, gpu: GpuSpec) -> float:
    """The uncalibrated latency proxy: bytes at peak bandwidth + launches.

    Deliberately naive — it prices the planner's estimated GMA as if every
    byte hit DRAM at peak speed.  Every systematic way reality deviates
    (bandwidth efficiency, L2 re-read absorption, compute boundedness) is
    what the fitted per-family factor absorbs.
    """
    return gma_bytes / gpu.peak_bytes_per_s + launches * gpu.kernel_launch_us * 1e-6


@dataclass(frozen=True)
class Calibration:
    """Per-(GPU, dtype, family) multiplicative corrections.

    ``factors`` maps ``(gpu_name, dtype_value, family)`` to the multiplier
    applied on top of :func:`analytic_cost_s`.  A family that was never
    measured inside a *measured* (GPU, dtype) group falls back to that
    group's geometric-mean factor (``group_default``) — pricing it at 1.0
    would systematically advantage exactly the candidates with no evidence,
    since the naive proxy usually errs in one direction per group.  Fully
    unmeasured groups fall back to 1.0, and the planner additionally gates
    on :meth:`covers` so they never switch ranking currency at all.
    ``support`` carries the record count each factor was fitted from, for
    reporting.
    """

    factors: dict[tuple[str, str, str], float] = field(default_factory=dict)
    support: dict[tuple[str, str, str], int] = field(default_factory=dict)
    group_default: dict[tuple[str, str], float] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.factors)

    def factor(self, family: str, gpu_name: str, dtype_value: str) -> float:
        key = (gpu_name, dtype_value, family)
        if key in self.factors:
            return self.factors[key]
        return self.group_default.get((gpu_name, dtype_value), 1.0)

    def covers(self, gpu_name: str, dtype_value: str) -> bool:
        """Was anything at all measured for this (GPU, dtype) group?

        The planner stays on its uncalibrated byte ranking for groups with
        no measurements: switching currencies (bytes -> seconds) is itself a
        reordering, and an unmeasured group has no evidence backing it.
        """
        return any(
            gpu == gpu_name and dtype == dtype_value
            for gpu, dtype, _family in self.factors
        )

    def cost_s(
        self,
        family: str,
        gma_bytes: float,
        launches: int,
        gpu: GpuSpec,
        dtype_value: str,
    ) -> float:
        """Calibrated latency of one step — FusePlanner's DP currency."""
        return self.factor(family, gpu.name, dtype_value) * analytic_cost_s(
            gma_bytes, launches, gpu
        )

    def describe_rows(self) -> list[list[str]]:
        """Table rows (gpu, dtype, family, factor, records) in sorted order."""
        return [
            [gpu, dtype, family, f"{self.factors[k]:.3f}", str(self.support.get(k, 0))]
            for k in sorted(self.factors)
            for gpu, dtype, family in [k]
        ]


def fit_calibration(db: TuningDB) -> Calibration:
    """Fit per-(GPU, dtype, family) factors from a tuning DB.

    The factor is the geometric mean of ``measured / estimated`` over the
    family's records (the right mean for a multiplicative correction: one
    2x-over and one 2x-under estimate cancel).  Model-level records are
    excluded — they aggregate every family and would double-count.  A
    family gets a factor from its first record on.  Fitting is
    deterministic: records iterate in canonical DB order.
    """
    logs: dict[tuple[str, str, str], list[float]] = {}
    for rec in db:
        if rec.key.family == "model":
            continue
        if rec.est_cost_s <= 0 or rec.measured_cost_s <= 0:
            continue
        group = (rec.key.gpu, rec.key.dtype, rec.key.family)
        logs.setdefault(group, []).append(math.log(rec.ratio))
    factors: dict[tuple[str, str, str], float] = {}
    support: dict[tuple[str, str, str], int] = {}
    group_logs: dict[tuple[str, str], list[float]] = {}
    for group in sorted(logs):
        samples = logs[group]
        factors[group] = math.exp(sum(samples) / len(samples))
        support[group] = len(samples)
        group_logs.setdefault(group[:2], []).extend(samples)
    group_default = {
        g: math.exp(sum(s) / len(s)) for g, s in sorted(group_logs.items())
    }
    return Calibration(
        factors=factors, support=support, group_default=group_default
    )
