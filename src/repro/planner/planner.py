"""FusePlanner: decide which layers to fuse, how long the chains are, and
which tile sizes each fused kernel uses.

Paper §IV / Fig. 5, generalized from pairs to chains: given GPU specs and a
model DAG, FusePlanner (1) makes a first pass estimating each DW/PW layer's
minimum layer-by-layer GMA (Eq. 2/3), (2) evaluates every candidate fusion —
consecutive runs of 2..``max_chain`` layers — with the chain cost models
(the Eq. 4 family at length 2, the compositional chain estimators beyond),
and (3) partitions each linear run of fusable layers optimally with an
interval dynamic program:

    ``best[i] = max over L in 1..K of best[i - L] + savings(run[i-L:i])``

where length-1 "chains" are the LBL baseline (zero savings) and a longer
chain only participates when it is feasible and strictly beats its members'
LBL minima.  At ``max_chain=2`` the DP is exactly a maximum-weight matching
on each run's path graph — today's pairwise plans are reproduced — while
being fully deterministic (ties prefer the unfused/shorter split, then
earlier layers).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..core.chain import FusedChain
from ..core.dtypes import DType
from ..errors import PlanError
from ..gpu.specs import GpuSpec
from ..ir.graph import GlueSpec, ModelGraph
from ..ir.layers import ConvKind, ConvSpec
from ..obs import resolve_metrics, resolve_tracer
from .chain_costs import chain_vocabularies
from .memo import shared_memo, spec_key
from .plan import (
    ChainStep,
    ExecutionPlan,
    GlueStep,
    LblStep,
    StdStep,
    chain_family,
    lbl_family,
)
from .search import (
    SearchResult,
    best_chain_tiling,
    best_lbl_tiling,
    scalar_chain_tiling,
    scalar_lbl_tiling,
)

__all__ = ["FusePlanner", "ScalarPlanner", "CandidateReport"]


@dataclass(frozen=True)
class CandidateReport:
    """One evaluated fusion candidate, for ``plan --explain`` dumps."""

    layers: tuple[str, ...]
    label: str  # FCM type / chain kinds, or why it was rejected
    feasible: bool
    gma_bytes: int  # 0 when infeasible
    lbl_gma_bytes: int
    savings_bytes: int
    chosen: bool
    #: the savings the DP actually weighed: equals ``savings_bytes`` when
    #: uncalibrated, calibrated seconds otherwise (``plan --db --explain``
    #: must explain the calibrated decision, not the byte objective).
    cost_savings: float = 0.0


class FusePlanner:
    """Cost-model-driven fusion and tiling planner (paper Fig. 5).

    Candidates rank in the paper cost convention (Eq. 2-4 as printed).

    Args:
        gpu: target GPU spec.
        max_chain: longest fused chain the DP may pick.  The default of 2
            reproduces the paper's pairwise FCM plans; 3+ unlocks e.g. the
            PW->DW->PW inverted-residual chains of MobileNetV2.
        calibration: optional measurement-feedback corrections (duck-typed
            :class:`repro.tune.calibrate.Calibration`).  When given, fusion
            decisions — the run-partitioning DP and FCM-type arbitration —
            compare *calibrated seconds* (per-family factor x analytic cost)
            instead of raw estimated GMA bytes, so candidates reorder where
            the analytic model and the measurements disagree.  The switch is
            evidence-gated per (GPU, dtype): groups the calibration holds no
            factors for keep the byte ranking, so ``None``, an empty
            calibration, and a DB tuned on other silicon all reproduce the
            uncalibrated plans bit-for-bit.
        memo: a :class:`repro.planner.memo.GeometryMemo` to consult/fill;
            defaults to the process-wide shared memo, so planners built for
            different models reuse each other's searches.  Safe to share
            across calibrations — only calibration-independent search
            winners are stored.
    """

    def __init__(
        self,
        gpu: GpuSpec,
        *,
        max_chain: int = 2,
        calibration=None,
        memo=None,
        tracer=None,
        metrics=None,
    ) -> None:
        if max_chain < 1:
            raise PlanError(f"max_chain must be >= 1, got {max_chain}")
        self.gpu = gpu
        self.max_chain = max_chain
        self.calibration = calibration
        self.memo = shared_memo() if memo is None else memo
        self.tracer = resolve_tracer(tracer)
        self.metrics = resolve_metrics(metrics)
        self._covered: dict[DType, bool] = {}
        self._lbl_cache: dict[tuple, SearchResult] = {}
        #: memoized chain searches by run geometry; layer names are excluded
        #: deliberately, so est_lbl_gma_bytes is recomputed per actual span.
        self._chain_cache: dict[tuple, SearchResult | None] = {}
        #: candidate evaluations of the most recent :meth:`plan` call.
        self.last_candidates: list[CandidateReport] = []

    # ---- tile searches (ScalarPlanner swaps in the scalar oracles) -----------
    def _lbl_tiling(self, spec: ConvSpec) -> SearchResult:
        return best_lbl_tiling(spec, self.gpu, memo=self.memo)

    def _chain_tiling(self, chain: FusedChain, keys: tuple[str, ...]) -> SearchResult | None:
        return best_chain_tiling(chain, keys, self.gpu, memo=self.memo)

    # ---- single-layer pass ---------------------------------------------------
    def lbl_plan(self, spec: ConvSpec) -> SearchResult:
        """Minimum-GMA layer-by-layer tiling for one DW/PW layer, cached by
        the layer's full geometry (:func:`~repro.planner.memo.spec_key`),
        never its name: a planner reused across models sees layers that
        share a name (``conv1``) but not a shape."""
        key = spec_key(spec)
        if key not in self._lbl_cache:
            self._lbl_cache[key] = self._lbl_tiling(spec)
        return self._lbl_cache[key]

    # ---- candidate-ranking currency --------------------------------------------
    def _calibrated(self, dtype: DType) -> bool:
        """Calibration applies only where measurements exist: a DB tuned on
        another GPU or dtype must not reorder this group's plans (cached —
        ``covers`` scans the factor table)."""
        if self.calibration is None:
            return False
        if dtype not in self._covered:
            self._covered[dtype] = self.calibration.covers(
                self.gpu.name, dtype.value
            )
        return self._covered[dtype]

    def _cost(self, family: str, gma_bytes: int, dtype: DType, launches: int = 1):
        """What one candidate costs for ranking purposes.

        Uncalibrated: the estimated GMA bytes themselves (the paper's
        objective, kept as exact ints so plans reproduce bit-for-bit).
        Calibrated: per-family corrected seconds, which is where measured
        feedback reorders fuse-vs-not and tiling-vocabulary decisions.
        """
        if not self._calibrated(dtype):
            return gma_bytes
        return self.calibration.cost_s(
            family, gma_bytes, launches, self.gpu, dtype.value
        )

    def _lbl_cost(self, spec: ConvSpec):
        return self._cost(lbl_family(spec), self.lbl_plan(spec).gma_bytes, spec.dtype)

    def _fused_cost(self, specs: tuple[ConvSpec, ...], tiling: dict[str, int], gma_bytes: int):
        """:meth:`_cost` of one fused candidate that moves ``gma_bytes`` under
        ``tiling``; its family is read off the tiling only when a calibration
        needs it."""
        if not self._calibrated(specs[0].dtype):
            return gma_bytes
        return self._cost(chain_family(specs, tiling), gma_bytes, specs[0].dtype)

    def _step_savings(self, step: ChainStep):
        """DP weight of fusing one chain: unfused cost minus fused cost."""
        if not self._calibrated(step.first.dtype):
            return step.est_savings_bytes
        fused = self._fused_cost(step.specs, step.tiling, step.est_gma_bytes)
        return sum(self._lbl_cost(s) for s in step.specs) - fused

    # ---- chain evaluation -------------------------------------------------------
    def evaluate_chain(self, specs: tuple[ConvSpec, ...]) -> ChainStep | None:
        """Best feasible fused implementation of a consecutive layer run, as
        the plan step that would run it.

        Every tiling vocabulary the run speaks is searched
        (:func:`~repro.planner.chain_costs.chain_vocabularies`: a pair's FCM
        vocabularies, a longer run's chain keys); the lowest cost wins (calibrated
        cost, when calibrated), then the lower redundancy, then the earlier
        vocabulary — so PWDW beats PWDW_R on a tie.  Returns ``None`` when
        no tiling is feasible, and raises :class:`~repro.errors.PlanError`
        when a member has no feasible LBL tiling either (no baseline to
        compare against).

        The tiling search is memoized by the run's full geometry (not layer
        names), so repeated identical blocks — ubiquitous in the zoo models —
        are swept once.
        """
        lbl_total = sum(self.lbl_plan(s).gma_bytes for s in specs)
        key = tuple(map(spec_key, specs))
        if key not in self._chain_cache:
            self._chain_cache[key] = self._search_chain(specs)
        result = self._chain_cache[key]
        if result is None:
            return None
        return ChainStep(
            specs=specs,
            tiling=result.tiling,
            est_gma_bytes=result.gma_bytes,
            est_lbl_gma_bytes=lbl_total,
            redundancy_ratio=result.redundancy_ratio,
        )

    def _search_chain(self, specs: tuple[ConvSpec, ...]) -> SearchResult | None:
        chain = FusedChain(specs)
        best: tuple[tuple, SearchResult] | None = None
        for keys in chain_vocabularies(chain):
            res = self._chain_tiling(chain, keys)
            if res is None:
                continue
            rank = (self._fused_cost(specs, res.tiling, res.gma_bytes), res.redundancy_ratio)
            if best is None or rank < best[0]:
                best = (rank, res)
        return None if best is None else best[1]

    # ---- run partitioning -------------------------------------------------------
    def _partition_run(
        self, specs: list[ConvSpec]
    ) -> tuple[list[ChainStep], list[CandidateReport]]:
        """Optimal partition of one linear run into chains of length 1..K.

        Interval DP maximizing total estimated savings over the run — GMA
        bytes uncalibrated, per-family-corrected seconds when a calibration
        is attached; a candidate chain participates only when feasible with
        positive savings.  Ties deterministically prefer the shorter (less fused)
        split, then earlier layers.
        """
        n = len(specs)
        best = [0] * (n + 1)
        choice = [1] * (n + 1)
        picked: dict[tuple[int, int], ChainStep] = {}
        reports: list[CandidateReport] = []
        for i in range(1, n + 1):
            best[i] = best[i - 1]
            choice[i] = 1
            for length in range(2, min(self.max_chain, i) + 1):
                span = tuple(specs[i - length : i])
                try:
                    step = self.evaluate_chain(span)
                    lbl = (
                        step.est_lbl_gma_bytes
                        if step is not None
                        else sum(self.lbl_plan(s).gma_bytes for s in span)
                    )
                except PlanError:
                    step, lbl = None, 0  # no feasible LBL baseline either
                savings = self._step_savings(step) if step is not None else 0
                reports.append(
                    CandidateReport(
                        layers=tuple(s.name for s in span),
                        label=step.label if step is not None else "infeasible",
                        feasible=step is not None,
                        gma_bytes=step.est_gma_bytes if step is not None else 0,
                        lbl_gma_bytes=lbl,
                        savings_bytes=step.est_savings_bytes if step is not None else 0,
                        chosen=False,
                        cost_savings=float(savings),
                    )
                )
                if step is None or savings <= 0:
                    continue
                picked[(i - length, i)] = step
                total = best[i - length] + savings
                if total > best[i]:
                    best[i] = total
                    choice[i] = length
        chosen: list[ChainStep] = []
        i = n
        while i > 0:
            length = choice[i]
            if length > 1:
                chosen.append(picked[(i - length, i)])
            i -= length
        chosen.reverse()
        chosen_layers = {step.layer_names for step in chosen}
        reports = [
            r if r.layers not in chosen_layers else replace(r, chosen=True)
            for r in reports
        ]
        return chosen, reports

    # ---- whole-model pass ------------------------------------------------------
    def plan(self, graph: ModelGraph, dtype: DType | None = None) -> ExecutionPlan:
        """Produce the execution plan for a model DAG.

        Args:
            graph: the model; conv layers must already be at the target
                precision, or pass ``dtype`` to re-type them on the fly.
        """
        hits0, misses0 = self.memo.hits, self.memo.misses
        with self.tracer.span(
            "planner.plan",
            model=graph.name,
            gpu=self.gpu.name,
            convention="paper",
            max_chain=self.max_chain,
        ):
            graph.validate()
            retype = (lambda s: s.with_dtype(dtype)) if dtype is not None else (lambda s: s)

            # Pass 1+2: evaluate candidates and partition every fusable run.
            chosen: dict[str, ChainStep] = {}
            consumed: set[str] = set()
            self.last_candidates = []
            for run in graph.fusion_runs():
                steps, reports = self._partition_run([retype(s) for s in run])
                self.last_candidates.extend(reports)
                for step in steps:
                    chosen[step.first.name] = step
                    consumed.update(step.layer_names[1:])

            plan_dtype = dtype if dtype is not None else graph.dtype
            if plan_dtype is None:
                raise PlanError(f"model {graph.name!r} has no convolutional layers")
            plan = ExecutionPlan(model_name=graph.name, gpu=self.gpu, dtype=plan_dtype)
            for spec in graph.topological():
                if isinstance(spec, GlueSpec):
                    plan.steps.append(GlueStep(spec))
                    continue
                spec = retype(spec)
                if spec.name in chosen:
                    plan.steps.append(chosen[spec.name])
                    continue
                if spec.name in consumed:
                    continue  # executed inside its producer's chain step
                if spec.kind is ConvKind.STANDARD:
                    plan.steps.append(StdStep(spec))
                    continue
                lbl = self.lbl_plan(spec)
                plan.steps.append(
                    LblStep(spec=spec, tiling=lbl.tiling, est_gma_bytes=lbl.gma_bytes)
                )
        self.metrics.counter(
            "repro_memo_hits_total", help="GeometryMemo hits during planning"
        ).inc(self.memo.hits - hits0)
        self.metrics.counter(
            "repro_memo_misses_total", help="GeometryMemo misses during planning"
        ).inc(self.memo.misses - misses0)
        self.metrics.counter(
            "repro_plans_total", help="Whole-model planning passes"
        ).inc(model=graph.name)
        return plan


class ScalarPlanner(FusePlanner):
    """:class:`FusePlanner` on the scalar tile sweeps: the oracle whose plans
    the grid search must reproduce.  It never consults a memo, so it always
    sweeps rather than replaying memoized grid-search winners."""

    def _lbl_tiling(self, spec: ConvSpec) -> SearchResult:
        return scalar_lbl_tiling(spec, self.gpu)

    def _chain_tiling(self, chain: FusedChain, keys: tuple[str, ...]) -> SearchResult | None:
        return scalar_chain_tiling(chain, keys, self.gpu)
