"""Command-line interface: regenerate paper artifacts, plan models, serve.

Every subcommand maps onto one public subsystem: the artifact commands
(``table2``/``fig6``/``fig10``) drive :mod:`repro.experiments`, ``plan``
drives :mod:`repro.planner`, ``gpus`` prints :mod:`repro.gpu` presets, the
serving commands (``serve``/``bench-serve``/``fleet``) drive
:mod:`repro.serve`, the ``tune`` group (``run``/``show``/``export``)
drives :mod:`repro.tune`, and ``lint`` drives the :mod:`repro.analysis`
invariant linter.

Usage:
    python -m repro.cli table2 --dtype int8
    python -m repro.cli fig6 --dtype fp32
    python -m repro.cli fig10 --dtype fp32
    python -m repro.cli plan mobilenet_v2 --gpu RTX --dtype int8
    python -m repro.cli run mobilenet_v2 --gpu RTX --batch 4
    python -m repro.cli serve mobilenet_v2 --requests 64 --rate 5000
    python -m repro.cli bench-serve --models mobilenet_v2,xception
    python -m repro.cli fleet --gpus GTX,RTX,Orin --models mobilenet_v2,xception
    python -m repro.cli tune run --models mobilenet_v1 --gpus RTX --db TUNE_zoo.json
    python -m repro.cli lint src --format json
    python -m repro.cli gpus
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .core.dtypes import DType
from .gpu.specs import ALL_GPUS, gpu_by_name

__all__ = ["main"]


def _dtype(name: str) -> DType:
    return DType.INT8 if name.lower() == "int8" else DType.FP32


def _cmd_gpus(_args: argparse.Namespace) -> int:
    from .experiments.reporting import format_table

    rows = [
        [g.name, g.compute_capability, g.sm_count, g.cuda_cores, g.l1_kb,
         g.shared_kb, f"{g.l2_mb:g}", g.dram, f"{g.dram_bw_gbps:g}"]
        for g in ALL_GPUS
    ]
    print(format_table(
        ["gpu", "cc", "SMs", "cores", "L1 KiB", "shared KiB", "L2 MB",
         "DRAM", "GB/s"],
        rows,
    ))
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    from .experiments.fusion_cases import table2_rows
    from .experiments.reporting import format_table

    rows = table2_rows(_dtype(args.dtype))
    print(format_table(list(rows[0]), [list(r.values()) for r in rows]))
    return 0


def _cmd_fig6(args: argparse.Namespace) -> int:
    from .experiments.fig6_fig7 import figure6_7
    from .experiments.reporting import format_table

    points = figure6_7(_dtype(args.dtype))
    print(format_table(
        ["case", "gpu", "module", "speedup", "GMA saving"],
        [[p.case_id, p.gpu, p.fcm_type, f"{p.speedup:.2f}x",
          f"{p.gma_saving:.0%}"] for p in points],
    ))
    sp = [p.speedup for p in points]
    print(f"wins {sum(s > 1 for s in sp)}/{len(sp)}, avg {np.mean(sp):.2f}x, "
          f"max {max(sp):.2f}x")
    return 0


def _cmd_fig10(args: argparse.Namespace) -> int:
    from .experiments.fig10_fig11 import figure10_11
    from .experiments.reporting import format_table

    points = figure10_11(_dtype(args.dtype))
    print(format_table(
        ["model", "gpu", "speedup", "energy vs TVM", "fused"],
        [[p.model, p.gpu, f"{p.speedup_vs_tvm:.2f}x", f"{p.energy_vs_tvm:.2f}",
          f"{p.fused_fraction:.0%}"] for p in points],
    ))
    return 0


def _load_tuning(path: str):
    """Load a tuning DB and fit its calibration (shared by --db flags)."""
    from .tune.calibrate import fit_calibration
    from .tune.records import TuningDB

    db = TuningDB.load(path)
    return db, fit_calibration(db)


def _cmd_plan(args: argparse.Namespace) -> int:
    from .models.zoo import build_model
    from .planner.planner import FusePlanner

    calibration = None
    if args.db:
        db, calibration = _load_tuning(args.db)
        print(f"calibrated planning: {len(db)} tuning records, "
              f"{len(calibration)} family factors ({args.db})")
    graph = build_model(args.model, _dtype(args.dtype))
    planner = FusePlanner(
        gpu_by_name(args.gpu), max_chain=args.max_chain, calibration=calibration
    )
    plan = planner.plan(graph)
    print(plan.describe())
    if calibration is not None:
        from .tune.measure import plan_cost_estimate

        print(f"est latency: {plan_cost_estimate(plan) * 1e3:.3f} ms analytic, "
              f"{plan_cost_estimate(plan, calibration) * 1e3:.3f} ms calibrated")
    if args.explain:
        from .experiments.reporting import format_table

        print("\ncandidates (every fusion the planner evaluated):")
        headers = ["layers", "module", "feasible", "fused GMA B", "LBL GMA B",
                   "savings B", "chosen"]
        rows = [
            [
                "+".join(c.layers), c.label,
                "yes" if c.feasible else "no",
                c.gma_bytes, c.lbl_gma_bytes, c.savings_bytes,
                "*" if c.chosen else "",
            ]
            for c in planner.last_candidates
        ]
        if calibration is not None and calibration.covers(
            planner.gpu.name, _dtype(args.dtype).value
        ):
            # The DP decided on calibrated seconds; show what it weighed.
            headers.insert(-1, "savings us (cal)")
            for row, c in zip(rows, planner.last_candidates):
                row.insert(-1, f"{c.cost_savings * 1e6:.3f}")
        print(format_table(headers, rows))
    return 0


def _obs_sinks(args: argparse.Namespace):
    """Build (tracer, metrics) for --trace-out/--metrics-out, or Nones.

    Sinks are only instantiated when the matching flag was given, so the
    default CLI path keeps the zero-overhead NullTracer/NullMetrics."""
    from .obs import MetricsRegistry, Tracer

    tracer = Tracer() if args.trace_out else None
    metrics = MetricsRegistry() if args.metrics_out else None
    return tracer, metrics


def _export_obs(args: argparse.Namespace, tracer, metrics) -> None:
    """Write the requested exporter files and tell the operator where."""
    from .obs import write_chrome_trace, write_prometheus

    if args.trace_out:
        path = write_chrome_trace(tracer, args.trace_out)
        print(f"trace: {len(tracer.spans)} spans, {len(tracer.instants)} "
              f"instant events -> {path}")
    if metrics is not None:
        path = write_prometheus(metrics, args.metrics_out)
        print(f"metrics: {len(metrics.families())} families -> {path}")


def _cmd_run(args: argparse.Namespace) -> int:
    import time

    from .runtime.session import build_session, seeded_input

    dtype = _dtype(args.dtype)
    session = build_session(
        args.model, gpu_by_name(args.gpu), dtype, max_chain=args.max_chain
    )
    x = seeded_input(session.graph, dtype, seed=args.seed, batch=args.batch)
    # repro: allow[RPR001] operator-facing host wall-clock display only;
    # never feeds the simulated clock, reports or any serialized artifact
    t0 = time.perf_counter()
    report = session.run_batch(x) if args.batch > 1 else session.run(x)
    wall_s = time.perf_counter() - t0  # repro: allow[RPR001] same display-only wall clock
    print(report.describe())
    print(f"host wall clock {wall_s * 1e3:.1f} ms")
    tracer, metrics = _obs_sinks(args)
    if tracer is not None or metrics is not None:
        # One-shot runs have no replay clock: lay the batch at t=0 on the
        # GPU's lane, timed by the report's simulated latency.
        from .obs import record_session_report, resolve_metrics, resolve_tracer

        record_session_report(
            resolve_tracer(tracer), resolve_metrics(metrics), report,
            start_s=0.0, pid=session.gpu.name,
        )
        _export_obs(args, tracer, metrics)
    return 0


def _cmd_chains(args: argparse.Namespace) -> int:
    from .experiments.chains import chain_comparison
    from .experiments.reporting import format_table

    points = chain_comparison(
        _dtype(args.dtype),
        gpu=gpu_by_name(args.gpu),
        models=tuple(args.models.split(",")),
        max_chain=args.max_chain,
    )
    print(format_table(
        ["model", "gpu", "pairwise GMA", f"chain GMA (K={args.max_chain})",
         "saving", "chains>=3", "longest", "speedup"],
        [[p.model, p.gpu, p.pairwise_gma_bytes, p.chain_gma_bytes,
          f"{p.gma_saving:.1%}", p.chain_count, p.longest_chain,
          f"{p.speedup_vs_pairwise:.2f}x"] for p in points],
    ))
    return 0


def _fleet_gpus(spec: str) -> list:
    """Parse a ``--gpus`` comma list into GpuSpec presets (repeats allowed)."""
    return [gpu_by_name(name) for name in spec.split(",") if name]


def _autoscale_policy(spec: str, cooldown_ms: float):
    """Parse ``--autoscale MIN:MAX`` into an AutoscalePolicy (or None)."""
    from .serve.autoscale import AutoscalePolicy

    if not spec:
        return None
    lo, _, hi = spec.partition(":")
    return AutoscalePolicy(
        min_workers=int(lo),
        max_workers=int(hi or lo),
        cooldown_s=cooldown_ms * 1e-3,
    )


def _cmd_bench_serve(args: argparse.Namespace) -> int:
    from .experiments.reporting import format_table
    from .serve.fleet import Fleet
    from .serve.loadgen import FakeClock
    from .serve.server import ModelServer

    dtype = _dtype(args.dtype)
    batches = [int(b) for b in args.batches.split(",")]
    if args.slo_ms:
        # SLO mode: sweep offered load instead of batch size and report the
        # attainment curve per model.
        from .serve.loadgen import attainment_curve

        gpu = gpu_by_name(args.gpu)
        overloads = [float(x) for x in args.overloads.split(",")]
        admission = None if args.admission == "none" else args.admission
        rows = []
        for model in args.models.split(","):
            for p in attainment_curve(
                gpu, model, slo_s=args.slo_ms * 1e-3, overloads=overloads,
                dtype=dtype, admission=admission, max_batch=max(batches),
                max_chain=args.max_chain,
            ):
                rows.append([
                    model, f"{p.overload:g}x", f"{p.rate_rps:.0f}", p.offered,
                    f"{p.attainment:.1%}", p.shed, p.degraded, p.late,
                    f"{p.p99_s * 1e3:.4f}",
                ])
        print(format_table(
            ["model", "load", "rps", "offered", "attainment", "shed",
             "degraded", "late", "p99 ms"],
            rows,
        ))
        return 0
    if args.gpus:
        # A FakeClock keeps the sweep deterministic: simulated occupancy
        # accumulates across submits instead of decaying in real time, so
        # routing sees which worker is actually loaded.
        clock = FakeClock()
        fleet = Fleet(
            _fleet_gpus(args.gpus), max_chain=args.max_chain,
            clock=clock, sleep=clock.sleep,
        )
    else:
        fleet = None
    server = None if fleet else ModelServer(gpu_by_name(args.gpu), max_chain=args.max_chain)
    rows = []
    for model in args.models.split(","):
        # Baseline per worker: in a heterogeneous fleet a later batch size
        # may spill to a different GPU, and the speedup column must measure
        # batching amortization, not device speed.
        base: dict[str, float] = {}
        for b in batches:
            if fleet is not None:
                worker, rep = fleet.submit_analytic(model, b, dtype)
                where = worker.name
            else:
                rep = server.submit_analytic(model, b, dtype)
                where = server.gpu.name
            base.setdefault(where, rep.throughput_img_s)
            rows.append([
                model, where, b, f"{rep.throughput_img_s:.0f}",
                f"{rep.latency_per_image_s * 1e3:.4f}",
                f"{rep.energy_per_image_j * 1e3:.3f}",
                f"{rep.throughput_img_s / base[where]:.2f}x",
            ])
    print(format_table(
        ["model", "worker", "batch", "img/s", "ms/img", "mJ/img",
         f"vs b={batches[0]}"],
        rows,
    ))
    if fleet is not None:
        stats = fleet.stats()
        print(f"planner invocations: {stats.planner_invocations} "
              f"(fleet hit rate {stats.plan_hit_rate:.0%}, "
              f"hits {stats.plan_hits}, misses {stats.plan_misses})")
    else:
        stats = server.cache.stats
        print(f"planner invocations: {stats.planner_invocations} "
              f"(cache hits {stats.hits}, misses {stats.misses})")
    return 0


def _fault_plan(args: argparse.Namespace):
    """Resolve --faults / --chaos into a FaultPlan (None when unarmed)."""
    from .errors import PlanError
    from .serve.faults import FaultPlan

    if args.faults and args.chaos:
        raise PlanError("--faults and --chaos are mutually exclusive")
    if args.faults:
        return FaultPlan.load(args.faults)
    if args.chaos:
        try:
            mtbf_ms, mttr_ms = (float(x) for x in args.chaos.split(":"))
        except ValueError as exc:
            raise PlanError(
                f"--chaos wants MTBF_MS:MTTR_MS, got {args.chaos!r}"
            ) from exc
        # Cover the arrival window with slack for the post-stream drain.
        duration_s = args.requests / args.rate * 4.0
        return FaultPlan.chaos(
            len(args.gpus.split(",")),
            duration_s,
            mtbf_s=mtbf_ms * 1e-3,
            mttr_s=mttr_ms * 1e-3,
            seed=args.chaos_seed,
        )
    return None


def _retry_policy(args: argparse.Namespace):
    """Resolve --retries / --hedge-ms into a RetryPolicy (None when unarmed)."""
    from .serve.faults import RetryPolicy

    if args.retries <= 0 and args.hedge_ms <= 0:
        return None
    return RetryPolicy(
        max_attempts=1 + max(0, args.retries),
        budget=args.retry_budget,
        hedge_delay_s=args.hedge_ms * 1e-3 if args.hedge_ms > 0 else None,
    )


def _write_chaos_out(path: str, report) -> None:
    """Canonical chaos-accounting JSON (sorted keys, compact, newline)."""
    import json
    from pathlib import Path

    fs = report.fault_stats
    payload = {
        "availability": report.availability,
        "attainment": report.attainment,
        "n_requests": report.n_requests,
        "served": len(report.latencies_s),
        "throughput_img_s": report.throughput_img_s,
        "crashes": fs.crashes if fs else 0,
        "transients": fs.transients if fs else 0,
        "recoveries": fs.recoveries if fs else 0,
        "retries": fs.retries if fs else 0,
        "requeues": fs.requeues if fs else 0,
        "hedges": fs.hedges if fs else 0,
        "breaker_trips": fs.breaker_trips if fs else 0,
        "lost": fs.lost if fs else 0,
        "downtime_s": dict(fs.downtime_s) if fs else {},
    }
    Path(path).write_text(
        json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n",
        encoding="utf-8",
    )
    print(f"chaos accounting -> {path}")


def _cmd_replay(args: argparse.Namespace) -> int:
    """``serve`` and ``fleet``: one command that replays a request stream
    over a fleet (``serve MODEL`` is ``fleet --models MODEL``)."""
    from .obs import Tracer
    from .serve.fleet import explain_routes
    from .serve.loadgen import fleet_replay, read_trace

    db = calibration = None
    if args.db:
        db, calibration = _load_tuning(args.db)
    tracer, metrics = _obs_sinks(args)
    if args.explain and tracer is None:
        # --explain renders the scheduler's fleet.route trace instants.
        tracer = Tracer()
    report = fleet_replay(
        _fleet_gpus(args.gpus),
        args.models.split(","),
        n_requests=args.requests,
        rate_rps=args.rate,
        dtype=_dtype(args.dtype),
        arrival=args.arrival,
        request_trace=read_trace(args.trace) if args.trace else None,
        slo_s=args.slo_ms * 1e-3 if args.slo_ms else None,
        admission=None if args.admission == "none" else args.admission,
        autoscale=_autoscale_policy(args.autoscale, args.cooldown_ms),
        faults=_fault_plan(args),
        retry=_retry_policy(args),
        policy=args.policy,
        spill_factor=args.spill_factor,
        max_batch=args.max_batch,
        max_delay_s=args.max_delay_ms * 1e-3,
        max_chain=args.max_chain,
        db=db,
        calibration=calibration,
        tracer=tracer,
        metrics=metrics,
    )
    print(report.describe())
    if args.chaos_out:
        _write_chaos_out(args.chaos_out, report)
    _export_obs(args, tracer, metrics)
    routes = explain_routes(tracer) if args.explain else []
    if routes:
        print("\nrouting trace (one line per request):")
        for line in routes:
            print(f"  {line}")
    return 0


def _cmd_tune_run(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .tune.calibrate import fit_calibration
    from .tune.measure import tune_models
    from .tune.records import TuningDB

    # An existing DB accumulates: new measurements merge with (and only
    # improve on) what previous runs recorded.
    db = TuningDB.load(args.db) if Path(args.db).exists() else TuningDB()
    db, results = tune_models(
        args.models.split(","),
        _fleet_gpus(args.gpus),
        _dtype(args.dtype),
        db=db,
        max_chain=args.max_chain,
        mode=args.mode,
        iterations=args.iterations,
        seed=args.seed,
        workers=args.workers,
    )
    path = db.save(args.db)
    for mm in results:
        print(mm.describe())
    calib = fit_calibration(db)
    if len(calib):
        from .experiments.reporting import format_table

        print("\nfitted calibration factors (measured / estimated):")
        print(format_table(["gpu", "dtype", "family", "factor", "records"],
                           calib.describe_rows()))
    # Adoption count, not a length delta: a re-run that *improves* existing
    # records (better tilings at a higher budget) still reports its work.
    adopted = sum(mm.records_added for mm in results)
    print(f"{len(db)} records ({adopted} new or improved) -> {path}")
    return 0


def _cmd_tune_show(args: argparse.Namespace) -> int:
    from .experiments.reporting import format_table
    from .tune.calibrate import fit_calibration
    from .tune.records import TuningDB

    db = TuningDB.load(args.db)
    calib = fit_calibration(db)
    models = [
        r for r in db
        if r.key.family == "model"
        and isinstance(r.key.geometry, tuple) and len(r.key.geometry) == 2
    ]
    steps = sum(1 for r in db if r.key.family != "model")
    print(f"{args.db}: {len(db)} records ({len(models)} models, {steps} steps)")
    if models:
        print("\nmodel-level records (warm-start set):")
        print(format_table(
            ["model", "K", "gpu", "dtype", "est ms", "measured ms", "ratio",
             "candidates"],
            [[r.key.geometry[0], r.key.geometry[1], r.key.gpu, r.key.dtype,
              f"{r.est_cost_s * 1e3:.3f}", f"{r.measured_cost_s * 1e3:.3f}",
              f"{r.ratio:.2f}", r.evaluated] for r in models],
        ))
    if len(calib):
        print("\ncalibration factors (measured / estimated):")
        print(format_table(["gpu", "dtype", "family", "factor", "records"],
                           calib.describe_rows()))
    if args.records:
        print("\nall records (canonical order):")
        for r in db:
            print(f"  {r.key.family:12s} {r.key.gpu:5s} {r.key.dtype:5s} "
                  f"est {r.est_cost_s * 1e6:9.2f}us  "
                  f"measured {r.measured_cost_s * 1e6:9.2f}us  "
                  f"tuned {r.tuned_cost_s * 1e6:9.2f}us  tiling {r.tiling}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .analysis.cli import main as analysis_main

    argv = list(args.paths) or ["src"]
    argv += ["--format", args.format]
    if args.rules:
        argv += ["--rules", args.rules]
    if args.output:
        argv += ["--output", args.output]
    return analysis_main(argv)


def _cmd_tune_export(args: argparse.Namespace) -> int:
    from .tune.records import TuningDB

    db = TuningDB.load(args.db)
    out = db.save(args.out)
    print(f"exported {len(db)} records in canonical order -> {out}")
    return 0


#: (name, builder-visible help, --help epilog) per subcommand; asserted by
#: tests/test_cli.py so every command documents at least one worked example.
_EPILOGS: dict[str, str] = {
    "gpus": "examples:\n  python -m repro.cli gpus",
    "table2": (
        "examples:\n"
        "  python -m repro.cli table2 --dtype fp32\n"
        "  python -m repro.cli table2 --dtype int8   # Table II at INT8"
    ),
    "fig6": (
        "examples:\n"
        "  python -m repro.cli fig6 --dtype fp32     # Fig. 6 FCM-vs-LBL speedups\n"
        "  python -m repro.cli fig6 --dtype int8     # Fig. 7 (INT8 variant)"
    ),
    "fig10": (
        "examples:\n"
        "  python -m repro.cli fig10 --dtype fp32    # Fig. 10 end-to-end vs TVM\n"
        "  python -m repro.cli fig10 --dtype int8"
    ),
    "plan": (
        "examples:\n"
        "  python -m repro.cli plan mobilenet_v2 --gpu RTX\n"
        "  python -m repro.cli plan xception --gpu Orin --dtype int8\n"
        "  python -m repro.cli plan mobilenet_v2 --max-chain 3 --explain"
    ),
    "run": (
        "examples:\n"
        "  python -m repro.cli run mobilenet_v2 --gpu RTX\n"
        "  python -m repro.cli run xception --dtype int8 --batch 4\n"
        "  python -m repro.cli run mobilenet_v2 --trace-out TRACE_run.json "
        "--metrics-out METRICS_run.txt"
    ),
    "chains": (
        "examples:\n"
        "  python -m repro.cli chains --dtype int8\n"
        "  python -m repro.cli chains --models mobilenet_v2 --max-chain 4"
    ),
    "serve": (
        "examples:\n"
        "  python -m repro.cli serve mobilenet_v2 --requests 64 --rate 5000\n"
        "  python -m repro.cli serve xception --max-batch 16 --arrival poisson\n"
        "  python -m repro.cli serve mobilenet_v2 --gpus RTX,RTX,Orin  # fleet replay\n"
        "  python -m repro.cli serve mobilenet_v2 --slo-ms 5 --admission degrade "
        "--arrival lognormal\n"
        "  python -m repro.cli serve mobilenet_v2 --trace requests.jsonl --slo-ms 5\n"
        "  python -m repro.cli serve mobilenet_v2 --trace-out TRACE_serve.json "
        "--metrics-out METRICS_serve.txt"
    ),
    "bench-serve": (
        "examples:\n"
        "  python -m repro.cli bench-serve\n"
        "  python -m repro.cli bench-serve --models mobilenet_v2 --batches 1,4,16\n"
        "  python -m repro.cli bench-serve --gpus GTX,RTX  # routed through a fleet\n"
        "  python -m repro.cli bench-serve --models mobilenet_v2 --slo-ms 5 "
        "--overloads 0.5,1,4,16  # SLO attainment curve"
    ),
    "fleet": (
        "examples:\n"
        "  python -m repro.cli fleet --gpus RTX,RTX,RTX,RTX --models mobilenet_v2\n"
        "  python -m repro.cli fleet --gpus GTX,RTX,Orin "
        "--models mobilenet_v2,xception --explain\n"
        "  python -m repro.cli fleet --gpus RTX,RTX --policy round_robin "
        "--arrival poisson\n"
        "  python -m repro.cli fleet --gpus RTX --slo-ms 5 --admission degrade "
        "--autoscale 1:4 --cooldown-ms 2\n"
        "  python -m repro.cli fleet --gpus GTX,RTX --db TUNE_zoo.json  # warm start\n"
        "  python -m repro.cli fleet --gpus RTX,RTX --autoscale 1:4 "
        "--trace-out TRACE_fleet.json --metrics-out METRICS_fleet.txt\n"
        "  python -m repro.cli fleet --gpus RTX,RTX,RTX,RTX --slo-ms 5 "
        "--chaos 1:0.5 --retries 2  # seeded crash/recover chaos + retries\n"
        "  python -m repro.cli fleet --gpus RTX,RTX --faults PLAN.jsonl "
        "--retries 2 --hedge-ms 2 --chaos-out CHAOS_run.json"
    ),
    "tune": (
        "examples:\n"
        "  python -m repro.cli tune run --models mobilenet_v1 --gpus RTX "
        "--db TUNE_zoo.json\n"
        "  python -m repro.cli tune show --db TUNE_zoo.json\n"
        "  python -m repro.cli tune export --db TUNE_zoo.json --out TUNE_canonical.json"
    ),
    "tune run": (
        "examples:\n"
        "  python -m repro.cli tune run --models mobilenet_v1 --gpus RTX "
        "--db TUNE_zoo.json\n"
        "  python -m repro.cli tune run --models mobilenet_v2,xception "
        "--gpus GTX,RTX,Orin --dtype int8 --db TUNE_zoo.json\n"
        "  python -m repro.cli tune run --models mobilenet_v1 --gpus GTX "
        "--mode exhaustive --db TUNE_zoo.json\n"
        "  python -m repro.cli tune run --models mobilenet_v1,mobilenet_v2 "
        "--gpus GTX,RTX --workers 4 --db TUNE_zoo.json  # parallel sweep"
    ),
    "tune show": (
        "examples:\n"
        "  python -m repro.cli tune show --db TUNE_zoo.json\n"
        "  python -m repro.cli tune show --db TUNE_zoo.json --records"
    ),
    "tune export": (
        "examples:\n"
        "  python -m repro.cli tune export --db TUNE_zoo.json --out TUNE_canonical.json"
    ),
    "lint": (
        "examples:\n"
        "  python -m repro.cli lint\n"
        "  python -m repro.cli lint src --format json --output ANALYSIS_report.json\n"
        "  python -m repro.cli lint src/repro/serve --rules RPR001,RPR006"
    ),
}


def _add_replay_args(p: argparse.ArgumentParser, gpus: str) -> None:
    """The flag set of serve and fleet, one replay command under two names
    (``--gpus`` defaults to ``gpus``)."""
    p.add_argument("--gpus", "--gpu", default=gpus,
                   help="comma-separated GPU presets, one worker each "
                        f"(repeats allowed; default {gpus})")
    p.add_argument("--requests", type=int, default=64,
                   help="number of requests to replay (default 64)")
    p.add_argument("--rate", type=float, default=5000.0,
                   help="arrival rate in requests/s (default 5000)")
    p.add_argument("--policy", choices=["affinity", "round_robin"],
                   default="affinity",
                   help="routing policy (default affinity)")
    p.add_argument("--spill-factor", type=float, default=2.0,
                   help="full micro-batches of backlog imbalance tolerated "
                        "before affinity replicates a plan (default 2.0)")
    p.add_argument("--max-batch", type=int, default=8,
                   help="per-worker micro-batch size cap (default 8)")
    p.add_argument("--max-delay-ms", type=float, default=2.0,
                   help="micro-batch deadline in ms (default 2.0)")
    p.add_argument("--dtype", choices=["fp32", "int8"], default="fp32")
    p.add_argument("--slo-ms", type=float, default=0.0,
                   help="per-request completion SLO in ms (0 = best effort); "
                        "arms deadline-aware micro-batch flushing")
    p.add_argument("--admission", choices=["none", "shed", "degrade"],
                   default="none",
                   help="admission control when the projected latency busts "
                        "the SLO: shed rejects, degrade retries the INT8 "
                        "plan variant first (default none)")
    p.add_argument("--arrival",
                   choices=["uniform", "poisson", "lognormal", "pareto",
                            "diurnal"],
                   default="uniform",
                   help="arrival process (default uniform); lognormal/"
                        "pareto are heavy-tailed, diurnal is rate-modulated")
    p.add_argument("--trace", default="",
                   help="JSONL trace file to replay instead of a synthetic "
                        "stream (see repro.serve.loadgen.write_trace)")
    p.add_argument("--autoscale", default="",
                   help="reactive fleet autoscaling bounds as MIN:MAX "
                        "workers")
    p.add_argument("--cooldown-ms", type=float, default=0.0,
                   help="autoscaler cooldown between resize actions in ms "
                        "(default 0)")
    p.add_argument("--max-chain", type=int, default=2,
                   help="planner chain cap for served models (default 2)")
    p.add_argument("--explain", action="store_true",
                   help="print the scheduler's per-request routing trace "
                        "(chosen worker, reason, backlog estimates), "
                        "rendered from its fleet.route trace instants")
    p.add_argument("--db", default="",
                   help="tuning DB path: every worker warm-starts its own "
                        "GPU's model records at boot")
    p.add_argument("--faults", default="",
                   help="JSONL fault plan to replay (crash / slowdown / "
                        "transient / recover events; see "
                        "repro.serve.faults.FaultPlan)")
    p.add_argument("--chaos", default="",
                   help="synthesize a seeded crash/recover plan as "
                        "MTBF_MS:MTTR_MS (exponential up/down times per "
                        "worker; alternative to --faults)")
    p.add_argument("--chaos-seed", type=int, default=0,
                   help="seed for the --chaos plan generator (default 0)")
    p.add_argument("--retries", type=int, default=0,
                   help="max retries per failed request (default 0: a "
                        "failed request is lost)")
    p.add_argument("--retry-budget", type=float, default=0.2,
                   help="fleet-wide retry cap as a fraction of offered "
                        "load (default 0.2)")
    p.add_argument("--hedge-ms", type=float, default=0.0,
                   help="launch a hedged duplicate after this many ms "
                        "unserved, first copy wins (default 0: off; tune "
                        "from a report's p99 via repro.serve.hedge_delay)")
    p.add_argument("--chaos-out", default="",
                   help="write canonical chaos-accounting JSON "
                        "(availability, attainment, retries, losses) to "
                        "this file")
    _add_obs_args(p)


def _add_obs_args(p: argparse.ArgumentParser) -> None:
    """The observability exporter flags shared by run, serve and fleet."""
    p.add_argument("--trace-out", default="",
                   help="write a Chrome-trace/Perfetto JSON of the run to "
                        "this file (open in ui.perfetto.dev or "
                        "chrome://tracing)")
    p.add_argument("--metrics-out", default="",
                   help="write Prometheus text-exposition metrics of the "
                        "run to this file")


def _add_cmd(sub, name: str, fn, help_: str) -> argparse.ArgumentParser:
    p = sub.add_parser(
        name,
        help=help_,
        epilog=_EPILOGS[name],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.set_defaults(fn=fn)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="FCM / FusePlanner reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_cmd(sub, "gpus", _cmd_gpus, "list the paper's GPU presets")
    for name, fn, help_ in (
        ("table2", _cmd_table2, "regenerate Table II fusion cases"),
        ("fig6", _cmd_fig6, "FCM-vs-LBL speedups (Fig. 6/7)"),
        ("fig10", _cmd_fig10, "end-to-end vs TVM (Fig. 10/11)"),
    ):
        p = _add_cmd(sub, name, fn, help_)
        p.add_argument("--dtype", choices=["fp32", "int8"], default="fp32")

    p = _add_cmd(sub, "plan", _cmd_plan, "print FusePlanner's plan for a model")
    p.add_argument("model")
    p.add_argument("--gpu", default="RTX")
    p.add_argument("--dtype", choices=["fp32", "int8"], default="fp32")
    p.add_argument("--max-chain", type=int, default=2,
                   help="longest fused chain the planner may pick (default 2, "
                        "the paper's pairwise FCMs)")
    p.add_argument("--explain", action="store_true",
                   help="dump every evaluated fusion candidate with its "
                        "estimated GMA and savings")
    p.add_argument("--db", default="",
                   help="tuning DB path (see `tune run`); when given, fusion "
                        "decisions rank candidates by calibrated cost")

    p = _add_cmd(sub, "run", _cmd_run, "run one functional inference end to end")
    p.add_argument("model")
    p.add_argument("--gpu", default="RTX")
    p.add_argument("--dtype", choices=["fp32", "int8"], default="fp32")
    p.add_argument("--batch", type=int, default=1,
                   help="run a batched pass over this many random images "
                        "(default 1)")
    p.add_argument("--max-chain", type=int, default=2,
                   help="planner chain cap (default 2)")
    p.add_argument("--seed", type=int, default=0,
                   help="input RNG seed (default 0)")
    _add_obs_args(p)

    p = _add_cmd(sub, "chains", _cmd_chains,
                 "compare pairwise (max-chain 2) vs chain fusion per model")
    p.add_argument("--models", default=",".join(
        ("mobilenet_v1", "mobilenet_v2", "xception", "proxylessnas")))
    p.add_argument("--gpu", default="RTX")
    p.add_argument("--dtype", choices=["fp32", "int8"], default="fp32")
    p.add_argument("--max-chain", type=int, default=3,
                   help="chain cap for the chain-planner column (default 3)")

    p = _add_cmd(sub, "serve", _cmd_replay,
                 "replay a request stream of one model (fleet with one model)")
    p.add_argument("models", metavar="model",
                   help="model to serve (see repro.models.zoo)")
    _add_replay_args(p, gpus="RTX")

    p = _add_cmd(sub, "bench-serve", _cmd_bench_serve,
                 "sweep batch size x model and report serving throughput")
    p.add_argument("--models", default="mobilenet_v2,xception",
                   help="comma-separated model names (see repro.models.zoo)")
    p.add_argument("--batches", default="1,2,4,8",
                   help="comma-separated batch sizes (default 1,2,4,8)")
    p.add_argument("--gpu", default="RTX")
    p.add_argument("--gpus", default="",
                   help="comma-separated GPU presets; when given, each "
                        "submit routes through a plan-affinity fleet")
    p.add_argument("--dtype", choices=["fp32", "int8"], default="fp32")
    p.add_argument("--max-chain", type=int, default=2,
                   help="planner chain cap for served models (default 2)")
    p.add_argument("--slo-ms", type=float, default=0.0,
                   help="switch to SLO mode: sweep offered load and print "
                        "the attainment curve at this per-request SLO")
    p.add_argument("--admission", choices=["none", "shed", "degrade"],
                   default="degrade",
                   help="admission policy for the SLO-mode sweep "
                        "(default degrade)")
    p.add_argument("--overloads", default="0.5,1,4,16",
                   help="offered-load multiples of analytic capacity for the "
                        "SLO-mode sweep (default 0.5,1,4,16)")

    p = _add_cmd(sub, "fleet", _cmd_replay,
                 "replay a multi-model stream over a multi-GPU fleet")
    p.add_argument("--models", default="mobilenet_v2,xception",
                   help="comma-separated models; request i targets model "
                        "i mod len(models)")
    _add_replay_args(p, gpus="RTX,RTX,Orin")

    p = _add_cmd(sub, "lint", _cmd_lint,
                 "run the AST invariant linter (repro.analysis) over the tree")
    p.add_argument("paths", nargs="*",
                   help="files or directories to analyze (default: src)")
    p.add_argument("--format", choices=["text", "json"], default="text",
                   help="report format (default text)")
    p.add_argument("--rules", default="",
                   help="comma-separated RPR rule ids (default: all)")
    p.add_argument("--output", default="",
                   help="also write the report to this file")

    p = sub.add_parser(
        "tune",
        help="measurement-feedback autotuning (run / show / export)",
        epilog=_EPILOGS["tune"],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    tsub = p.add_subparsers(dest="tune_command", required=True)

    def _add_tune(name: str, fn, help_: str) -> argparse.ArgumentParser:
        tp = tsub.add_parser(
            name,
            help=help_,
            epilog=_EPILOGS[f"tune {name}"],
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        tp.set_defaults(fn=fn)
        tp.add_argument("--db", required=True,
                        help="tuning DB path (JSON-lines; created on demand)")
        return tp

    tp = _add_tune("run", _cmd_tune_run,
                   "measure models, tune tilings, persist records")
    tp.add_argument("--models", default="mobilenet_v1,mobilenet_v2",
                    help="comma-separated model names (see repro.models.zoo)")
    tp.add_argument("--gpus", default="RTX",
                    help="comma-separated GPU presets to tune for")
    tp.add_argument("--dtype", choices=["fp32", "int8"], default="fp32")
    tp.add_argument("--max-chain", type=int, default=2,
                    help="planner chain cap the measured plans use (default 2)")
    tp.add_argument("--mode", choices=["guided", "random", "exhaustive"],
                    default="guided",
                    help="tiling search mode: guided always re-measures the "
                         "planner's analytic pick (default), random is the "
                         "paper's 20-iteration protocol, exhaustive sweeps "
                         "every feasible tiling")
    tp.add_argument("--iterations", type=int, default=20,
                    help="measurement budget per step for guided/random "
                         "modes (default 20, the paper's setting)")
    tp.add_argument("--seed", type=int, default=0,
                    help="search/measurement seed (default 0)")
    tp.add_argument("--workers", type=int, default=1,
                    help="process-pool size for the (model, GPU) sweep; the "
                         "merged DB is byte-identical for every worker count "
                         "(default 1, serial)")

    tp = _add_tune("show", _cmd_tune_show,
                   "summarize a tuning DB and its fitted calibration")
    tp.add_argument("--records", action="store_true",
                    help="also list every record in canonical order")

    tp = _add_tune("export", _cmd_tune_export,
                   "rewrite a DB in canonical (sorted, deduplicated) form")
    tp.add_argument("--out", required=True, help="destination path")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via tests
    sys.exit(main())
