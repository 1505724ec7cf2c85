"""cProfile one end-to-end functional model run, one planning pass, or one
fleet replay.

``--what run`` (default) plans the model, runs one warm-up inference (which
also generates the weights, on their first read), then profiles a second
run.  ``--what plan`` profiles FusePlanner's whole-model pass in isolation —
the tiling search over every layer and fusion candidate, which is what the
grid search targets.  ``--what replay`` profiles one ``fleet_replay`` of
2000 Poisson requests at 6000 req/s for the model over four preplanned
``--gpu`` workers, with a 10 ms SLO and degrade-to-INT8 admission: the
serving layer's bookkeeping (routing, queues, admission), not the kernels.
``--reference`` profiles the oracle instead: the per-block kernel engine
(``reference_run``) for ``run``, the scalar tile sweeps (``ScalarPlanner``)
for ``plan``; a replay has no oracle.  Every mode prints the top-N
functions by cumulative and by internal time — the starting point for every
simulator performance change (this is how the fast-path engine's and the
grid search's hot spots were found) — then one closing summary line.

Usage::

    PYTHONPATH=src python tools/profile_run.py [model] [--what plan|run|replay]
                                               [--reference]
                                               [--dtype fp32|int8] [--gpu RTX]
                                               [--max-chain 2] [--top 25]
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def _profile(fn, top: int) -> "object":
    profiler = cProfile.Profile()
    profiler.enable()
    out = fn()
    profiler.disable()
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative").print_stats(top)
    stats.sort_stats("tottime").print_stats(top)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("model", nargs="?", default="mobilenet_v2")
    parser.add_argument("--what", choices=["run", "plan", "replay"], default="run",
                        help="profile one functional inference (default), "
                             "one FusePlanner whole-model pass in isolation, "
                             "or one analytic fleet replay")
    parser.add_argument("--reference", action="store_true",
                        help="profile the oracle: the per-block kernel engine "
                             "for run, the scalar tile sweeps for plan")
    parser.add_argument("--dtype", choices=["fp32", "int8"], default="fp32")
    parser.add_argument("--gpu", default="RTX")
    parser.add_argument("--max-chain", type=int, default=2)
    parser.add_argument("--top", type=int, default=25)
    args = parser.parse_args(argv)
    if args.reference and args.what == "replay":
        parser.error("--reference has no oracle to profile for --what replay")

    from repro.core.dtypes import DType
    from repro.gpu.specs import gpu_by_name

    dtype = DType.INT8 if args.dtype == "int8" else DType.FP32
    gpu = gpu_by_name(args.gpu)

    if args.what == "plan":
        from repro.models.zoo import build_model
        from repro.planner.memo import GeometryMemo
        from repro.planner.planner import FusePlanner, ScalarPlanner

        graph = build_model(args.model, dtype)
        planner_cls = ScalarPlanner if args.reference else FusePlanner

        def plan_once():
            # A fresh memo per pass: profile the search itself, not the
            # cross-model cache hits a prior pass would leave behind.
            planner = planner_cls(gpu, max_chain=args.max_chain, memo=GeometryMemo())
            return planner.plan(graph)

        plan = _profile(plan_once, args.top)
        print(f"{len(plan.steps)} plan steps for {args.model} on {gpu.name} "
              f"[{planner_cls.__name__}]")
        return 0

    if args.what == "replay":
        from repro.serve import FakeClock, Fleet, fleet_replay

        gpus = [gpu] * 4
        clock = FakeClock()
        fleet = Fleet(gpus, max_chain=args.max_chain, clock=clock, sleep=clock.sleep)
        # INT8 too: degrade admission must find its plans resident.
        fleet.preplan([args.model], (DType.FP32, DType.INT8))
        report = _profile(
            lambda: fleet_replay(
                gpus, args.model, 2000, 6000.0, dtype, arrival="poisson",
                slo_s=10e-3, admission="degrade", fleet=fleet,
            ),
            args.top,
        )
        print(report.describe().splitlines()[0])
        return 0

    from repro.runtime.session import build_session, reference_run, seeded_input

    session = build_session(args.model, gpu, dtype, max_chain=args.max_chain)
    x = seeded_input(session.graph, dtype)[None]

    def run_once():
        return reference_run(session, x) if args.reference else session.run_batch(x)

    run_once()  # warm-up: weights, BLAS threads, planner caches, allocators
    report = _profile(run_once, args.top)
    print(f"{report.describe()}  [engine={'reference' if args.reference else 'fast'}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
