"""cProfile one end-to-end functional model run or one planning pass.

``--what run`` (default) plans the model, runs one warm-up inference (which
also generates the weights, on their first read), then profiles a second
run.  ``--what plan`` profiles FusePlanner's whole-model pass in isolation —
the tiling search over every layer and fusion candidate, which is what the
grid search targets.  ``--reference`` profiles the oracle instead: the
per-block kernel engine (``reference_run``) for ``run``, the scalar tile
sweeps (``ScalarPlanner``) for ``plan``.  Both modes print the top-N
functions by cumulative and by internal time — the starting point for every
simulator performance change (this is how the fast-path engine's and the
grid search's hot spots were found) — then one closing summary line.

Usage::

    PYTHONPATH=src python tools/profile_run.py [model] [--what plan|run]
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
    parser.add_argument("--what", choices=["run", "plan"], default="run",
                        help="profile one functional inference (default) or "
                             "one FusePlanner whole-model pass in isolation")
    parser.add_argument("--reference", action="store_true",
                        help="profile the oracle: the per-block kernel engine "
                             "for run, the scalar tile sweeps for plan")
    parser.add_argument("--dtype", choices=["fp32", "int8"], default="fp32")
    parser.add_argument("--gpu", default="RTX")
    parser.add_argument("--max-chain", type=int, default=2)
    parser.add_argument("--top", type=int, default=25)
    args = parser.parse_args(argv)

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
