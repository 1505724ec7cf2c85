"""One fresh-interpreter run of one workload: set-up, one unit of work, result.

``run.py`` starts this script several times per run, with ``PYTHONHASHSEED``
pinned and BLAS on one thread, and reads the JSON object it prints as its
last line of standard output.  The set-up clock starts before the program
is imported, so ``setup_s`` covers imports too.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--spans", default="", help="where a traced run writes its spans")
    args = ap.parse_args()

    import repro
    import workloads

    # Imports are interpreter-bound; rescaled like the other set-up parts.
    import_s = time.perf_counter() - T0
    setup_parts = [["import", import_s / workloads.slowdown(workloads.PYTHON_PROBE)]]

    src = (Path.cwd() / "src").resolve()
    if Path(repro.__file__).resolve().parent.parent != src:
        print(f"repro imported from {repro.__file__}, not from {src}", file=sys.stderr)
        return 2
    rec = None
    if args.trace:
        import tracing

        rec = tracing.install()
    workload = workloads.WORKLOADS[args.workload](args.seed, args.tiny)
    workload.setup()
    setup_parts += workload.setup_parts
    # As a long-lived server would: keep the set-up heap (plans, weights,
    # graphs) out of the collector's view, so each full collection during
    # the unit does not rescan it.  Without this one chaos stream's time
    # spread 12% between repeats in one interpreter, with it 9%.
    gc.freeze()
    unit = workload.run_unit()
    if rec is not None:
        rec.enabled = False
    workload.post(unit)
    result = {
        "setup_s": sum(seconds for _label, seconds in setup_parts),
        "setup_parts": setup_parts,
        "host_s": unit.host_s,
        "parts": unit.parts,
        "items": unit.items,
        "attempted": unit.attempted,
        "failed": unit.failed,
        "errors": unit.errors,
        "samples": unit.samples,
        "rungs": unit.rungs,
        "sim": unit.sim,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "python": platform.python_version(),
        "numpy": workloads.np.__version__,
    }
    if rec is not None:
        from repro.planner.memo import shared_memo

        result["layers"] = tracing.layer_metrics(rec, unit.layers, shared_memo())
        result["spans"] = tracing.span_table(rec)
        if args.spans:
            rec.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
