"""Run one workload of the repo's benchmark and print its metrics.

    python3 perfbench/run.py --workload serve_replay --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout: the program is imported from ``src/``.
Each run starts the workload in at least three fresh interpreters, one after
the other (``child.py``).  Each one sets up from cold, which is what
``setup_s`` measures, then does one fixed unit of work on the host clock and
checks its outputs.  More interpreters are started while the measured time
falls short of ``--seconds`` by more than half a unit.  Set-up and unit are
timed as named parts, each rescaled to a reference host speed by a probe
timed around it (``workloads.timed_rescaled``): ``setup_s`` sums each
part's median over the interpreters, the unit time each part's minimum.
Simulated (``sim_*``) metrics depend only on the seed, so every interpreter
must report them identically; a mismatch counts as a failed check.

With ``--trace 1`` the interpreters run with timing spans around each
layer's public entry points (``tracing.py``) and the run prints the
per-layer table and metrics instead.  One extra untraced interpreter gives
the tracing overhead.  The last line of standard output is always one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
MIN_PROCESSES = 3
MAX_PROCESSES = 8
#: no further interpreter starts after this much wall time (a run must end
#: within 180 s).
WALL_BUDGET_S = 110.0
RUN_LIMIT_S = 170.0
#: where traced runs write their spans, inside the checkout.
SPAN_DIR = Path(".perfbench-out")

#: each workload's name for its host-clock figure: (name, unit), where unit
#: "s" means the unit's seconds and any other the item rate.
HOST_NAMES = {
    "paper_sweep": ("sweep_s", "s"),
    "serve_replay": ("replay_req_per_s", "req/s"),
    "chaos_replay": ("replay_req_per_s", "req/s"),
    "functional": ("infer_img_per_s", "img/s"),
}


class ChildFailed(RuntimeError):
    pass


#: BLAS threads per interpreter.  One, not one per core: on a 2-core shared
#: host a second BLAS thread contends with the host's other load, and the
#: xception INT8 request's time then swung by 2x between repeats (1.5-3.1 s)
#: against 1.24-1.74 s single-threaded, which was also faster.
BLAS_THREADS = 1


def child_env() -> dict[str, str]:
    """Pinned hash seed (weights seed from builtin ``hash()``), BLAS threads
    pinned to :data:`BLAS_THREADS`, the checkout's ``src/``."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(Path.cwd() / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def spawn(args, index: int, trace: int, env, timeout: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "child.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--trace", str(trace),
    ]
    if args.tiny:
        cmd.append("--tiny")
    if trace:
        SPAN_DIR.mkdir(exist_ok=True)
        spans = SPAN_DIR / f"spans-{args.workload}-seed{args.seed}-{index}.jsonl"
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"process {index} did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"process {index} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_processes(args, trace: int, env, start: float) -> list[dict]:
    results: list[dict] = []
    needed = MIN_PROCESSES
    while len(results) < needed:
        remaining = RUN_LIMIT_S - (time.monotonic() - start)
        results.append(spawn(args, len(results), trace, env, remaining))
        if len(results) == 1:
            unit_s = max(results[0]["host_s"], 1e-9)
            needed = max(MIN_PROCESSES, min(MAX_PROCESSES, round(args.seconds / unit_s)))
        if time.monotonic() - start > WALL_BUDGET_S:
            break
    return results


def sum_over_parts(procs: list[dict], key: str, pick) -> float:
    """Sum over part labels of ``pick`` (min or median) of each label's
    seconds across processes."""
    by_label: dict[str, list[float]] = {}
    for p in procs:
        for label, seconds in p[key]:
            by_label.setdefault(label, []).append(seconds)
    return sum(pick(v) for v in by_label.values())


def table(rows, headers) -> str:
    widths = [max(len(str(x)) for x in col) for col in zip(headers, *rows)]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    return "\n".join([fmt.format(*headers)] + [fmt.format(*map(str, r)) for r in rows])


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every workload (the benchmark's own tests)")
    args = ap.parse_args()

    bench_file = Path("BENCHMARK.json")
    if not (Path("src") / "repro" / "__init__.py").is_file() or not bench_file.is_file():
        print("run from the root of a checkout: src/repro and BENCHMARK.json are "
              "needed", file=sys.stderr)
        return 2
    bench = json.loads(bench_file.read_text())
    workloads = {w["name"]: w for w in bench["workloads"]}
    if args.workload not in workloads:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads)}",
              file=sys.stderr)
        return 2
    declared = {m["name"]: m for m in bench["per_layer" if args.trace else "end_to_end"]}

    start = time.monotonic()
    env = child_env()
    try:
        procs = run_processes(args, args.trace, env, start)
        reference = []
        if args.trace:
            remaining = RUN_LIMIT_S - (time.monotonic() - start)
            reference = [spawn(args, len(procs), 0, env, remaining)]
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in procs + reference)
    failed = sum(p["failed"] for p in procs + reference)
    errors = [e for p in procs + reference for e in p["errors"]]
    sims = [(p["sim"], p["items"]) for p in procs + reference]
    attempted += 1
    if any(s != sims[0] for s in sims):
        failed += 1
        errors.append("simulated metrics or item counts differ between processes")

    # Host noise here only ever slows a part down, so the fastest process
    # per part estimates the program's own speed (run-to-run spread of the
    # per-part minimum was a third of the median's on a 2-core VM).
    unit_s = sum_over_parts(procs, "parts", min)
    rate = procs[0]["items"] / unit_s
    if args.trace:
        metrics = {
            name: statistics.median(p["layers"][name] for p in procs)
            for name in procs[0]["layers"]
        }
        metrics["trace.overhead_share"] = (
            unit_s / sum_over_parts(reference, "parts", min) - 1.0
        )
    else:
        metrics = {
            "setup_s": sum_over_parts(procs, "setup_parts", statistics.median),
            "peak_rss_mb": max(p["rss_mb"] for p in procs),
            "host_items_per_s": rate,
            **procs[0]["sim"],
        }
    if set(metrics) != set(declared):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(declared))} are not "
              "both emitted and declared in BENCHMARK.json", file=sys.stderr)
        return 1

    print(f"perfbench {args.workload}: seed {args.seed}, --seconds {args.seconds:g}, "
          f"trace {args.trace}{', tiny' if args.tiny else ''}")
    print(f"  why: {workloads[args.workload]['why']}")
    print(f"  host: {len(os.sched_getaffinity(0))} cores ({os.cpu_count()} online), "
          f"Python {procs[0]['python']}, NumPy {procs[0]['numpy']}, "
          f"PYTHONHASHSEED={env['PYTHONHASHSEED']}, BLAS threads {env['OMP_NUM_THREADS']}")
    print(table(
        [[i, f"{p['setup_s']:.3f}", f"{p['host_s']:.3f}", p["items"],
          f"{p['rss_mb']:.0f}", "traced" if args.trace and i < len(procs) else "untraced"]
         for i, p in enumerate(procs + reference)],
        ["process", "setup_s", "unit_s", "items", "rss_mb", "mode"],
    ))
    if procs[0]["rungs"]:
        print(table(
            [[f"{r[0]:g}", f"{r[1]:.4f}", f"{r[2]:.4f}", f"{r[3]:.4f}", f"{r[4]:.2f}", r[5]]
             for r in procs[0]["rungs"]],
            ["offered_rps", "slo_attainment", "sim_p50_ms", "sim_p99_ms", "mean_batch", "shed"],
        ))
    if args.trace:
        names = sorted({n for p in procs for n in p["spans"]})
        print(table(
            [[n] + [f"{statistics.median(p['spans'].get(n, [0, 0, 0])[k] for p in procs):.6g}"
                    for k in range(3)] for n in names],
            ["span (median over traced processes)", "calls", "total_s", "self_s"],
        ))
        print(f"  spans written to {SPAN_DIR}/; tracing overhead "
              f"{metrics['trace.overhead_share']:+.1%} of the untraced unit time")
    else:
        label, unit = HOST_NAMES[args.workload]
        value = unit_s if unit == "s" else rate
        print(f"  {label} = {value:.6g} {unit}; failed_share = "
              f"{1.0 - metrics['served_share']:.6g} (shed + lost + failed checks "
              f"over attempted); sim percentiles over {procs[0]['samples']} samples")
    print(table(
        [[name, f"{metrics[name]:.6g}", declared[name]["unit"], declared[name].get("better", "")]
         for name in declared],
        ["metric", "value", "unit", "better"],
    ))
    for e in errors[:20]:
        print(f"  FAILED CHECK: {e}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": declared[name]["unit"]}
            for name in declared
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
