# Developer entry points. Everything runs offline on the simulated substrate.
PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test test-slo test-planner bench-smoke bench-paper bench examples perf-selftest tune-smoke trace-smoke chaos-smoke docs-check lint profile

## tier-1 suite — must stay green (ROADMAP.md)
test:
	$(PYTHON) -m pytest -x -q

## just the SLO traffic-layer suite (fast iteration on serve/admission/autoscale)
test-slo:
	$(PYTHON) -m pytest tests/test_slo.py -q

## vectorized-search parity suite + the workers determinism guard
test-planner:
	$(PYTHON) -m pytest tests/test_planner_vectorized.py tests/test_workers.py -q

## quick serving + fleet + tuning + one-figure artifact pass (no full fig10
## sweep); emits BENCH_smoke.json so the bench trajectory accumulates in CI
## artifacts
bench-smoke:
	$(PYTHON) -m pytest benchmarks/bench_serving_throughput.py \
	    benchmarks/bench_table2_fusion_cases.py \
	    benchmarks/bench_fleet_scaling.py \
	    benchmarks/bench_kernel_simulation.py \
	    benchmarks/bench_slo.py \
	    benchmarks/bench_tuning.py \
	    benchmarks/bench_planner_speed.py \
	    benchmarks/bench_fault_tolerance.py \
	    benchmarks/bench_obs_overhead.py --smoke \
	    --benchmark-only --benchmark-json=BENCH_smoke.json -q -s

## the paper-artifact benches bench-smoke leaves out: Fig. 1 and 6-11,
## Table III, the tiling ablation and chain planning (a few seconds)
bench-paper:
	$(PYTHON) -m pytest benchmarks/bench_ablation_tiling.py \
	    benchmarks/bench_chain_planner.py \
	    benchmarks/bench_fig01_motivation.py \
	    benchmarks/bench_fig06_speedup_fp32.py \
	    benchmarks/bench_fig07_speedup_int8.py \
	    benchmarks/bench_fig08_gma_breakdown.py \
	    benchmarks/bench_fig09_cudnn.py \
	    benchmarks/bench_fig10_end2end.py \
	    benchmarks/bench_fig11_energy.py \
	    benchmarks/bench_table3_roofline.py \
	    --benchmark-only -q

## every script under examples/, run to completion (a few seconds)
examples:
	for f in examples/*.py; do echo "== $$f"; $(PYTHON) $$f || exit 1; done

## the repo benchmark's own tests (perfbench/selftest.py, ~2 min on 2 cores):
## tiny runs of every BENCHMARK.json workload, traced and untraced, so every
## entry point perfbench/tracing.py patches must still resolve and
## fleet_replay must keep every argument perfbench/workloads.py passes
perf-selftest:
	python3 -m pytest perfbench/selftest.py -q

## measure one model on one GPU and emit the tuning DB (TUNE_smoke.json);
## CI uploads it next to the bench trajectory artifacts
tune-smoke:
	rm -f TUNE_smoke.json
	$(PYTHON) -m repro.cli tune run --models mobilenet_v1 --gpus GTX \
	    --db TUNE_smoke.json --mode guided --iterations 8
	$(PYTHON) -m repro.cli tune show --db TUNE_smoke.json

## short deterministic autoscaled fleet replay -> Chrome-trace JSON +
## Prometheus text (TRACE_smoke.json / METRICS_smoke.txt, CI artifacts) and
## the --explain routing lines rendered from that same tracer, then the
## offline trace summary as a smoke test of tools/trace_view.py
trace-smoke:
	$(PYTHON) -m repro.cli fleet --gpus RTX,RTX --models mobilenet_v2,xception \
	    --requests 48 --rate 20000 --autoscale 1:4 --cooldown-ms 2 \
	    --trace-out TRACE_smoke.json --metrics-out METRICS_smoke.txt --explain
	$(PYTHON) tools/trace_view.py TRACE_smoke.json

## seeded chaos replay over a 4-worker fleet (crashes + recoveries, retries,
## failover) -> canonical availability/retry accounting in CHAOS_smoke.json
## (CI artifact); the run is deterministic, so the file is diffable across
## commits exactly like a bench trajectory
chaos-smoke:
	$(PYTHON) -m repro.cli fleet --gpus GTX,GTX,GTX,GTX \
	    --models mobilenet_v1,mobilenet_v2 --requests 64 --rate 8000 \
	    --slo-ms 12 --chaos 4:0.5 --retries 2 --retry-budget 0.5 \
	    --chaos-out CHAOS_smoke.json

## every paper artifact + the serving sweep (slow); the files are named
## explicitly because pytest only collects test_*.py from a directory
bench:
	$(PYTHON) -m pytest benchmarks/bench_*.py --benchmark-only -q -s

## cProfile top-25 of one MobileNetV2 functional run (fast engine) — the
## starting point for simulator performance work; pass ARGS="--what plan"
## (planning in isolation), ARGS="--what replay" (one 2000-request fleet
## replay: the serving bookkeeping), ARGS="--reference" (the per-block
## kernel oracle, or with --what plan the scalar tile sweeps), etc.
profile:
	$(PYTHON) tools/profile_run.py mobilenet_v2 --top 25 $(ARGS)

## fail if README.md / docs reference modules, commands or files that don't exist
docs-check:
	$(PYTHON) tools/docs_check.py README.md docs/architecture.md .claude/skills/verify/SKILL.md

## static checks: ruff (provisioned in CI; run `pip install ruff` locally)
## plus the in-tree AST invariant linter (determinism / parity / layering —
## see repro.analysis), which emits the canonical JSON report CI archives
lint:
	$(PYTHON) -m repro.analysis src --format json --output ANALYSIS_report.json
	$(PYTHON) -m ruff check src tests benchmarks tools examples
