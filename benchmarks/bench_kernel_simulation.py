"""Microbenchmarks of the simulator itself: functional kernel launches.

These are genuine wall-clock benchmarks (the figure benches above time
analytic sweeps): they execute tiled kernels over real tensors and are the
numbers to watch when optimizing the simulator's NumPy hot paths.

The engine-speedup benches compare the two execution engines — the
vectorized whole-grid ``"fast"`` path against the per-block interpreted
``"reference"`` path — on single kernels (``SimKernel.simulate(engine=)``)
and on end-to-end functional model runs (``run_batch`` against
``reference_run``), and record the speedup table in the pytest-benchmark
JSON (``BENCH_smoke.json`` via ``make bench-smoke``) so the trajectory
accumulates in CI artifacts.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from repro.core.dtypes import DType
from repro.gpu.specs import RTX_A4000
from repro.ir.layers import ConvKind, ConvSpec, EpilogueSpec
from repro.kernels.params import chain_quant, make_layer_params
from repro.kernels.registry import build_chain_kernel, build_lbl_kernel

_PW = ConvSpec("pw", ConvKind.POINTWISE, 64, 128, 56, 56)
_DW = ConvSpec("dw", ConvKind.DEPTHWISE, 128, 128, 56, 56, kernel=3, stride=1,
               padding=1)


def _ifm(spec, dtype=DType.FP32):
    rng = np.random.default_rng(0)
    if dtype is DType.INT8:
        return rng.integers(-128, 128, spec.ifm.shape).astype(np.int8)
    return rng.standard_normal(spec.ifm.shape).astype(np.float32)


def test_bench_pw_direct(benchmark):
    params = make_layer_params(_PW)
    x = _ifm(_PW)
    kernel_args = {"tile_m": 32, "tile_hw": 256}
    out = benchmark(
        lambda: build_lbl_kernel(params, kernel_args).simulate(x, RTX_A4000)
    )
    assert out.counters.total_bytes > 0


def test_bench_dw_direct(benchmark):
    params = make_layer_params(_DW)
    x = _ifm(_DW)
    kernel_args = {"tile_c": 32, "tile_h": 14, "tile_w": 14}
    out = benchmark(
        lambda: build_lbl_kernel(params, kernel_args).simulate(x, RTX_A4000)
    )
    assert out.counters.total_bytes > 0


@pytest.mark.parametrize("dtype", [DType.FP32, DType.INT8], ids=["fp32", "int8"])
def test_bench_fcm_pwdw_r(benchmark, dtype):
    pw = _PW.with_dtype(dtype)
    dw = _DW.with_dtype(dtype)
    p1 = make_layer_params(pw)
    p2 = chain_quant(p1, dw)
    x = _ifm(pw, dtype)
    tiling = {"tile_f": 32, "tile_h": 14, "tile_w": 14}
    out = benchmark(
        lambda: build_chain_kernel([p1, p2], tiling).simulate(x, RTX_A4000)
    )
    assert out.counters.total_bytes > 0


def test_bench_planner_layer_search(benchmark):
    from repro.planner.search import best_lbl_tiling

    out = benchmark(lambda: best_lbl_tiling(_PW, RTX_A4000))
    assert out.gma_bytes > 0


# ---- fast vs reference engine ------------------------------------------------
def _best_of(fn, rounds: int = 3) -> float:
    fn()  # warm caches / BLAS threads
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_bench_engine_speedup_kernels(benchmark, once, smoke):
    """Single-kernel fast-vs-reference table (fine tiles = many blocks)."""
    rows = []
    cases = [
        ("pw 56x56 coarse", _PW, {"tile_m": 32, "tile_hw": 256}),
        ("pw 56x56 fine", _PW, {"tile_m": 8, "tile_hw": 49}),
        ("dw 56x56 coarse", _DW, {"tile_c": 32, "tile_h": 14, "tile_w": 14}),
        ("dw 56x56 fine", _DW, {"tile_c": 4, "tile_h": 7, "tile_w": 7}),
    ]
    speedups = {}
    for label, spec, tiling in cases:
        params = make_layer_params(spec)
        x = _ifm(spec)
        kernel = build_lbl_kernel(params, tiling)
        t_ref = _best_of(lambda: kernel.simulate(x, RTX_A4000, "reference"))
        t_fast = _best_of(lambda: kernel.simulate(x, RTX_A4000, "fast"))
        speedups[label] = t_ref / t_fast
        rows.append((label, t_ref * 1e3, t_fast * 1e3, t_ref / t_fast))
    print("\nengine speedup (single kernels):")
    print(f"{'case':18s} {'ref ms':>8s} {'fast ms':>8s} {'speedup':>8s}")
    for label, ref_ms, fast_ms, sp in rows:
        print(f"{label:18s} {ref_ms:8.2f} {fast_ms:8.2f} {sp:7.1f}x")
    med = float(np.median(list(speedups.values())))
    print(f"median single-kernel speedup: {med:.1f}x")
    benchmark.extra_info["speedups"] = {k: round(v, 2) for k, v in speedups.items()}
    benchmark.extra_info["median_speedup"] = round(med, 2)
    once(benchmark, lambda: build_lbl_kernel(
        make_layer_params(_PW), {"tile_m": 8, "tile_hw": 49}
    ).simulate(_ifm(_PW), RTX_A4000, "fast"))
    assert all(s > 1.0 for s in speedups.values())


def test_bench_int8_stem_conv(benchmark, once):
    """INT8 standard convolutions run on BLAS like FP32 ones.

    Xception's 32->64 3x3 stem conv on its 149x149 input, through the
    direct reference (``conv2d_standard``) and the explicit-GEMM oracle
    (``conv_via_im2col``), at INT8 and FP32 (best of 3).  An INT8 conv
    accumulating through NumPy's integer matmul or einsum (no BLAS path)
    takes 50x its FP32 twin or more; through the exact float GEMM it takes
    about as long.
    """
    from repro.baselines.im2col import conv_via_im2col
    from repro.core.ops import conv2d_standard

    rng = np.random.default_rng(0)
    operands = {
        DType.INT8: (
            rng.integers(-128, 128, (32, 149, 149)).astype(np.int8),
            rng.integers(-128, 128, (64, 32, 3, 3)).astype(np.int8),
        ),
        DType.FP32: (
            rng.standard_normal((32, 149, 149)).astype(np.float32),
            rng.standard_normal((64, 32, 3, 3)).astype(np.float32),
        ),
    }
    times_ms = {}
    for fn in (conv2d_standard, conv_via_im2col):
        for dtype, (x, w) in operands.items():
            times_ms[f"{fn.__name__}/{dtype.value}"] = 1e3 * _best_of(lambda: fn(x, w))
    print("\nstem conv 32->64 3x3 @ 149x149 (best of 3):")
    for key, ms in times_ms.items():
        print(f"{key:24s} {ms:8.2f} ms")
    benchmark.extra_info["stem_conv_ms"] = {k: round(v, 3) for k, v in times_ms.items()}
    x, w = operands[DType.INT8]
    once(benchmark, lambda: conv2d_standard(x, w))
    for fn in (conv2d_standard, conv_via_im2col):
        name = fn.__name__
        assert times_ms[f"{name}/int8"] <= 5 * times_ms[f"{name}/fp32"], times_ms


#: CeiT's LeFF expansion (``blk*_leff_pw1``): 192->768 PW at 14x14, norm + GELU.
_LEFF_PW = ConvSpec("leff_pw1", ConvKind.POINTWISE, 192, 768, 14, 14,
                    epilogue=EpilogueSpec(norm=True, activation="gelu"))


def test_bench_gelu_epilogue(benchmark, once):
    """GELU epilogues cost a small multiple of ReLU ones.

    ``ConvEpilogue.apply`` on CeiT's 768x14x14 LeFF tile, into an output
    buffer as the kernels call it, with GELU and with ReLU, at FP32 and
    INT8 (best of 5).  A GELU cubing through libm ``pow`` (``x**3``) costs
    50-70x the ReLU epilogue at FP32 and 15-19x at INT8; ``x * x * x``
    costs 5-6x and 2-3x.
    """
    rng = np.random.default_rng(0)
    times_ms = {}
    ratios = {}
    for dtype in (DType.FP32, DType.INT8):
        if dtype is DType.INT8:
            acc = rng.integers(-20000, 20000, (768, 14 * 14)).astype(np.int32)
        else:
            acc = rng.standard_normal((768, 14 * 14)).astype(np.float32)
        out = np.empty(acc.shape, dtype=dtype.np_dtype)
        for act in ("relu", "gelu"):
            spec = replace(_LEFF_PW, epilogue=EpilogueSpec(norm=True, activation=act))
            epi = make_layer_params(spec.with_dtype(dtype)).epilogue
            times_ms[f"{act}/{dtype.value}"] = 1e3 * _best_of(
                lambda: epi.apply(acc, 0, 768, dtype, out=out), rounds=5
            )
        ratios[dtype.value] = times_ms[f"gelu/{dtype.value}"] / times_ms[f"relu/{dtype.value}"]
    print("\nepilogue on the 768x14x14 LeFF tile (best of 5):")
    for key, ms in times_ms.items():
        print(f"{key:12s} {ms:8.3f} ms")
    print("gelu/relu: " + ", ".join(f"{k} {v:.1f}x" for k, v in ratios.items()))
    benchmark.extra_info["epilogue_ms"] = {k: round(v, 4) for k, v in times_ms.items()}
    benchmark.extra_info["gelu_over_relu"] = {k: round(v, 2) for k, v in ratios.items()}
    once(benchmark, lambda: epi.apply(acc, 0, 768, dtype, out=out))
    assert all(r <= 12 for r in ratios.values()), ratios


def test_bench_engine_speedup_models(benchmark, once, smoke):
    """End-to-end functional model runs, fast vs reference engine.

    Emits the per-config wall clocks and the median speedup into the
    benchmark JSON (``BENCH_smoke.json`` under ``extra_info``) — the number
    the fast-path acceptance tracks.
    """
    from repro.runtime.session import build_session, reference_run, seeded_input

    configs = [
        ("mobilenet_v1", DType.FP32),
        ("mobilenet_v2", DType.INT8),
    ]
    if not smoke:
        configs += [
            ("mobilenet_v2", DType.FP32),
            ("mobilenet_v1", DType.INT8),
            ("proxylessnas", DType.FP32),
            ("xception", DType.INT8),
        ]
    rows = []
    speedups = {}
    first_run = None
    for model, dtype in configs:
        session = build_session(model, RTX_A4000, dtype)
        x = seeded_input(session.graph, dtype)[None]
        if first_run is None:
            first_run = (session, x)
        t_ref = _best_of(lambda: reference_run(session, x), rounds=2)
        t_fast = _best_of(lambda: session.run_batch(x), rounds=2)
        key = f"{model}/{dtype.value}"
        speedups[key] = t_ref / t_fast
        rows.append((key, t_ref * 1e3, t_fast * 1e3, t_ref / t_fast))
    print("\nengine speedup (end-to-end functional model runs):")
    print(f"{'model/dtype':22s} {'ref ms':>9s} {'fast ms':>9s} {'speedup':>8s}")
    for key, ref_ms, fast_ms, sp in rows:
        print(f"{key:22s} {ref_ms:9.1f} {fast_ms:9.1f} {sp:7.1f}x")
    med = float(np.median(list(speedups.values())))
    print(f"median end-to-end speedup: {med:.1f}x")
    benchmark.extra_info["speedups"] = {k: round(v, 2) for k, v in speedups.items()}
    benchmark.extra_info["median_speedup"] = round(med, 2)
    session, x = first_run
    once(benchmark, lambda: session.run_batch(x))
    assert all(s > 1.0 for s in speedups.values())
