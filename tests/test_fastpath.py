"""Fast-path engine: vectorized whole-grid execution vs the reference path.

The contract under test: for every kernel family, dtype and tiling edge
case, the ``"fast"`` engine's outputs are allclose to the ``"reference"``
engine at dtype tolerance (bit-equal for INT8) while its
:class:`~repro.gpu.counters.AccessCounters` and
:class:`~repro.gpu.executor.LaunchStats` are **exactly** equal.  The fast
engine reports the measured model's counters, so these are the model's
closed forms checked against per-block sums, not approximations.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import dw_spec, per_tap_depthwise, pw_spec, random_ifm, register_tiny_zoo
from repro.core.dtypes import DType
from repro.core.fcm import FcmType
from repro.core.ops import out_dim
from repro.core.tiling import tile_windows
from repro.errors import SimulationError, TuneError
from repro.gpu.counters import AccessCounters
from repro.gpu.fastpath import DEFAULT_ENGINE, grid_depthwise, resolve_engine
from repro.gpu.specs import RTX_A4000
from repro.kernels.params import chain_quant, make_layer_params
from repro.kernels.registry import build_chain_kernel, build_lbl_kernel

_DTYPES = (DType.FP32, DType.INT8)


def assert_counters_equal(a: AccessCounters, b: AccessCounters) -> None:
    """Exact equality, field by field (clearer diffs than dataclass ==)."""
    assert dict(a.global_reads) == dict(b.global_reads)
    assert dict(a.global_writes) == dict(b.global_writes)
    assert a.shared_bytes == b.shared_bytes
    assert a.macs == b.macs
    assert a.redundant_macs == b.redundant_macs
    assert a.kernel_launches == b.kernel_launches
    assert a.rereads == b.rereads


def assert_outputs_match(fast: np.ndarray, ref: np.ndarray, dtype: DType) -> None:
    if dtype is DType.INT8:
        np.testing.assert_array_equal(fast, ref)
    else:
        np.testing.assert_allclose(fast, ref, rtol=1e-4, atol=1e-4)


def assert_parity(make_kernel, ifm: np.ndarray, dtype: DType) -> None:
    """Run fast and reference on fresh kernel instances and compare all."""
    ref = make_kernel().simulate(ifm, RTX_A4000, engine="reference")
    fast = make_kernel().simulate(ifm, RTX_A4000, engine="fast")
    assert_outputs_match(fast.output, ref.output, dtype)
    assert_counters_equal(fast.counters, ref.counters)
    assert fast.stats == ref.stats
    # Identical counters price identically through the roofline.
    assert fast.time_s == ref.time_s


# ---- parity matrix: kernel family x dtype x edge-case geometry ---------------
#: (h, kernel, stride, tile_c, tile_hw-ish) DW edge cases: odd remainders,
#: stride-2 non-divisible geometry, single-tile, halo-heavy 5x5.
_DW_CASES = [
    (13, 3, 1, 4, 5),  # odd remainder rows/cols
    (14, 5, 2, 3, 4),  # stride 2, 5x5 halo, channel remainder
    (12, 3, 2, 16, 16),  # one tile covers everything
    (7, 5, 1, 1, 2),  # tile far smaller than halo
]


@pytest.mark.parametrize("dtype", _DTYPES, ids=[d.value for d in _DTYPES])
@pytest.mark.parametrize("case", _DW_CASES, ids=lambda c: f"h{c[0]}k{c[1]}s{c[2]}")
def test_dw_direct_parity(dtype, case):
    h, k, s, tc, th = case
    spec = dw_spec(c=10, h=h, w=h, kernel=k, stride=s, dtype=dtype)
    params = make_layer_params(spec)
    x = random_ifm(spec)
    assert_parity(
        lambda: build_lbl_kernel(params, {"tile_c": tc, "tile_h": th, "tile_w": th}),
        x,
        dtype,
    )


@pytest.mark.parametrize("dtype", _DTYPES, ids=[d.value for d in _DTYPES])
@pytest.mark.parametrize(
    "stride,tile_m,tile_hw", [(1, 5, 7), (2, 3, 11), (1, 64, 4096)]
)
def test_pw_direct_parity(dtype, stride, tile_m, tile_hw):
    spec = pw_spec(c_in=7, c_out=13, h=11, w=11, stride=stride, dtype=dtype)
    params = make_layer_params(spec)
    x = random_ifm(spec)
    assert_parity(
        lambda: build_lbl_kernel(params, {"tile_m": tile_m, "tile_hw": tile_hw}),
        x,
        dtype,
    )


@pytest.mark.parametrize("dtype", _DTYPES, ids=[d.value for d in _DTYPES])
def test_dwpw_parity(dtype):
    dw = dw_spec(c=8, h=13, w=13, kernel=3, stride=1, dtype=dtype)
    pw = pw_spec("pw2", c_in=8, c_out=12, h=13, w=13, dtype=dtype)
    p1 = make_layer_params(dw)
    p2 = chain_quant(p1, pw)
    x = random_ifm(dw)
    assert_parity(
        lambda: build_chain_kernel([p1, p2], {"tile_h": 5, "tile_w": 4, "tile_m": 5}),
        x,
        dtype,
    )


@pytest.mark.parametrize("dtype", _DTYPES, ids=[d.value for d in _DTYPES])
@pytest.mark.parametrize("fcm", [FcmType.PWDW, FcmType.PWDW_R])
def test_pwdw_parity(dtype, fcm):
    pw = pw_spec(c_in=6, c_out=10, h=9, w=9, dtype=dtype)
    dw = dw_spec("dw2", c=10, h=9, w=9, kernel=3, stride=2, dtype=dtype)
    p1 = make_layer_params(pw)
    p2 = chain_quant(p1, dw)
    x = random_ifm(pw)
    tiling = {"tile_f": 4}
    if fcm is FcmType.PWDW_R:
        tiling.update(tile_h=3, tile_w=2)  # odd remainders on a 5x5 output
    assert_parity(lambda: build_chain_kernel([p1, p2], tiling), x, dtype)


@pytest.mark.parametrize("dtype", _DTYPES, ids=[d.value for d in _DTYPES])
def test_pwpw_parity(dtype):
    pw1 = pw_spec(c_in=6, c_out=10, h=9, w=9, dtype=dtype)
    pw2 = pw_spec("pwb", c_in=10, c_out=9, h=9, w=9, dtype=dtype)
    p1 = make_layer_params(pw1)
    p2 = chain_quant(p1, pw2)
    x = random_ifm(pw1)
    assert_parity(
        lambda: build_chain_kernel([p1, p2], {"tile_hw": 13, "tile_m": 4}),
        x,
        dtype,
    )


@pytest.mark.parametrize("dtype", _DTYPES, ids=[d.value for d in _DTYPES])
def test_chain3_parity(dtype):
    """The max_chain=3 kernel: PW -> DW -> PW, odd tile remainders."""
    pw_a = pw_spec("A", c_in=6, c_out=8, h=12, w=12, dtype=dtype)
    dw_b = dw_spec("B", c=8, h=12, w=12, kernel=3, stride=1, dtype=dtype)
    pw_c = pw_spec("C", c_in=8, c_out=10, h=12, w=12, dtype=dtype)
    p_a = make_layer_params(pw_a)
    p_b = chain_quant(p_a, dw_b)
    p_c = chain_quant(p_b, pw_c)
    x = random_ifm(pw_a)
    assert_parity(
        lambda: build_chain_kernel(
            [p_a, p_b, p_c], {"tile_h": 5, "tile_w": 4, "tile_m": 4}
        ),
        x,
        dtype,
    )


@pytest.mark.parametrize("dtype", _DTYPES, ids=[d.value for d in _DTYPES])
def test_chain3_strided_middle_parity(dtype):
    """Chain with a stride-2 middle DW: boundary windows shrink mid-chain."""
    pw_a = pw_spec("A", c_in=4, c_out=6, h=14, w=14, dtype=dtype)
    dw_b = dw_spec("B", c=6, h=14, w=14, kernel=3, stride=2, dtype=dtype)
    pw_c = pw_spec("C", c_in=6, c_out=8, h=7, w=7, dtype=dtype)
    p_a = make_layer_params(pw_a)
    p_b = chain_quant(p_a, dw_b)
    p_c = chain_quant(p_b, pw_c)
    x = random_ifm(pw_a)
    assert_parity(
        lambda: build_chain_kernel(
            [p_a, p_b, p_c], {"tile_h": 3, "tile_w": 5, "tile_m": 8}
        ),
        x,
        dtype,
    )


# ---- property test: the model's counters == sum of per-block charges ----------
@settings(max_examples=25, deadline=None)
@given(
    c=st.sampled_from([2, 7, 12]),
    h=st.integers(5, 16),
    kernel=st.sampled_from([3, 5]),
    stride=st.integers(1, 2),
    tile_c=st.sampled_from([1, 3, 16]),
    tile_h=st.sampled_from([2, 5, 16]),
    dtype=st.sampled_from(_DTYPES),
)
def test_dw_bulk_charges_equal_per_block_sums(c, h, kernel, stride, tile_c, tile_h, dtype):
    """The fast launch reports the model's counters; the reference launch's
    per-block sums must equal them."""
    spec = dw_spec(c=c, h=h, w=h, kernel=kernel, stride=stride, dtype=dtype)
    params = make_layer_params(spec)
    tiling = {"tile_c": tile_c, "tile_h": tile_h, "tile_w": tile_h}
    assert_parity(lambda: build_lbl_kernel(params, tiling), random_ifm(spec), dtype)


@settings(max_examples=25, deadline=None)
@given(
    c=st.sampled_from([3, 8]),
    m=st.sampled_from([4, 11]),
    h=st.integers(4, 12),
    stride=st.integers(1, 2),
    tile_m=st.sampled_from([1, 3, 64]),
    tile_hw=st.sampled_from([5, 16, 1024]),
    dtype=st.sampled_from(_DTYPES),
)
def test_pw_bulk_charges_equal_per_block_sums(c, m, h, stride, tile_m, tile_hw, dtype):
    """:func:`test_dw_bulk_charges_equal_per_block_sums` for PW launches."""
    spec = pw_spec(c_in=c, c_out=m, h=h, w=h, stride=stride, dtype=dtype)
    params = make_layer_params(spec)
    tiling = {"tile_m": tile_m, "tile_hw": tile_hw}
    assert_parity(lambda: build_lbl_kernel(params, tiling), random_ifm(spec), dtype)


@settings(max_examples=60, deadline=None)
@given(
    c=st.integers(1, 9),
    h=st.integers(1, 13),
    w=st.integers(1, 13),
    kernel=st.sampled_from([1, 3, 5, 7]),
    stride=st.sampled_from([1, 2]),
    values=st.sampled_from(["fp32", "fp32-signed-zeros", "int32"]),
    data=st.data(),
)
def test_grid_depthwise_equals_per_tap_oracle(c, h, w, kernel, stride, values, data):
    """The flat-row ``grid_depthwise`` equals the per-tap form byte for byte
    on the paddings a layer gives (``row_off = col_off = padding``).  With
    signed zeros, channel 0 has zero weights over non-positive inputs: its
    products are -0.0, and only a sum started at +0.0 gives +0.0."""
    padding = data.draw(st.integers(0, kernel // 2), label="padding")
    assume(min(h, w) + 2 * padding >= kernel)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    if values == "int32":
        x = rng.integers(-128, 128, (c, h, w)).astype(np.int8)
        weights = rng.integers(-128, 128, (c, kernel, kernel)).astype(np.int8)
        acc_dtype = np.int32
    else:
        x = rng.standard_normal((c, h, w)).astype(np.float32)
        weights = rng.standard_normal((c, kernel, kernel)).astype(np.float32)
        acc_dtype = np.float32
        if values == "fp32-signed-zeros":
            x[rng.random(x.shape) < 0.3] = -0.0
            weights[rng.random(weights.shape) < 0.3] = 0.0
            x[0] = -np.abs(x[0])
            weights[0] = 0.0
    args = (
        x, weights, out_dim(h, kernel, stride, padding), out_dim(w, kernel, stride, padding),
        padding, padding, kernel, stride, acc_dtype,
    )
    got = grid_depthwise(*args)
    want = per_tap_depthwise(*args)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert np.ascontiguousarray(got).tobytes() == want.tobytes()


def test_axis_extent_helpers():
    # 3x3 stride-1 pad-1 over 6 rows, tile 4: first window clamped at the
    # top border, second at the bottom.
    assert tile_windows(6, 4, ((3, 1, 1, 6),))[0] == ((0, 5), (3, 6))
    # PW -> 3x3 stride-2 pad-1 DW over 12 rows (6 output rows), tile 4:
    # every boundary's ranges, the DW halo clamped at both borders and the
    # PW passing it through unchanged.
    assert tile_windows(6, 4, ((1, 1, 0, 12), (3, 2, 1, 12))) == (
        ((0, 8), (7, 12)),
        ((0, 8), (7, 12)),
        ((0, 4), (4, 6)),
    )


# ---- engine selection --------------------------------------------------------
def test_unknown_engine_rejected():
    spec = pw_spec()
    params = make_layer_params(spec)
    kernel = build_lbl_kernel(params, {"tile_m": 8, "tile_hw": 32})
    with pytest.raises(SimulationError):
        kernel.simulate(random_ifm(spec), RTX_A4000, engine="warp")
    assert resolve_engine(None) == DEFAULT_ENGINE == "fast"
    with pytest.raises(SimulationError):
        resolve_engine("turbo")


def test_kernel_without_meter_or_model_cannot_be_built():
    """Every kernel keeps its per-block program and its counter model:
    ``run_block`` and ``model_counters`` are abstract, so a subclass that
    drops either fails at construction (the fast pass,
    ``SimKernel.forward``, is the base class's own)."""
    from repro.core.tiling import PwTiling
    from repro.kernels.base import SimKernel
    from repro.kernels.direct_pw import PwDirectKernel

    params = make_layer_params(pw_spec())
    assert {"run_block", "model_counters"} <= SimKernel.__abstractmethods__
    assert "forward" not in SimKernel.__abstractmethods__

    for method in ("run_block", "model_counters"):
        legacy = type("Legacy", (PwDirectKernel,), {method: getattr(SimKernel, method)})
        with pytest.raises(TypeError, match=method):
            legacy(params, PwTiling(8, 32))


def test_forward_counts_nothing():
    """One counter model and one fast pass: ``SimKernel.forward`` is the only
    ``forward`` under ``src/repro/kernels``, takes no counters and calls no
    counter method (a fast launch reports ``model_counters``)."""
    counting = {"read", "write", "smem", "compute", "reread", "merge"}
    kernels = Path(__file__).resolve().parents[1] / "src" / "repro" / "kernels"
    defs, calls = [], []
    for path in sorted(kernels.rglob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "forward":
                    defs.append((path.name, cls.name, [a.arg for a in fn.args.args]))
                    calls += [
                        (path.name, node.lineno, node.func.attr)
                        for node in ast.walk(fn)
                        if isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in counting
                    ]
    assert defs == [("base.py", "SimKernel", ["self", "ifm"])]
    assert calls == []


def test_fast_launch_binds_no_buffer(monkeypatch):
    """A fast launch computes on the arrays themselves: no kernel family
    builds an instrumented ``GlobalBuffer`` (only the reference meter does)."""
    from repro.gpu.memory import GlobalBuffer

    dw, pw = dw_spec(c=6, h=8, w=8), pw_spec(c_in=6, c_out=5, h=8, w=8)
    dwp = make_layer_params(dw)
    kernels = [
        build_lbl_kernel(dwp, {"tile_c": 4, "tile_h": 4, "tile_w": 4}),
        build_lbl_kernel(make_layer_params(pw), {"tile_m": 4, "tile_hw": 16}),
        build_chain_kernel(
            [dwp, chain_quant(dwp, pw)], {"tile_h": 4, "tile_w": 4, "tile_m": 4}
        ),
    ]

    def refuse(*args, **kwargs):
        raise AssertionError("fast launch built a GlobalBuffer")

    monkeypatch.setattr(GlobalBuffer, "__init__", refuse)
    ifm = random_ifm(dw)
    for kernel in kernels:
        kernel.simulate(ifm, RTX_A4000, engine="fast")
        kernel.simulate_batch(np.stack([ifm, ifm]), RTX_A4000, engine="fast")
    with pytest.raises(AssertionError, match="GlobalBuffer"):
        kernels[0].simulate(ifm, RTX_A4000, engine="reference")


def test_removed_engine_selectors_are_rejected(monkeypatch):
    """The oracles live on SimKernel.simulate(engine=), reference_run and
    ScalarPlanner; no session, planner, search or tuning call selects one."""
    from repro.planner.planner import FusePlanner
    from repro.planner.search import best_lbl_tiling
    from repro.runtime.session import InferenceSession, build_session
    from repro.tune.calibrate import fit_calibration
    from repro.tune.measure import measure_model, tune_models, tune_step_tiling
    from repro.tune.records import TuningDB

    register_tiny_zoo(monkeypatch)
    with pytest.raises(TypeError, match="search_engine"):
        FusePlanner(RTX_A4000, search_engine="reference")
    with pytest.raises(TypeError, match="engine"):
        best_lbl_tiling(pw_spec(), RTX_A4000, engine="reference")
    session = build_session("tiny_a", RTX_A4000)
    with pytest.raises(TypeError, match="engine"):
        InferenceSession(session.graph, session.plan, session.params, engine="reference")
    with pytest.raises(TypeError, match="engine"):
        build_session("tiny_a", RTX_A4000, engine="reference")
    with pytest.raises(TypeError, match="engine"):
        tune_models(["tiny_a"], [RTX_A4000], engine="reference")
    # Tuning measures through the analytic counters only: no kernel backend.
    with pytest.raises(TypeError, match="backend"):
        tune_step_tiling(session.plan.steps[1], RTX_A4000, DType.FP32, backend="kernel")
    with pytest.raises(TypeError, match="backend"):
        measure_model("tiny_a", RTX_A4000, db=TuningDB(), backend="kernel")
    with pytest.raises(TypeError, match="backend"):
        tune_models(["tiny_a"], [RTX_A4000], backend="kernel")
    with pytest.raises(TypeError, match="min_records"):
        fit_calibration(TuningDB(), min_records=2)


# ---- batched execution -------------------------------------------------------
@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_batched_counters_scale_single_image_totals(engine):
    """simulate_batch meters image 0 once and scales it (documented contract)."""
    spec = dw_spec(c=6, h=10, w=10, kernel=3, stride=1)
    params = make_layer_params(spec)
    kernel = build_lbl_kernel(params, {"tile_c": 4, "tile_h": 4, "tile_w": 4})
    rng = np.random.default_rng(3)
    batch = rng.standard_normal((3,) + spec.ifm.shape).astype(np.float32)
    single = build_lbl_kernel(
        params, {"tile_c": 4, "tile_h": 4, "tile_w": 4}
    ).simulate(batch[0], RTX_A4000, engine)
    res = kernel.simulate_batch(batch, RTX_A4000, engine)
    expected = single.counters.batched(3, kernel.weight_bytes())
    assert_counters_equal(res.counters, expected)
    assert res.stats == single.stats
    # Every image's output matches its standalone simulation.
    for i in range(3):
        np.testing.assert_allclose(
            res.output[i],
            build_lbl_kernel(
                params, {"tile_c": 4, "tile_h": 4, "tile_w": 4}
            ).simulate(batch[i], RTX_A4000, engine).output,
            rtol=1e-5,
            atol=1e-5,
        )


def test_batch_engines_agree():
    spec = pw_spec(c_in=5, c_out=9, h=8, w=8)
    params = make_layer_params(spec)
    rng = np.random.default_rng(4)
    batch = rng.standard_normal((4,) + spec.ifm.shape).astype(np.float32)
    fast = build_lbl_kernel(params, {"tile_m": 4, "tile_hw": 16}).simulate_batch(
        batch, RTX_A4000, "fast"
    )
    ref = build_lbl_kernel(params, {"tile_m": 4, "tile_hw": 16}).simulate_batch(
        batch, RTX_A4000, "reference"
    )
    np.testing.assert_allclose(fast.output, ref.output, rtol=1e-4, atol=1e-4)
    assert_counters_equal(fast.counters, ref.counters)


def test_independent_simulations_never_alias_outputs():
    """Two simulate calls on one instance must not share the OFM buffer."""
    spec = pw_spec(c_in=4, c_out=6, h=6, w=6)
    params = make_layer_params(spec)
    kernel = build_lbl_kernel(params, {"tile_m": 4, "tile_hw": 16})
    x1 = random_ifm(spec, seed=1)
    x2 = random_ifm(spec, seed=2)
    out1 = kernel.simulate(x1, RTX_A4000).output
    snapshot = out1.copy()
    kernel.simulate(x2, RTX_A4000)
    np.testing.assert_array_equal(out1, snapshot)


def test_grid_is_memoized_per_instance():
    spec = dw_spec(c=4, h=8, w=8)
    params = make_layer_params(spec)
    kernel = build_lbl_kernel(params, {"tile_c": 2, "tile_h": 4, "tile_w": 4})
    assert kernel.grid() is kernel.grid()


# ---- zoo-wide end-to-end parity ---------------------------------------------
@pytest.mark.parametrize(
    "model,dtype",
    [
        ("mobilenet_v1", DType.FP32),
        ("mobilenet_v2", DType.INT8),
        ("proxylessnas", DType.FP32),
    ],
)
def test_session_engine_parity(model, dtype):
    """Whole-plan parity: per-step counters exactly equal, outputs allclose."""
    from repro.models.zoo import build_model
    from repro.planner.planner import FusePlanner
    from repro.runtime.network_params import materialize_network
    from repro.runtime.session import InferenceSession, reference_run

    graph = build_model(model, dtype)
    plan = FusePlanner(RTX_A4000).plan(graph)
    params = materialize_network(graph, dtype, 0)
    rng = np.random.default_rng(0)
    shape = next(iter(graph.topological())).ifm.shape
    if dtype is DType.INT8:
        x = rng.integers(-128, 128, shape).astype(np.int8)
    else:
        x = rng.standard_normal(shape).astype(np.float32)
    session = InferenceSession(graph, plan, params)
    fast = session.run(x)
    ref = reference_run(session, x[None])
    assert len(fast.records) == len(ref.records)
    for rf, rr in zip(fast.records, ref.records):
        assert rf.name == rr.name
        assert_counters_equal(rf.counters, rr.counters)
        assert rf.time_s == rr.time_s
        assert rf.energy_j == rr.energy_j
    assert fast.latency_s == ref.latency_s
    assert_outputs_match(fast.output, ref.output[0], dtype)


def test_server_matches_reference_engine(monkeypatch):
    """A server's functional batch equals the reference engine run on the
    same resident plan."""
    from repro.runtime.session import reference_run
    from repro.serve.server import ModelServer

    register_tiny_zoo(monkeypatch)
    rng = np.random.default_rng(0)
    inputs = rng.standard_normal((2, 3, 32, 32)).astype(np.float32)
    srv = ModelServer(RTX_A4000)
    rep_fast = srv.submit("tiny_a", inputs)
    session = srv.cache.peek(srv.plan_key("tiny_a", DType.FP32)).session
    rep_ref = reference_run(session, inputs)
    np.testing.assert_allclose(rep_fast.output, rep_ref.output, rtol=1e-4, atol=1e-4)
    assert rep_fast.latency_s == rep_ref.latency_s


# ---- tuning integration ------------------------------------------------------
def test_tuning_record_engine_provenance_round_trip():
    from repro.tune.records import SCHEMA_VERSION, TuningDB, TuningKey, TuningRecord

    key = TuningKey(
        family="lbl-pw", geometry=("pw", 8, 16, 10, 10, 1, 1, 0),
        gpu="RTX", dtype="fp32", convention="paper",
    )
    rec = TuningRecord(
        key=key, tiling={"tile_m": 8, "tile_hw": 32}, est_cost_s=1e-6,
        measured_cost_s=2e-6, tuned_cost_s=2e-6, gma_bytes=1024, evaluated=3,
        engine="fast",
    )
    db = TuningDB()
    db.add(rec)
    reloaded = TuningDB.loads(db.dumps())
    assert reloaded.get(key).engine == "fast"
    assert reloaded.dumps() == db.dumps()  # canonical round-trip keeps the field

    # DBs from when `tune run --backend kernel` could pick the reference
    # engine carry "engine": "reference"; nothing writes that any more, but
    # such a DB still loads and round-trips byte for byte.
    written_by_reference = db.dumps().replace('"engine":"fast"', '"engine":"reference"')
    assert written_by_reference != db.dumps()
    old_kernel_db = TuningDB.loads(written_by_reference)
    assert old_kernel_db.get(key).engine == "reference"
    assert old_kernel_db.dumps() == written_by_reference

    # Schema guard: a v1 record written *before* the engine field existed
    # (no "engine" key) still loads, defaulting to the analytic backend.
    old = rec.to_json()
    del old["engine"]
    header = json.dumps({"kind": "repro-tunedb", "schema": SCHEMA_VERSION})
    legacy = TuningDB.loads(header + "\n" + json.dumps(old) + "\n")
    assert legacy.get(key).engine == "analytic"

    # Corrupt records still raise, engine field or not.
    bad = rec.to_json()
    bad["evaluated"] = "many"
    with pytest.raises(TuneError):
        TuningDB.loads(header + "\n" + json.dumps(bad) + "\n")


def test_measure_model_records_engine(monkeypatch, tmp_path):
    from repro.tune.measure import measure_model
    from repro.tune.records import TuningDB

    register_tiny_zoo(monkeypatch)
    db = TuningDB()
    measure_model("tiny_a", RTX_A4000, DType.FP32, db=db, iterations=2)
    assert len(db) > 0
    assert all(r.engine == "analytic" for r in db)
    # The provenance lands in the dump: the DB format keeps the field.
    dumped = [json.loads(line) for line in db.dumps().splitlines()[1:]]
    assert [rec["engine"] for rec in dumped] == ["analytic"] * len(db)


def test_kernel_oracle_prices_every_exhaustive_tiling(monkeypatch):
    """The kernel-in-the-loop oracle meters what the tuner's counters price.

    For one LBL step of a tiny-zoo plan on the GTX and the fused DW->PW step
    the planner weighed for the same pair, every tiling an exhaustive search
    measures costs exactly the same through ``simulated_kernel_cost_s``."""
    import repro.tune.measure as measure
    from repro.gpu.specs import GTX1660
    from repro.models.zoo import build_model
    from repro.planner.plan import LblStep
    from repro.planner.planner import FusePlanner

    register_tiny_zoo(monkeypatch)
    planner = FusePlanner(GTX1660)
    lbl_steps = [
        s for s in planner.plan(build_model("tiny_b")).steps if isinstance(s, LblStep)
    ]
    fused = planner.evaluate_chain(tuple(s.spec for s in lbl_steps))
    price = measure.measured_step_cost_s
    for step in (lbl_steps[0], fused):
        seen: list[dict[str, int]] = []

        def recording(step, gpu, dtype, tiling=None, _seen=seen):
            _seen.append(tiling)
            return price(step, gpu, dtype, tiling)

        monkeypatch.setattr(measure, "measured_step_cost_s", recording)
        _t, _c, evaluated = measure.tune_step_tiling(
            step, GTX1660, DType.FP32, mode="exhaustive"
        )
        monkeypatch.setattr(measure, "measured_step_cost_s", price)
        assert evaluated == len(seen) > 1
        for tiling in seen:
            assert measure.simulated_kernel_cost_s(
                step, GTX1660, DType.FP32, tiling
            ) == price(step, GTX1660, DType.FP32, tiling), (type(step).__name__, tiling)
