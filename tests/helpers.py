"""Shared test utilities: golden-reference layer execution and spec builders."""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.core.dtypes import DType
from repro.core.ops import (
    apply_activation,
    apply_norm,
    conv2d_depthwise,
    conv2d_pointwise,
    conv2d_standard,
)
from repro.ir.blocks import dsc_block, standard_conv
from repro.ir.graph import GlueSpec, ModelGraph
from repro.ir.layers import ConvKind, ConvSpec, EpilogueSpec
from repro.kernels.params import LayerParams
from repro.serve.cache import PlanKey


#: (name, stem channels) of the tiny zoo the serving/fleet tests register —
#: subsecond to plan, unlike the full-size zoo models.
TINY_ZOO = (("tiny_a", 8), ("tiny_b", 12), ("tiny_c", 16))


def tiny_model_builder(name: str, channels: int):
    """Zoo-compatible builder for a 3-layer stem+DSC+gap toy model."""

    def build(dtype: DType = DType.FP32) -> ModelGraph:
        g = ModelGraph(name)
        last = standard_conv(g, "stem", 3, channels, 32, 32, stride=2, dtype=dtype)
        last = dsc_block(g, "b1", channels, 2 * channels, 16, 16, after=last, dtype=dtype)
        g.add(GlueSpec("gap", "gap", 2 * channels), after=last)
        g.validate()
        return g

    return build


def register_tiny_zoo(monkeypatch) -> None:
    """Install the tiny models into repro.models.zoo for one test."""
    from repro.models.zoo import MODELS

    for name, channels in TINY_ZOO:
        monkeypatch.setitem(MODELS, name, tiny_model_builder(name, channels))


#: models of the functional-vs-analytic parity tests: the tiny zoo, plus
#: mobilenet_v2, whose ``max_chain=3`` plans mix pairwise FCMs with 3-stage
#: chains.
PARITY_MODELS = tuple(name for name, _ in TINY_ZOO) + ("mobilenet_v2",)


def parity_sessions(monkeypatch):
    """Yield ``(graph, session)`` planned at ``max_chain=3`` on the GTX for
    every parity model at FP32 and INT8."""
    from repro.gpu.specs import GTX1660
    from repro.models.zoo import build_model
    from repro.planner.planner import FusePlanner
    from repro.runtime.session import InferenceSession

    register_tiny_zoo(monkeypatch)
    for model in PARITY_MODELS:
        for dtype in (DType.FP32, DType.INT8):
            graph = build_model(model, dtype)
            plan = FusePlanner(GTX1660, max_chain=3).plan(graph)
            yield graph, InferenceSession(graph, plan)


def assert_records_match(functional, analytic) -> None:
    """A functional and an analytic report of one plan agree exactly, step
    by step, in name, kind, byte totals, MACs, re-reads, time and bound.

    Bytes are compared as read/write totals: kernels label traffic by
    tensor, the estimators by step kind.  DW/PW energy is left out: the
    analytic fused-step counters carry no shared-memory bytes, so their
    energy is slightly below the functional run's (ROADMAP, "Analytic
    fused-step energy leaves out shared memory").
    """
    assert len(functional.records) == len(analytic.records)
    for f, a in zip(functional.records, analytic.records):
        fc, ac = f.counters, a.counters
        assert (f.name, f.kind, f.time_s, f.bound) == (a.name, a.kind, a.time_s, a.bound)
        assert (fc.read_bytes, fc.write_bytes, fc.macs, fc.redundant_macs) == (
            ac.read_bytes, ac.write_bytes, ac.macs, ac.redundant_macs
        ), f.name
        assert sorted(fc.rereads) == sorted(ac.rereads), f.name


def check_replay(report) -> None:
    """Accounting invariants every ``fleet_replay`` report must satisfy."""
    lost = report.fault_stats.lost if report.fault_stats is not None else 0
    assert report.n_requests == report.served + report.shed + lost
    if report.slo_s is not None:
        assert report.attained + report.late == report.served
    latencies = report.latencies_s
    assert len(latencies) == report.served
    assert latencies == sorted(latencies)
    assert all(v >= 0 for v in latencies)
    for w in report.per_worker:
        assert w.busy_s <= report.duration_s, (w.worker, w.busy_s, report.duration_s)


# ---- replay bookkeeping oracles ------------------------------------------
# ModelServer memoizes what routing, admission and flushing derive from its
# queues and resident plans.  These rescan both on every call, with the
# arithmetic the memos replaced, so a memo that missed an invalidation
# disagrees with them.


def rescan_flush_cost_s(server, key: tuple[str, str], batch: int) -> float:
    model, dtype_value = key
    entry = server.cache.peek(
        PlanKey(model, dtype_value, server.gpu.name, "paper", server.max_chain)
    )
    return 0.0 if entry is None else entry.analytic_report(batch).latency_s


def rescan_queue_due(server, key: tuple[str, str], queue) -> float:
    due = min(r.enqueued_at for r in queue) + server.max_delay_s
    deadlines = [r.deadline_s for r in queue if r.deadline_s is not None]
    if deadlines:
        est = rescan_flush_cost_s(server, key, len(queue))
        due = min(due, min(deadlines) - est)
    return due


def rescan_next_deadline(server) -> float | None:
    dues = [rescan_queue_due(server, k, q) for k, q in server._queues.items() if q]
    return min(dues) if dues else None


def rescan_queue_cost_s(server) -> float:
    total = 0.0
    unknown = 0
    known: list[float] = []
    for (model, dtype_value), queue in server._queues.items():
        if not queue:
            continue
        entry = server.cache.peek(
            PlanKey(model, dtype_value, server.gpu.name, "paper", server.max_chain)
        )
        if entry is None:
            unknown += len(queue)
            continue
        per_request = entry.analytic_report(1).latency_s
        known.append(per_request)
        total += len(queue) * per_request
    if unknown and known:
        total += unknown * sum(known) / len(known)
    return total


def rescan_drain_s(server, extra: tuple[str, str] | None = None) -> float:
    total = 0.0
    keys = list(server._queues)
    if extra is not None and extra not in server._queues:
        keys.append(extra)
    for key in keys:
        n = len(server._queues.get(key, ()))
        if extra == key:
            n += 1
        if not n:
            continue
        full, rest = divmod(n, server.max_batch)
        if full:
            total += full * rescan_flush_cost_s(server, key, server.max_batch)
        if rest:
            total += rescan_flush_cost_s(server, key, rest)
    return total


def int32_conv2d(x: np.ndarray, w: np.ndarray, stride: int = 1, padding: int = 0) -> np.ndarray:
    """Standard convolution by NumPy's einsum at int32: the integer result
    :func:`repro.core.ops.exact_matmul` must reproduce, computed without it."""
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding))).astype(np.int32)
    win = sliding_window_view(xp, w.shape[2:], axis=(1, 2))[:, ::stride, ::stride]
    return np.einsum("chwkl,mckl->mhw", win, w.astype(np.int32))


def ref_layer(params: LayerParams, x: np.ndarray) -> np.ndarray:
    """Golden execution of one conv layer + epilogue at the layer's dtype.

    Mirrors what every simulated kernel must produce: conv (int32/fp32
    accumulation), dequant (INT8), folded norm, activation, requant (INT8).
    """
    spec = params.spec
    if spec.kind is ConvKind.DEPTHWISE:
        acc = conv2d_depthwise(x, params.weights, spec.stride, spec.padding)
    elif spec.kind is ConvKind.POINTWISE:
        acc = conv2d_pointwise(x, params.weights, spec.stride)
    else:
        acc = conv2d_standard(x, params.weights, spec.stride, spec.padding)
    epi = params.epilogue
    if spec.dtype is DType.INT8:
        y = acc.astype(np.float64) * epi.dequant_multiplier()
    else:
        y = acc.astype(np.float32)
    if epi.norm_scale is not None:
        y = apply_norm(y, epi.norm_scale, epi.norm_shift)
    y = apply_activation(y, epi.activation)
    if spec.dtype is DType.INT8:
        return np.clip(np.rint(y / epi.out_scale.scale), -128, 127).astype(np.int8)
    return y.astype(np.float32)


def random_ifm(spec: ConvSpec, seed: int = 0) -> np.ndarray:
    """Deterministic random input matching a spec's IFM shape/dtype."""
    rng = np.random.default_rng(seed)
    if spec.dtype is DType.INT8:
        return rng.integers(-128, 128, spec.ifm.shape).astype(np.int8)
    return rng.standard_normal(spec.ifm.shape).astype(np.float32)


def pw_spec(
    name: str = "pw",
    c_in: int = 8,
    c_out: int = 16,
    h: int = 12,
    w: int = 12,
    stride: int = 1,
    dtype: DType = DType.FP32,
    activation: str | None = "relu",
    norm: bool = True,
) -> ConvSpec:
    return ConvSpec(
        name=name, kind=ConvKind.POINTWISE, in_channels=c_in, out_channels=c_out,
        in_h=h, in_w=w, kernel=1, stride=stride, padding=0, dtype=dtype,
        epilogue=EpilogueSpec(norm=norm, activation=activation),
    )


def dw_spec(
    name: str = "dw",
    c: int = 8,
    h: int = 12,
    w: int = 12,
    kernel: int = 3,
    stride: int = 1,
    dtype: DType = DType.FP32,
    activation: str | None = "relu",
    norm: bool = True,
) -> ConvSpec:
    return ConvSpec(
        name=name, kind=ConvKind.DEPTHWISE, in_channels=c, out_channels=c,
        in_h=h, in_w=w, kernel=kernel, stride=stride, padding=kernel // 2,
        dtype=dtype, epilogue=EpilogueSpec(norm=norm, activation=activation),
    )
