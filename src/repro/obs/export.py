"""Canonical exporters: Chrome-trace JSON and Prometheus text exposition.

Both renderers are byte-stable: identical tracer/registry contents always
serialize to identical bytes (sorted keys, sorted label sets, compact
separators, a total event order with the record sequence number as the
final tiebreaker).  That is what makes the replay-twice determinism tests
meaningful — any nondeterminism upstream shows up as a byte diff here.

:func:`record_session_report` is the bridge from the runtime's
:class:`~repro.runtime.session.SessionReport` accounting to the obs layer:
it lays the per-step kernel records end-to-end on the execution lane as
explicit-interval spans (GMA / MAC / roofline attrs attached) and bumps
the serving counters.  It duck-types the report so ``repro.obs`` keeps a
single dependency (``repro.errors``) and stays at the bottom of
``LAYER_DEPS``.
"""

from __future__ import annotations

import json

__all__ = [
    "chrome_trace_json",
    "write_chrome_trace",
    "prometheus_text",
    "write_prometheus",
    "record_session_report",
]


def _json_safe(value):
    """Coerce an attribute value to JSON: scalars as they are, a dict (the
    routing backlogs) as an object of coerced values, anything else as its
    ``str``."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    return str(value)


def _args(attrs: tuple) -> dict:
    return {str(k): _json_safe(v) for k, v in attrs}


def _us(t_s: float) -> float:
    """Seconds -> microseconds, rounded so ties don't depend on float noise."""
    return round(t_s * 1e6, 4)


def chrome_trace_json(tracer) -> str:
    """Render a tracer as canonical Chrome-trace / Perfetto JSON.

    Process lanes (span/instant ``pid`` strings, e.g. worker names) map to
    integer pids in sorted-name order, with ``process_name`` metadata
    events carrying the human-readable names.  Events sort by
    ``(ts, pid, tid, seq)`` — a total order, so the output is byte-stable.
    """
    pid_names = sorted(
        {rec.pid for rec in tracer.spans} | {rec.pid for rec in tracer.instants}
    )
    pid_of = {name: i + 1 for i, name in enumerate(pid_names)}

    events = []
    for name in pid_names:
        events.append(
            (
                (-1.0, pid_of[name], 0, -1),
                {
                    "args": {"name": name},
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid_of[name],
                    "tid": 0,
                },
            )
        )
    for rec in tracer.spans:
        pid = pid_of[rec.pid]
        events.append(
            (
                (_us(rec.start_s), pid, rec.tid, rec.seq),
                {
                    "args": _args(rec.attrs),
                    "cat": "repro",
                    "dur": max(0.0, _us(rec.end_s) - _us(rec.start_s)),
                    "name": rec.name,
                    "ph": "X",
                    "pid": pid,
                    "tid": rec.tid,
                    "ts": _us(rec.start_s),
                },
            )
        )
    for rec in tracer.instants:
        pid = pid_of[rec.pid]
        events.append(
            (
                (_us(rec.t_s), pid, 0, rec.seq),
                {
                    "args": _args(rec.attrs),
                    "cat": "repro",
                    "name": rec.name,
                    "ph": "i",
                    "pid": pid,
                    "s": "p",
                    "tid": 0,
                    "ts": _us(rec.t_s),
                },
            )
        )
    events.sort(key=lambda pair: pair[0])
    doc = {"displayTimeUnit": "ms", "traceEvents": [event for _, event in events]}
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def write_chrome_trace(tracer, path) -> str:
    """Write the canonical Chrome-trace JSON (trailing newline) to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(chrome_trace_json(tracer))
        fh.write("\n")
    return str(path)


def _fmt(value: float) -> str:
    """Prometheus sample value: integral floats render as integers."""
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _fmt_le(bound: float) -> str:
    return _fmt(bound)


def _label_str(pairs: tuple, extra: "tuple | None" = None) -> str:
    items = list(pairs) + (list(extra) if extra else [])
    if not items:
        return ""
    body = ",".join(f'{k}="{v}"' for k, v in items)
    return "{" + body + "}"


def prometheus_text(metrics) -> str:
    """Render a registry in Prometheus text exposition format.

    Families appear in name-sorted order, series in sorted-label order,
    histogram buckets cumulative with the ``+Inf`` bucket plus ``_sum`` and
    ``_count`` — the canonical layout, byte-stable for identical contents.
    """
    lines = []
    for fam in metrics.families():
        if fam.help:
            lines.append(f"# HELP {fam.name} {fam.help}")
        lines.append(f"# TYPE {fam.name} {fam.kind}")
        if fam.kind == "histogram":
            for key in sorted(fam.series):
                series = fam.series[key]
                for bound, count in zip(fam.buckets, series.bucket_counts):
                    labels = _label_str(key, (("le", _fmt_le(bound)),))
                    lines.append(f"{fam.name}_bucket{labels} {count}")
                labels = _label_str(key, (("le", "+Inf"),))
                lines.append(f"{fam.name}_bucket{labels} {series.count}")
                lines.append(f"{fam.name}_sum{_label_str(key)} {_fmt(series.sum)}")
                lines.append(f"{fam.name}_count{_label_str(key)} {series.count}")
        else:
            for key in sorted(fam.series):
                lines.append(f"{fam.name}{_label_str(key)} {_fmt(fam.series[key])}")
    return "\n".join(lines) + "\n" if lines else ""


def write_prometheus(metrics, path) -> str:
    """Write the Prometheus text exposition to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(prometheus_text(metrics))
    return str(path)


def record_session_report(
    tracer, metrics, report, *, start_s: float, pid: str, tid: int = 0, **attrs
) -> None:
    """Emit one executed batch (a ``SessionReport``) onto the obs layer.

    Lays a ``batch.execute`` interval covering the report's latency on the
    ``(pid, tid)`` execution lane, with one child interval per kernel step
    placed end-to-end inside it (kind / roofline bound / GMA bytes / MACs /
    energy attrs).  Extra keyword attrs (``batch_seq`` etc.) attach to the
    batch span.  Counter families aggregate totals per worker and model.
    """
    end_s = start_s + report.latency_s
    tracer.add_span(
        "batch.execute",
        start_s,
        end_s,
        pid=pid,
        tid=tid,
        model=report.model_name,
        dtype=str(report.dtype),
        batch_size=report.batch_size,
        gma_bytes=report.total_gma_bytes,
        kernel_launches=report.kernel_launches,
        energy_j=report.energy_j,
        **attrs,
    )
    t = start_s
    for step in report.records:
        tracer.add_span(
            step.name,
            t,
            t + step.time_s,
            pid=pid,
            tid=tid,
            kind=step.kind,
            bound=step.bound,
            gma_bytes=step.counters.total_bytes,
            macs=step.counters.macs,
            energy_j=step.energy_j,
        )
        t += step.time_s

    model = report.model_name
    metrics.counter(
        "repro_batches_total", help="Batches executed"
    ).inc(worker=pid, model=model)
    metrics.counter(
        "repro_images_total", help="Images inferred"
    ).inc(report.batch_size, worker=pid, model=model)
    metrics.counter(
        "repro_exec_seconds_total", help="Simulated device-execution seconds"
    ).inc(report.latency_s, worker=pid)
    metrics.counter(
        "repro_energy_joules_total", help="Simulated execution energy"
    ).inc(report.energy_j, worker=pid)
    metrics.counter(
        "repro_gma_bytes_total", help="Global-memory-access bytes"
    ).inc(report.total_gma_bytes, worker=pid)
    metrics.counter(
        "repro_kernel_launches_total", help="Kernel launches"
    ).inc(report.kernel_launches, worker=pid)
