"""The shipped invariant rules, RPR001 through RPR009.

Each rule enforces a contract the dynamic test suite defends end-to-end;
see the class docstrings for the mapping.  Real, audited exceptions are
carried as ``# repro: allow[RPR0xx] reason`` comments at the site — the
analyzer's job is to make sure every new exception is an *explicit* one.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from .base import Finding, Rule, register_rule
from .callgraph import build_call_graph
from .importgraph import _resolve_relative
from .runner import AnalysisContext, ModuleInfo

__all__ = [
    "ALL_RULE_IDS",
    "LAYER_DEPS",
    "SERIALIZER_ROOTS",
    "WALLCLOCK_TIME_ATTRS",
]

#: ``time`` module attributes that read the host's wall/CPU clock.  Any use
#: in ``src/repro`` bypasses the injectable-clock discipline (FakeClock).
WALLCLOCK_TIME_ATTRS = frozenset({
    "time", "time_ns",
    "monotonic", "monotonic_ns",
    "perf_counter", "perf_counter_ns",
    "process_time", "process_time_ns",
})

#: ``datetime``/``date`` constructors that read the host clock.
_DATETIME_NOW_ATTRS = frozenset({"now", "utcnow", "today"})

#: Bare names of the canonical-serialization entry points; the functions
#: reachable from these through the call graph form RPR003's scope.
SERIALIZER_ROOTS = ("dump", "dumps", "save", "to_json", "to_jsonl", "write_trace")

#: The architecture DAG RPR004 enforces: package -> packages it may import
#: (``repro.<pkg>.*`` granularity; ``repro`` itself is the public facade and
#: may import anything).  Mirrors docs/architecture.md's layering diagram.
LAYER_DEPS: dict[str, frozenset[str]] = {
    "errors": frozenset(),
    "analysis": frozenset({"errors"}),
    "core": frozenset({"errors"}),
    # obs sits at the bottom: spans/metrics/exporters duck-type everything
    # they record, so any layer may emit into them without new edges.
    "obs": frozenset({"errors"}),
    "ir": frozenset({"core", "errors"}),
    "gpu": frozenset({"core", "errors"}),
    "models": frozenset({"core", "errors", "ir"}),
    "planner": frozenset({"core", "errors", "gpu", "ir", "obs"}),
    "kernels": frozenset({"core", "errors", "gpu", "ir", "planner"}),
    "baselines": frozenset({"core", "errors", "gpu", "ir", "kernels"}),
    "runtime": frozenset(
        {"baselines", "core", "errors", "gpu", "ir", "kernels", "models", "planner"}
    ),
    # serve and tune are siblings: serve consumes TuningDB/Calibration
    # duck-typed, never by import — keep it that way.
    "tune": frozenset(
        {"baselines", "core", "errors", "gpu", "ir", "kernels", "models",
         "obs", "planner", "runtime"}
    ),
    "serve": frozenset(
        {"core", "errors", "gpu", "ir", "models", "obs", "planner", "runtime"}
    ),
    "experiments": frozenset(
        {"baselines", "core", "errors", "gpu", "ir", "kernels", "models",
         "planner", "runtime"}
    ),
    "cli": frozenset(
        {"analysis", "core", "errors", "experiments", "gpu", "ir", "models",
         "obs", "planner", "runtime", "serve", "tune"}
    ),
}


@dataclass
class _Aliases:
    """Names a module binds to determinism-sensitive modules/callables."""

    time: set[str] = field(default_factory=set)
    random: set[str] = field(default_factory=set)
    numpy: set[str] = field(default_factory=set)
    datetime_mod: set[str] = field(default_factory=set)
    datetime_cls: set[str] = field(default_factory=set)
    default_rng: set[str] = field(default_factory=set)


def _aliases(info: ModuleInfo) -> _Aliases:
    al = _Aliases()
    for node in ast.walk(info.tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                bound = a.asname or a.name.split(".")[0]
                if a.name == "time":
                    al.time.add(bound)
                elif a.name == "random":
                    al.random.add(bound)
                elif a.name in ("numpy", "numpy.random"):
                    al.numpy.add(bound)
                elif a.name == "datetime":
                    al.datetime_mod.add(bound)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            if node.module == "datetime":
                for a in node.names:
                    if a.name in ("datetime", "date"):
                        al.datetime_cls.add(a.asname or a.name)
            elif node.module == "numpy.random":
                for a in node.names:
                    if a.name == "default_rng":
                        al.default_rng.add(a.asname or a.name)
    return al


def _dotted(node: ast.AST) -> "str | None":
    """Render a Name/Attribute chain as dotted text (else None)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _finding(info: ModuleInfo, node: ast.AST, rule_id: str, message: str) -> Finding:
    return Finding(
        path=info.path,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0),
        rule_id=rule_id,
        message=message,
    )


@register_rule
class WallClockRule(Rule):
    """RPR001: no wall-clock reads — clocks are injected, never ambient.

    Replay determinism (FakeClock) and byte-identical reports depend on no
    code path consulting the host clock.  The only sanctioned uses are
    injectable-clock *defaults* and operator-facing wall-time displays,
    each carrying a reasoned allow comment.
    """

    rule_id = "RPR001"
    title = "no ambient wall-clock reads"

    def check(self, ctx: AnalysisContext) -> Iterator[Finding]:
        for info in ctx.modules:
            al = _aliases(info)
            for node in ast.walk(info.tree):
                if isinstance(node, ast.ImportFrom) and not node.level \
                        and node.module == "time":
                    for a in node.names:
                        if a.name in WALLCLOCK_TIME_ATTRS:
                            yield _finding(
                                info, node, self.rule_id,
                                f"`from time import {a.name}` binds an ambient "
                                "wall clock; inject a clock callable instead",
                            )
                elif isinstance(node, ast.Attribute):
                    base = node.value
                    if isinstance(base, ast.Name) and base.id in al.time \
                            and node.attr in WALLCLOCK_TIME_ATTRS:
                        yield _finding(
                            info, node, self.rule_id,
                            f"wall-clock read `{base.id}.{node.attr}`; inject a "
                            "clock callable (cf. serve.loadgen.FakeClock)",
                        )
                    elif node.attr in _DATETIME_NOW_ATTRS:
                        dotted = _dotted(node)
                        if dotted is None:
                            continue
                        head = dotted.split(".")[0]
                        if head in al.datetime_mod or head in al.datetime_cls:
                            yield _finding(
                                info, node, self.rule_id,
                                f"wall-clock read `{dotted}`; pass timestamps "
                                "in explicitly",
                            )


@register_rule
class UnseededRngRule(Rule):
    """RPR002: no module-level or unseeded RNG.

    Every random draw must come from an explicitly seeded
    ``np.random.default_rng(seed)`` (or a seeded ``random.Random(seed)``
    instance) so replays and worker pools reproduce bit-identically.  The
    stdlib module-level ``random.*`` functions and unseeded generators are
    process-global hidden state.
    """

    rule_id = "RPR002"
    title = "no module-level or unseeded RNG"

    def check(self, ctx: AnalysisContext) -> Iterator[Finding]:
        for info in ctx.modules:
            al = _aliases(info)
            seeded_call_funcs: set[int] = set()
            for node in ast.walk(info.tree):
                if isinstance(node, ast.Call):
                    dotted = _dotted(node.func)
                    if dotted is None:
                        continue
                    parts = dotted.split(".")
                    seeded = bool(node.args or node.keywords)
                    # np.random.default_rng(seed) / default_rng(seed): fine.
                    if (
                        (len(parts) >= 2 and parts[0] in al.numpy
                         and parts[-2:] == ["random", "default_rng"])
                        or (len(parts) == 1 and parts[0] in al.default_rng)
                        or (len(parts) == 2 and parts[0] in al.random
                            and parts[1] == "Random")
                    ):
                        if seeded:
                            seeded_call_funcs.add(id(node.func))
                        else:
                            yield _finding(
                                info, node, self.rule_id,
                                f"`{dotted}()` without a seed draws from OS "
                                "entropy; pass an explicit seed",
                            )
                            seeded_call_funcs.add(id(node.func))
            for node in ast.walk(info.tree):
                if isinstance(node, ast.ImportFrom) and not node.level \
                        and node.module == "random":
                    yield _finding(
                        info, node, self.rule_id,
                        "importing module-level `random` state; use a seeded "
                        "`np.random.default_rng(seed)` passed down explicitly",
                    )
                elif isinstance(node, ast.Attribute) and id(node) not in seeded_call_funcs:
                    base = node.value
                    if isinstance(base, ast.Name) and base.id in al.random:
                        yield _finding(
                            info, node, self.rule_id,
                            f"module-level RNG `{base.id}.{node.attr}` is hidden "
                            "process-global state; pass a seeded generator",
                        )
                    else:
                        dotted = _dotted(node)
                        if dotted is None:
                            continue
                        parts = dotted.split(".")
                        if (
                            len(parts) >= 3
                            and parts[0] in al.numpy
                            and parts[-2] == "random"
                            and parts[-1] not in ("default_rng", "Generator")
                        ):
                            yield _finding(
                                info, node, self.rule_id,
                                f"`{dotted}` uses numpy's global RNG; use "
                                "`np.random.default_rng(seed)`",
                            )


#: Unordered-iterable producers flagged by RPR003 when iterated bare.
_UNORDERED_METHODS = frozenset({"keys", "values", "items"})
_UNORDERED_FS = frozenset({"glob", "iglob", "rglob", "iterdir", "listdir", "scandir"})
_TRANSPARENT_WRAPPERS = frozenset({"enumerate", "list", "tuple", "reversed"})


def _unordered_desc(expr: ast.AST) -> "str | None":
    """Describe ``expr`` if it yields unordered elements, else None."""
    while isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name) \
            and expr.func.id in _TRANSPARENT_WRAPPERS and expr.args:
        expr = expr.args[0]
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return "a set literal"
    if isinstance(expr, ast.Call):
        fn = expr.func
        if isinstance(fn, ast.Name):
            if fn.id == "set":
                return "set(...)"
            if fn.id in _UNORDERED_FS:
                return f"{fn.id}(...)"
        elif isinstance(fn, ast.Attribute):
            if fn.attr in _UNORDERED_METHODS:
                return f".{fn.attr}()"
            if fn.attr in _UNORDERED_FS:
                return f".{fn.attr}(...)"
    return None


@register_rule
class SerializerOrderRule(Rule):
    """RPR003: canonical serializers iterate in sorted order only.

    TuningDB and trace files guarantee byte-identical output for equal
    contents at any worker count.  Inside any function reachable
    from the canonical serialization roots (``dump``/``dumps``/``save``/
    ``to_json``/``to_jsonl``/``write_trace``), iterating a dict view, set,
    or directory listing without ``sorted(...)`` lets insertion/filesystem
    order leak into the bytes.
    """

    rule_id = "RPR003"
    title = "sorted iteration in canonical serializers"

    def check(self, ctx: AnalysisContext) -> Iterator[Finding]:
        graph = build_call_graph(ctx.modules)
        reachable = graph.reachable_from(SERIALIZER_ROOTS)
        by_path = {info.path: info for info in ctx.modules}
        for site in sorted(reachable, key=lambda s: (s.path, s.qualname)):
            info = by_path[site.path]
            for node in ast.walk(site.node):
                iters: list[ast.AST] = []
                if isinstance(node, (ast.For, ast.AsyncFor)):
                    iters.append(node.iter)
                elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                       ast.GeneratorExp)):
                    iters.extend(gen.iter for gen in node.generators)
                for it in iters:
                    desc = _unordered_desc(it)
                    if desc is not None:
                        yield _finding(
                            info, it, self.rule_id,
                            f"iterates {desc} unsorted in `{site.qualname}`, "
                            "reachable from canonical serializers "
                            f"({'/'.join(SERIALIZER_ROOTS)}); wrap in sorted(...)",
                        )


@register_rule
class LayeringRule(Rule):
    """RPR004: the import graph respects the architecture DAG, acyclically.

    Package-level edges must appear in :data:`LAYER_DEPS` (lazy function-
    local imports included — dodging the runtime cycle does not excuse an
    upward dependency), and the module-level import graph must have no
    cycles at all, in any analyzed namespace.
    """

    rule_id = "RPR004"
    title = "import layering and acyclicity"

    @staticmethod
    def _layer(module: str) -> "str | None":
        parts = module.split(".")
        if parts[0] != "repro":
            return None
        if len(parts) == 1:
            return "repro"
        return parts[1]

    def check(self, ctx: AnalysisContext) -> Iterator[Finding]:
        graph = ctx.import_graph
        by_module = ctx.by_module
        for edge in graph.edges:
            src_layer = self._layer(edge.source)
            dst_layer = self._layer(edge.target)
            if src_layer is None or dst_layer is None or src_layer == dst_layer:
                continue
            if src_layer == "repro":  # the facade re-exports the public API
                continue
            info = by_module[edge.source]
            allowed = LAYER_DEPS.get(src_layer)
            if allowed is None:
                yield _finding(
                    info, _At(edge.line), self.rule_id,
                    f"layer `{src_layer}` is not in the architecture DAG; add "
                    "it to repro.analysis.rules.LAYER_DEPS (and the docs)",
                )
            elif dst_layer != "repro" and dst_layer not in allowed:
                yield _finding(
                    info, _At(edge.line), self.rule_id,
                    f"`{edge.source}` imports `{edge.target}`: layer "
                    f"`{src_layer}` may not depend on `{dst_layer}` "
                    f"(allowed: {', '.join(sorted(allowed)) or 'nothing'})",
                )
        for cycle in graph.cycles():
            first = by_module[cycle[0]]
            yield _finding(
                first, _At(1), self.rule_id,
                "module-level import cycle: " + " -> ".join(cycle + (cycle[0],)),
            )


class _At:
    """A minimal lineno/col carrier for findings not tied to one AST node."""

    def __init__(self, lineno: int, col_offset: int = 0) -> None:
        self.lineno = lineno
        self.col_offset = col_offset


@register_rule
class RegistryParityRule(Rule):
    """RPR005: registered kernels and schema records keep their pairs.

    Every kernel class the registry builds must implement both execution
    engines — ``run_block`` (reference, per-block) and ``run_grid`` (fast,
    vectorized) — so engine parity stays testable.  Every class in a
    ``SCHEMA_VERSION``-bearing module must keep its canonical round-trip
    pair complete: ``to_json``/``from_json``, ``dumps``/``loads``,
    ``save``/``load``.
    """

    rule_id = "RPR005"
    title = "kernel and schema round-trip parity"

    _PAIRS = (("to_json", "from_json"), ("dumps", "loads"), ("save", "load"))

    def check(self, ctx: AnalysisContext) -> Iterator[Finding]:
        yield from self._check_kernels(ctx)
        yield from self._check_schemas(ctx)

    @staticmethod
    def _methods(cls_node: ast.ClassDef) -> set[str]:
        return {
            n.name for n in cls_node.body
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        }

    def _check_kernels(self, ctx: AnalysisContext) -> Iterator[Finding]:
        registry = ctx.find_module("kernels.registry")
        if registry is None:
            return
        imported: dict[str, str] = {}  # class name -> source module
        for node in ast.walk(registry.tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                target = _resolve_relative(
                    registry.module, registry.is_package, node.level, node.module
                )
                if target is None:
                    continue
                for a in node.names:
                    imported[a.name] = target
        for cls_name, module in sorted(imported.items()):
            info = ctx.by_module.get(module)
            if info is None:
                continue
            for node in info.tree.body:
                if not (isinstance(node, ast.ClassDef) and node.name == cls_name):
                    continue
                bases = {_dotted(b) for b in node.bases}
                if not any(b and b.split(".")[-1] == "SimKernel" for b in bases):
                    continue
                methods = self._methods(node)
                for required, engine in (
                    ("run_block", "reference (per-block)"),
                    ("run_grid", "fast (vectorized)"),
                ):
                    if required not in methods:
                        yield _finding(
                            info, node, self.rule_id,
                            f"registered kernel `{cls_name}` does not define "
                            f"`{required}`: every registry kernel implements "
                            f"the {engine} engine so parity stays testable",
                        )

    def _check_schemas(self, ctx: AnalysisContext) -> Iterator[Finding]:
        for info in ctx.modules:
            has_schema = any(
                isinstance(n, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "SCHEMA_VERSION"
                    for t in n.targets
                )
                for n in info.tree.body
            )
            if not has_schema:
                continue
            for node in info.tree.body:
                if not isinstance(node, ast.ClassDef):
                    continue
                methods = self._methods(node)
                for a, b in self._PAIRS:
                    present = methods & {a, b}
                    if len(present) == 1:
                        have = present.pop()
                        miss = b if have == a else a
                        yield _finding(
                            info, node, self.rule_id,
                            f"`{node.name}` defines `{have}` but not `{miss}`: "
                            "SCHEMA_VERSION-bearing records keep the canonical "
                            "round-trip pair complete",
                        )


@register_rule
class SubmissionOrderRule(Rule):
    """RPR006: pool results merge in submission order, never completion order.

    ``tune_models(workers=N)`` guarantees a byte-identical merged DB at any
    worker count because it consumes ``pool.map`` results in submission
    order.  ``as_completed`` / ``imap_unordered`` reintroduce scheduling
    order into the merge.
    """

    rule_id = "RPR006"
    title = "deterministic pool-result consumption"

    _BANNED = frozenset({"as_completed", "imap_unordered"})

    def check(self, ctx: AnalysisContext) -> Iterator[Finding]:
        for info in ctx.modules:
            for node in ast.walk(info.tree):
                name = None
                if isinstance(node, ast.ImportFrom):
                    hits = [a.name for a in node.names if a.name in self._BANNED]
                    if hits:
                        name = "/".join(hits)
                elif isinstance(node, ast.Attribute) and node.attr in self._BANNED:
                    name = node.attr
                elif isinstance(node, ast.Name) and node.id in self._BANNED:
                    name = node.id
                if name:
                    yield _finding(
                        info, node, self.rule_id,
                        f"`{name}` yields results in completion order; consume "
                        "pool results in submission order (pool.map) so merged "
                        "output is byte-identical at any worker count",
                    )


@register_rule
class SpanContextRule(Rule):
    """RPR007: spans open only through ``with tracer.span(...)``.

    The context-manager form is what guarantees every span closes (and
    records) exactly once, even when the body raises — which the
    byte-identical trace exports depend on.  A manual ``start``/``end``
    pair can leak an unbalanced span on any exception path, and a bare
    ``tracer.span(...)`` call outside a ``with`` opens a span that never
    closes.  Explicit-interval recording belongs to ``add_span`` (no clock
    reads, no open state), which this rule deliberately leaves alone.
    """

    rule_id = "RPR007"
    title = "spans opened via context manager only"

    #: Manual open/close method names — the API shape this rule bans.
    _MANUAL = frozenset({"start_span", "end_span", "span_start", "span_end"})

    def check(self, ctx: AnalysisContext) -> Iterator[Finding]:
        for info in ctx.modules:
            with_exprs: set[int] = set()
            for node in ast.walk(info.tree):
                if isinstance(node, (ast.With, ast.AsyncWith)):
                    for item in node.items:
                        with_exprs.add(id(item.context_expr))
            for node in ast.walk(info.tree):
                if not isinstance(node, ast.Call) \
                        or not isinstance(node.func, ast.Attribute):
                    continue
                if node.func.attr in self._MANUAL:
                    yield _finding(
                        info, node, self.rule_id,
                        f"manual span API `.{node.func.attr}(...)`: open spans "
                        "with `with tracer.span(...)` so they always close",
                    )
                elif node.func.attr == "span" and id(node) not in with_exprs:
                    dotted = _dotted(node.func.value)
                    if dotted is None:
                        continue
                    receiver = dotted.split(".")[-1].lstrip("_").lower()
                    if "tracer" in receiver:
                        yield _finding(
                            info, node, self.rule_id,
                            f"`{dotted}.span(...)` outside a `with` opens a "
                            "span that never closes; use "
                            "`with tracer.span(...)`",
                        )


@register_rule
class AmbientSleepRule(Rule):
    """RPR008: waits are *scheduled events* on the injected clock.

    Retry backoff, hedge delays, breaker resets and health probes are all
    instants on the simulated timeline (cf. ``serve.faults.FaultInjector``'s
    event heap).  Calling ``time.sleep`` instead blocks the host thread:
    the wait is invisible to the FakeClock, so fault/retry timing would
    depend on wall time and a chaos replay could never be byte-identical.
    Injectable ``sleep=time.sleep`` *defaults* are attribute references,
    not calls, and stay allowed (they carry their RPR001 allow comments).
    """

    rule_id = "RPR008"
    title = "no ambient sleeps; waits are events on the injected clock"

    def check(self, ctx: AnalysisContext) -> Iterator[Finding]:
        for info in ctx.modules:
            al = _aliases(info)
            sleep_names: set[str] = set()
            for node in ast.walk(info.tree):
                if isinstance(node, ast.ImportFrom) and not node.level \
                        and node.module == "time":
                    for a in node.names:
                        if a.name == "sleep":
                            sleep_names.add(a.asname or a.name)
                            yield _finding(
                                info, node, self.rule_id,
                                "`from time import sleep` binds an ambient "
                                "blocking sleep; schedule the wait on the "
                                "injected clock instead",
                            )
            for node in ast.walk(info.tree):
                if not isinstance(node, ast.Call):
                    continue
                fn = node.func
                if isinstance(fn, ast.Attribute) and fn.attr == "sleep" \
                        and isinstance(fn.value, ast.Name) \
                        and fn.value.id in al.time:
                    yield _finding(
                        info, node, self.rule_id,
                        f"`{fn.value.id}.sleep(...)` blocks the host thread; "
                        "retry/backoff waits must be scheduled events on the "
                        "injected clock (cf. serve.faults.FaultInjector)",
                    )
                elif isinstance(fn, ast.Name) and fn.id in sleep_names:
                    yield _finding(
                        info, node, self.rule_id,
                        f"ambient `{fn.id}(...)` blocks the host thread; "
                        "retry/backoff waits must be scheduled events on the "
                        "injected clock (cf. serve.faults.FaultInjector)",
                    )


@register_rule
class BuiltinHashRule(Rule):
    """RPR009: no builtin ``hash()`` outside ``__hash__``.

    ``str`` and ``bytes`` hashes are salted per process (``PYTHONHASHSEED``),
    so a seed or key derived from ``hash()`` changes from one process to the
    next: network weights seeded that way differed between two runs of the
    same command.  Inside ``__hash__`` the value only keys in-process dicts
    and sets, which is what builtin ``hash()`` is for.  Anything that seeds,
    persists or crosses a process boundary derives its key from a stable
    digest (``hashlib.blake2b``) instead.
    """

    rule_id = "RPR009"
    title = "no builtin hash() outside __hash__"

    def check(self, ctx: AnalysisContext) -> Iterator[Finding]:
        for info in ctx.modules:
            inside_hash: set[int] = set()
            for node in ast.walk(info.tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and node.name == "__hash__":
                    inside_hash.update(id(n) for n in ast.walk(node))
            for node in ast.walk(info.tree):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                        and node.func.id == "hash" and id(node) not in inside_hash:
                    yield _finding(
                        info, node, self.rule_id,
                        "builtin `hash()` changes with PYTHONHASHSEED; derive "
                        "seeds and keys from a stable digest (hashlib.blake2b)",
                    )


#: Canonical ordered rule vocabulary (the resolver's `ENGINES` analogue).
ALL_RULE_IDS: tuple[str, ...] = tuple(sorted(
    cls.rule_id for cls in (
        WallClockRule, UnseededRngRule, SerializerOrderRule,
        LayeringRule, RegistryParityRule, SubmissionOrderRule,
        SpanContextRule, AmbientSleepRule, BuiltinHashRule,
    )
))
