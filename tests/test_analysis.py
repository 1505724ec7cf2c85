"""repro.analysis: the AST invariant linter that guards this repo's contracts.

Each rule gets a fixture triplet (violating / suppressed / clean snippet on
disk via tmp_path), plus import-graph cycle detection, the suppression
grammar (reason mandatory -> RPR000), registry resolution, report
byte-determinism, CLI exit codes — and the meta-test: ``src/repro`` itself
must analyze finding-free, so every audited exception in the tree carries
its reasoned allow comment.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import (
    ALL_RULE_IDS,
    LAYER_DEPS,
    Finding,
    analyze_paths,
    build_import_graph,
    render_json,
    render_text,
    resolve_rules,
    rule_registry,
)
from repro.analysis.base import SUPPRESSION_RULE_ID, parse_suppressions
from repro.analysis.cli import main as analysis_main
from repro.errors import AnalysisError, ReproError

REPO = Path(__file__).resolve().parents[1]


def _write(tmp_path: Path, name: str, source: str) -> Path:
    p = tmp_path / name
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(source, encoding="utf-8")
    return p


def _rule_ids(findings: "list[Finding]") -> set[str]:
    return {f.rule_id for f in findings}


def _analyze_snippet(tmp_path: Path, source: str, rules: "str | None" = None):
    path = _write(tmp_path, "snippet.py", source)
    findings, _ = analyze_paths([path], rules)
    return findings


class TestRegistry:
    def test_all_rules_registered(self):
        assert ALL_RULE_IDS == (
            "RPR001", "RPR002", "RPR003", "RPR004", "RPR005", "RPR006",
            "RPR007", "RPR008", "RPR009",
        )
        registry = rule_registry()
        assert set(registry) == set(ALL_RULE_IDS)
        for rule_id, cls in registry.items():
            assert cls.rule_id == rule_id
            assert cls.title

    def test_resolve_rules_defaults_to_all(self):
        assert resolve_rules(None) == ALL_RULE_IDS
        assert resolve_rules("") == ALL_RULE_IDS
        assert resolve_rules([]) == ALL_RULE_IDS

    def test_resolve_rules_normalizes_selection(self):
        assert resolve_rules("RPR006,RPR001") == ("RPR001", "RPR006")
        assert resolve_rules(["RPR003", "RPR003"]) == ("RPR003",)

    def test_resolve_rules_rejects_unknown(self):
        with pytest.raises(AnalysisError, match="RPR999"):
            resolve_rules("RPR001,RPR999")

    def test_analysis_error_is_a_repro_error(self):
        assert issubclass(AnalysisError, ReproError)


class TestWallClockRule:
    """RPR001 — no ambient wall-clock reads."""

    def test_flags_time_calls(self, tmp_path):
        findings = _analyze_snippet(tmp_path, (
            "import time\n"
            "def stamp():\n"
            "    return time.perf_counter()\n"
        ), rules="RPR001")
        assert _rule_ids(findings) == {"RPR001"}
        assert findings[0].line == 3

    def test_flags_from_time_import_and_datetime_now(self, tmp_path):
        findings = _analyze_snippet(tmp_path, (
            "from time import monotonic\n"
            "from datetime import datetime\n"
            "def stamp():\n"
            "    return monotonic(), datetime.now()\n"
        ), rules="RPR001")
        assert len(findings) == 2
        assert {f.line for f in findings} == {1, 4}

    def test_suppression_with_reason_clears_it(self, tmp_path):
        findings = _analyze_snippet(tmp_path, (
            "import time\n"
            "def stamp(clock=time.monotonic):"
            "  # repro: allow[RPR001] injectable default\n"
            "    return clock()\n"
        ), rules="RPR001")
        assert findings == []

    def test_clean_injected_clock_passes(self, tmp_path):
        findings = _analyze_snippet(tmp_path, (
            "def stamp(clock):\n"
            "    return clock()\n"
        ), rules="RPR001")
        assert findings == []

    def test_sleep_is_not_a_clock_read(self, tmp_path):
        findings = _analyze_snippet(tmp_path, (
            "import time\n"
            "def nap():\n"
            "    time.sleep(0.1)\n"
        ), rules="RPR001")
        assert findings == []


class TestUnseededRngRule:
    """RPR002 — no module-level or unseeded RNG."""

    def test_flags_stdlib_random_and_unseeded_default_rng(self, tmp_path):
        findings = _analyze_snippet(tmp_path, (
            "import random\n"
            "import numpy as np\n"
            "def draw():\n"
            "    a = random.random()\n"
            "    rng = np.random.default_rng()\n"
            "    return a, rng\n"
        ), rules="RPR002")
        assert _rule_ids(findings) == {"RPR002"}
        assert {f.line for f in findings} == {4, 5}

    def test_flags_numpy_global_state(self, tmp_path):
        findings = _analyze_snippet(tmp_path, (
            "import numpy as np\n"
            "def draw():\n"
            "    return np.random.rand(3)\n"
        ), rules="RPR002")
        assert len(findings) == 1
        assert "global RNG" in findings[0].message

    def test_seeded_default_rng_is_clean(self, tmp_path):
        findings = _analyze_snippet(tmp_path, (
            "import numpy as np\n"
            "def draw(seed):\n"
            "    return np.random.default_rng(seed).normal()\n"
        ), rules="RPR002")
        assert findings == []

    def test_suppressed_with_reason(self, tmp_path):
        findings = _analyze_snippet(tmp_path, (
            "import random\n"
            "def shuffle_demo():\n"
            "    # repro: allow[RPR002] demo script, not a reproducible path\n"
            "    return random.random()\n"
        ), rules="RPR002")
        assert findings == []


class TestSerializerOrderRule:
    """RPR003 — sorted iteration in functions reachable from serializers."""

    def test_flags_bare_dict_iteration_in_serializer(self, tmp_path):
        findings = _analyze_snippet(tmp_path, (
            "def dumps(store):\n"
            "    return [k for k, v in store.items()]\n"
        ), rules="RPR003")
        assert _rule_ids(findings) == {"RPR003"}
        assert ".items()" in findings[0].message

    def test_reaches_through_the_call_graph(self, tmp_path):
        findings = _analyze_snippet(tmp_path, (
            "def _rows(store):\n"
            "    for key in store.keys():\n"
            "        yield key\n"
            "def to_jsonl(store):\n"
            "    return list(_rows(store))\n"
        ), rules="RPR003")
        assert len(findings) == 1
        assert "_rows" in findings[0].message

    def test_sorted_iteration_is_clean(self, tmp_path):
        findings = _analyze_snippet(tmp_path, (
            "def dumps(store):\n"
            "    return [k for k, v in sorted(store.items())]\n"
        ), rules="RPR003")
        assert findings == []

    def test_unreachable_functions_are_out_of_scope(self, tmp_path):
        findings = _analyze_snippet(tmp_path, (
            "def hot_loop(store):\n"
            "    return [v for v in store.values()]\n"
        ), rules="RPR003")
        assert findings == []

    def test_suppressed_with_reason(self, tmp_path):
        findings = _analyze_snippet(tmp_path, (
            "def dumps(store):\n"
            "    # repro: allow[RPR003] keys are unsortable; rows sorted below\n"
            "    rows = [k for k in store.keys()]\n"
            "    return sorted(map(str, rows))\n"
        ), rules="RPR003")
        assert findings == []


class TestLayeringRule:
    """RPR004 — the import graph matches the architecture DAG, acyclically."""

    @staticmethod
    def _fake_repro(tmp_path: Path, core_body: str, serve_body: str = "") -> Path:
        root = tmp_path / "repro"
        _write(tmp_path, "repro/__init__.py", "")
        _write(tmp_path, "repro/core/__init__.py", "")
        _write(tmp_path, "repro/serve/__init__.py", "")
        _write(tmp_path, "repro/core/engine.py", core_body)
        _write(tmp_path, "repro/serve/server.py", serve_body)
        return root

    def test_upward_import_is_flagged(self, tmp_path):
        root = self._fake_repro(
            tmp_path, core_body="from ..serve.server import x\n",
            serve_body="x = 1\n",
        )
        findings, _ = analyze_paths([root], rules="RPR004")
        assert len(findings) == 1
        assert "`core` may not depend on `serve`" in findings[0].message

    def test_lazy_upward_import_is_still_flagged(self, tmp_path):
        root = self._fake_repro(
            tmp_path,
            core_body=(
                "def boot():\n"
                "    from ..serve.server import x\n"
                "    return x\n"
            ),
            serve_body="x = 1\n",
        )
        findings, _ = analyze_paths([root], rules="RPR004")
        assert len(findings) == 1

    def test_downward_import_is_clean(self, tmp_path):
        root = self._fake_repro(
            tmp_path, core_body="VALUE = 2\n",
            serve_body="from ..core.engine import VALUE\n",
        )
        findings, _ = analyze_paths([root], rules="RPR004")
        assert findings == []

    def test_module_cycle_is_flagged(self, tmp_path):
        root = tmp_path / "repro"
        _write(tmp_path, "repro/__init__.py", "")
        _write(tmp_path, "repro/core/__init__.py", "")
        _write(tmp_path, "repro/core/a.py", "from .b import y\nx = 1\n")
        _write(tmp_path, "repro/core/b.py", "from .a import x\ny = 2\n")
        findings, _ = analyze_paths([root], rules="RPR004")
        assert len(findings) == 1
        assert "import cycle" in findings[0].message
        assert "repro.core.a" in findings[0].message

    def test_lazy_import_breaks_the_cycle(self, tmp_path):
        root = tmp_path / "repro"
        _write(tmp_path, "repro/__init__.py", "")
        _write(tmp_path, "repro/core/__init__.py", "")
        _write(tmp_path, "repro/core/a.py", (
            "def go():\n"
            "    from .b import y\n"
            "    return y\n"
            "x = 1\n"
        ))
        _write(tmp_path, "repro/core/b.py", "from .a import x\ny = 2\n")
        findings, _ = analyze_paths([root], rules="RPR004")
        assert findings == []

    def test_layer_deps_is_a_dag(self):
        # The allow-table itself must be acyclic and closed over its keys.
        for layer, deps in LAYER_DEPS.items():
            assert layer not in deps
            assert deps <= set(LAYER_DEPS), (layer, deps - set(LAYER_DEPS))
        seen: set[str] = set()
        frontier = [l for l, d in LAYER_DEPS.items() if not d]
        while frontier:
            seen.update(frontier)
            frontier = [
                l for l, d in LAYER_DEPS.items()
                if l not in seen and d <= seen
            ]
        assert seen == set(LAYER_DEPS)


class TestRegistryParityRule:
    """RPR005 — kernel engine pairs and schema round-trip pairs stay whole."""

    def test_schema_class_missing_from_json(self, tmp_path):
        findings = _analyze_snippet(tmp_path, (
            "SCHEMA_VERSION = 3\n"
            "class Record:\n"
            "    def to_json(self):\n"
            "        return {}\n"
        ), rules="RPR005")
        assert len(findings) == 1
        assert "`to_json` but not `from_json`" in findings[0].message

    def test_complete_pairs_are_clean(self, tmp_path):
        findings = _analyze_snippet(tmp_path, (
            "SCHEMA_VERSION = 3\n"
            "class Record:\n"
            "    def to_json(self):\n"
            "        return {}\n"
            "    @classmethod\n"
            "    def from_json(cls, data):\n"
            "        return cls()\n"
        ), rules="RPR005")
        assert findings == []

    def test_no_schema_marker_no_requirement(self, tmp_path):
        findings = _analyze_snippet(tmp_path, (
            "class Scratch:\n"
            "    def dumps(self):\n"
            "        return ''\n"
        ), rules="RPR005")
        assert findings == []

    def test_registered_kernel_missing_model_counters(self, tmp_path):
        _write(tmp_path, "repro/__init__.py", "")
        _write(tmp_path, "repro/kernels/__init__.py", "")
        _write(tmp_path, "repro/kernels/base.py", (
            "class SimKernel:\n"
            "    pass\n"
        ))
        _write(tmp_path, "repro/kernels/direct.py", (
            "from .base import SimKernel\n"
            "class HalfKernel(SimKernel):\n"
            "    def run_block(self):\n"
            "        return None\n"
        ))
        _write(tmp_path, "repro/kernels/registry.py", (
            "from .direct import HalfKernel\n"
            "KERNELS = {'half': HalfKernel}\n"
        ))
        findings, _ = analyze_paths([tmp_path / "repro"], rules="RPR005")
        assert len(findings) == 1
        assert "`HalfKernel` does not define `model_counters`" in findings[0].message


class TestSubmissionOrderRule:
    """RPR006 — pool results merge in submission order."""

    def test_flags_as_completed(self, tmp_path):
        findings = _analyze_snippet(tmp_path, (
            "from concurrent.futures import as_completed\n"
            "def merge(futures):\n"
            "    return [f.result() for f in as_completed(futures)]\n"
        ), rules="RPR006")
        assert _rule_ids(findings) == {"RPR006"}
        assert {f.line for f in findings} == {1, 3}

    def test_flags_imap_unordered(self, tmp_path):
        findings = _analyze_snippet(tmp_path, (
            "def merge(pool, work):\n"
            "    return list(pool.imap_unordered(str, work))\n"
        ), rules="RPR006")
        assert len(findings) == 1

    def test_pool_map_is_clean(self, tmp_path):
        findings = _analyze_snippet(tmp_path, (
            "def merge(pool, work):\n"
            "    return list(pool.map(str, work))\n"
        ), rules="RPR006")
        assert findings == []


class TestSpanContextRule:
    """RPR007 — spans open only through the context-manager form."""

    def test_flags_manual_start_end_pair(self, tmp_path):
        findings = _analyze_snippet(tmp_path, (
            "def work(tracer):\n"
            "    tracer.start_span('batch')\n"
            "    run()\n"
            "    tracer.end_span()\n"
        ), rules="RPR007")
        assert _rule_ids(findings) == {"RPR007"}
        assert {f.line for f in findings} == {2, 4}

    def test_flags_bare_span_call_outside_with(self, tmp_path):
        findings = _analyze_snippet(tmp_path, (
            "def work(tracer):\n"
            "    span = tracer.span('batch')\n"
            "    span.__enter__()\n"
        ), rules="RPR007")
        assert len(findings) == 1
        assert findings[0].line == 2
        assert "with tracer.span" in findings[0].message

    def test_with_form_is_clean(self, tmp_path):
        findings = _analyze_snippet(tmp_path, (
            "def work(tracer):\n"
            "    with tracer.span('batch', size=4):\n"
            "        run()\n"
        ), rules="RPR007")
        assert findings == []

    def test_add_span_and_foreign_span_calls_are_clean(self, tmp_path):
        findings = _analyze_snippet(tmp_path, (
            "import re\n"
            "def work(tracer, text):\n"
            "    tracer.add_span('busy', 0.0, 1.0)\n"
            "    return re.match('a', text).span()\n"
        ), rules="RPR007")
        assert findings == []

    def test_suppressed_with_reason(self, tmp_path):
        findings = _analyze_snippet(tmp_path, (
            "def work(tracer):\n"
            "    # repro: allow[RPR007] exporter test fixture, never entered\n"
            "    return tracer.span('batch')\n"
        ), rules="RPR007")
        assert findings == []


class TestAmbientSleepRule:
    """RPR008 — retry/backoff waits are events on the injected clock."""

    def test_flags_time_sleep_call(self, tmp_path):
        findings = _analyze_snippet(tmp_path, (
            "import time\n"
            "def backoff(attempt):\n"
            "    time.sleep(2 ** attempt)\n"
        ), rules="RPR008")
        assert _rule_ids(findings) == {"RPR008"}
        assert findings[0].line == 3
        assert "injected clock" in findings[0].message

    def test_flags_from_time_import_sleep_and_its_call(self, tmp_path):
        findings = _analyze_snippet(tmp_path, (
            "from time import sleep\n"
            "def backoff():\n"
            "    sleep(0.1)\n"
        ), rules="RPR008")
        assert len(findings) == 2
        assert {f.line for f in findings} == {1, 3}

    def test_injectable_sleep_default_is_clean(self, tmp_path):
        # The reference, not the call: `sleep=time.sleep` defaults stay
        # legal (their wall-clock nature is RPR001's allow-comment domain).
        findings = _analyze_snippet(tmp_path, (
            "import time\n"
            "def serve(sleep=time.sleep):\n"
            "    sleep(0.0)\n"
        ), rules="RPR008")
        assert findings == []

    def test_scheduled_event_on_injected_clock_is_clean(self, tmp_path):
        findings = _analyze_snippet(tmp_path, (
            "import heapq\n"
            "def schedule(heap, now, delay):\n"
            "    heapq.heappush(heap, (now + delay, 'retry'))\n"
        ), rules="RPR008")
        assert findings == []

    def test_foreign_sleep_attribute_is_clean(self, tmp_path):
        findings = _analyze_snippet(tmp_path, (
            "def drive(clock):\n"
            "    clock.sleep(0.1)\n"
        ), rules="RPR008")
        assert findings == []

    def test_suppressed_with_reason(self, tmp_path):
        findings = _analyze_snippet(tmp_path, (
            "import time\n"
            "def wait():\n"
            "    # repro: allow[RPR008] operator-facing poll loop, not replay\n"
            "    time.sleep(1.0)\n"
        ), rules="RPR008")
        assert findings == []


class TestBuiltinHashRule:
    """RPR009 — seeds and keys never come from the per-process hash salt."""

    def test_flags_hash_seeded_rng(self, tmp_path):
        findings = _analyze_snippet(tmp_path, (
            "import numpy as np\n"
            "def rng_for(spec, seed):\n"
            "    key = abs(hash((spec.name, spec.kind.value, spec.in_channels,\n"
            "                    spec.out_channels))) % (2**31)\n"
            "    return np.random.default_rng(seed ^ key)\n"
        ), rules="RPR009")
        assert _rule_ids(findings) == {"RPR009"}
        assert findings[0].line == 3
        assert "PYTHONHASHSEED" in findings[0].message

    def test_dunder_hash_is_clean(self, tmp_path):
        findings = _analyze_snippet(tmp_path, (
            "class Site:\n"
            "    def __hash__(self):\n"
            "        return hash((self.module, self.qualname))\n"
        ), rules="RPR009")
        assert findings == []

    def test_hash_in_other_method_is_flagged(self, tmp_path):
        findings = _analyze_snippet(tmp_path, (
            "class Site:\n"
            "    def key(self):\n"
            "        return hash(self.name)\n"
        ), rules="RPR009")
        assert [f.line for f in findings] == [3]

    def test_digest_and_foreign_hash_attribute_are_clean(self, tmp_path):
        findings = _analyze_snippet(tmp_path, (
            "import hashlib\n"
            "def key(name, store):\n"
            "    store.hash(name)\n"
            "    return hashlib.blake2b(name.encode(), digest_size=8).digest()\n"
        ), rules="RPR009")
        assert findings == []

    def test_suppressed_with_reason(self, tmp_path):
        findings = _analyze_snippet(tmp_path, (
            "def tuning_seed(name, seed):\n"
            "    # repro: allow[RPR009] re-seeding moves the pinned baseline\n"
            "    return (seed * 1000003 + abs(hash(name))) % (2**31)\n"
        ), rules="RPR009")
        assert findings == []


class TestSuppressions:
    def test_reasonless_suppression_is_a_finding(self, tmp_path):
        findings = _analyze_snippet(tmp_path, (
            "import time\n"
            "def stamp():\n"
            "    return time.time()  # repro: allow[RPR001]\n"
        ))
        # The bad comment does NOT suppress, and additionally reports RPR000.
        assert _rule_ids(findings) == {"RPR001", SUPPRESSION_RULE_ID}

    def test_comment_block_covers_next_code_line(self):
        sup = parse_suppressions([
            "# repro: allow[RPR004] the reason spans",
            "# two comment lines",
            "from ..serve import x",
        ])
        assert len(sup) == 1
        assert sup[0].line == 3
        assert sup[0].rule_id == "RPR004"
        assert sup[0].reason

    def test_suppression_is_rule_specific(self, tmp_path):
        findings = _analyze_snippet(tmp_path, (
            "import time\n"
            "def stamp():\n"
            "    return time.time()  # repro: allow[RPR002] wrong rule id\n"
        ), rules="RPR001")
        assert _rule_ids(findings) == {"RPR001"}


class TestImportGraph:
    def test_edges_resolve_relative_imports(self, tmp_path):
        _write(tmp_path, "pkg/__init__.py", "")
        _write(tmp_path, "pkg/a.py", "from . import b\n")
        _write(tmp_path, "pkg/b.py", "")
        _, ctx = analyze_paths([tmp_path / "pkg"], rules="RPR004")
        graph = build_import_graph(ctx.modules)
        assert any(
            e.source == "pkg.a" and e.target == "pkg.b" for e in graph.edges
        )

    def test_cycles_are_deterministic(self, tmp_path):
        _write(tmp_path, "pkg/__init__.py", "")
        _write(tmp_path, "pkg/a.py", "from .b import y\n")
        _write(tmp_path, "pkg/b.py", "from .c import z\n")
        _write(tmp_path, "pkg/c.py", "from .a import x\n")
        _, ctx = analyze_paths([tmp_path / "pkg"], rules="RPR004")
        graph = build_import_graph(ctx.modules)
        cycles = graph.cycles()
        assert cycles == graph.cycles()  # stable
        assert len(cycles) == 1
        assert set(cycles[0]) == {"pkg.a", "pkg.b", "pkg.c"}

    def test_no_false_cycle_from_type_checking_imports(self, tmp_path):
        _write(tmp_path, "pkg/__init__.py", "")
        _write(tmp_path, "pkg/a.py", (
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from .b import B\n"
        ))
        _write(tmp_path, "pkg/b.py", "from .a import x\nclass B: pass\n")
        _, ctx = analyze_paths([tmp_path / "pkg"], rules="RPR004")
        assert build_import_graph(ctx.modules).cycles() == []


class TestReporters:
    def _findings(self, tmp_path):
        return _analyze_snippet(tmp_path, (
            "import time\n"
            "def stamp():\n"
            "    return time.time()\n"
        ), rules="RPR001")

    def test_text_report_lists_findings_and_summary(self, tmp_path):
        findings = self._findings(tmp_path)
        text = render_text(findings, ("RPR001",), 1)
        assert "RPR001" in text
        assert "1 finding" in text

    def test_json_report_is_byte_deterministic(self, tmp_path):
        findings = self._findings(tmp_path)
        a = render_json(findings, ("RPR001",), 1)
        b = render_json(list(findings), ("RPR001",), 1)
        assert a == b
        assert a.endswith("\n")
        import json

        payload = json.loads(a)
        assert payload["kind"] == "repro-analysis-report"
        assert payload["schema"] == 1
        assert payload["rules"] == ["RPR001"]
        assert len(payload["findings"]) == len(findings)


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        path = _write(tmp_path, "ok.py", "def f():\n    return 1\n")
        assert analysis_main([str(path)]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_findings_exit_one_and_write_report(self, tmp_path, capsys):
        bad = _write(tmp_path, "bad.py", (
            "import time\n"
            "def stamp():\n"
            "    return time.time()\n"
        ))
        out = tmp_path / "report.json"
        rc = analysis_main([str(bad), "--format", "json",
                            "--output", str(out)])
        assert rc == 1
        report = out.read_text(encoding="utf-8")
        assert report == capsys.readouterr().out
        assert "RPR001" in report

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        path = _write(tmp_path, "ok.py", "x = 1\n")
        assert analysis_main([str(path), "--rules", "NOPE01"]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_path_exits_two(self, tmp_path):
        assert analysis_main([str(tmp_path / "missing.py")]) == 2

    def test_list_rules(self, capsys):
        assert analysis_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ALL_RULE_IDS:
            assert rule_id in out


class TestSelfAnalysis:
    """The meta-test: the shipped tree holds its own invariants."""

    def test_src_repro_is_finding_free(self):
        findings, ctx = analyze_paths([REPO / "src" / "repro"])
        assert findings == [], "\n".join(f.describe() for f in findings)
        assert ctx.rule_ids == ALL_RULE_IDS
        assert len(ctx.modules) > 50  # the whole tree was actually scanned

    def test_every_shipped_suppression_carries_a_reason(self):
        _, ctx = analyze_paths([REPO / "src" / "repro"])
        for info in ctx.modules:
            for sup in info.suppressions:
                assert sup.reason, f"{info.path}:{sup.line} ({sup.rule_id})"
