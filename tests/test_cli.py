"""CLI smoke tests (artifact commands are exercised end to end)."""

from __future__ import annotations

import shlex

import pytest

from repro.cli import build_parser, main

#: Every registered subcommand must carry a worked-example --help epilog.
SUBCOMMANDS = (
    "gpus", "table2", "fig6", "fig10", "plan", "chains", "serve",
    "bench-serve", "fleet", "tune",
)

#: ... and so must every `tune` group subcommand (PR-1 house style).
TUNE_SUBCOMMANDS = ("run", "show", "export")


@pytest.fixture
def tiny_model(monkeypatch):
    """A fast-to-plan model registered into the zoo for serve smoke tests."""
    from repro.core.dtypes import DType
    from repro.ir.blocks import dsc_block, standard_conv
    from repro.ir.graph import ModelGraph
    from repro.models.zoo import MODELS

    def build(dtype=DType.FP32):
        g = ModelGraph("tiny_cli")
        last = standard_conv(g, "stem", 3, 8, 32, 32, stride=2, dtype=dtype)
        dsc_block(g, "b1", 8, 16, 16, 16, after=last, dtype=dtype)
        g.validate()
        return g

    monkeypatch.setitem(MODELS, "tiny_cli", build)
    return "tiny_cli"


def test_gpus_listing(capsys):
    assert main(["gpus"]) == 0
    out = capsys.readouterr().out
    assert "GTX" in out and "RTX" in out and "Orin" in out


def test_plan_command(capsys):
    assert main(["plan", "mobilenet_v1", "--gpu", "GTX"]) == 0
    out = capsys.readouterr().out
    assert "ExecutionPlan" in out and "FCM" in out


def test_plan_int8(capsys):
    assert main(["plan", "mobilenet_v1", "--gpu", "Orin", "--dtype", "int8"]) == 0
    assert "int8" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["run", "mobilenet_v1", "--engine", "reference"],
    ["plan", "mobilenet_v1", "--search-engine", "reference"],
    ["tune", "run", "--models", "mobilenet_v1", "--db", "TUNE_removed.json",
     "--engine", "fast"],
    ["fleet", "--models", "mobilenet_v1", "--workers", "2"],
], ids=["run-engine", "plan-search-engine", "tune-run-engine", "fleet-workers"])
def test_removed_selector_flags_are_usage_errors(argv, capsys):
    """The oracle and preplan-pool selectors are gone from the CLI."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", SUBCOMMANDS)
def test_help_epilog_has_examples(cmd, capsys):
    with pytest.raises(SystemExit) as exc:
        main([cmd, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "examples:" in out
    assert f"python -m repro.cli {cmd}" in out


def test_every_epilog_example_parses():
    """Each worked example in a --help epilog is a valid command line."""
    from repro.cli import _EPILOGS

    parser = build_parser()
    examples = [
        line.strip()
        for text in _EPILOGS.values()
        for line in text.splitlines()
        if "python -m repro.cli" in line
    ]
    assert len(examples) > len(_EPILOGS)
    for line in examples:
        argv = shlex.split(line, comments=True)[3:]
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"epilog example does not parse: {line}")


def test_serve_command(capsys, tiny_model):
    assert main([
        "serve", tiny_model, "--gpu", "GTX",
        "--requests", "16", "--rate", "100000", "--max-batch", "4",
    ]) == 0
    out = capsys.readouterr().out
    assert "img/s" in out and "1 planning pass" in out


def test_bench_serve_command(capsys, tiny_model):
    assert main([
        "bench-serve", "--models", tiny_model, "--batches", "1,2,4",
        "--gpu", "GTX",
    ]) == 0
    out = capsys.readouterr().out
    assert "vs b=1" in out
    assert "planner invocations: 1" in out


def test_serve_command_with_fleet(capsys, tiny_model):
    assert main([
        "serve", tiny_model, "--gpus", "GTX,RTX",
        "--requests", "16", "--rate", "100000", "--max-batch", "4",
    ]) == 0
    out = capsys.readouterr().out
    assert "fleet[GTX+RTX]" in out and "plan hit rate" in out


def test_bench_serve_command_with_fleet(capsys, tiny_model):
    assert main([
        "bench-serve", "--models", tiny_model, "--batches", "1,2",
        "--gpus", "GTX,RTX",
    ]) == 0
    out = capsys.readouterr().out
    assert "worker" in out and "fleet hit rate" in out


def test_fleet_command(capsys, tiny_model):
    assert main([
        "fleet", "--gpus", "GTX,RTX", "--models", tiny_model,
        "--requests", "16", "--rate", "100000",
    ]) == 0
    out = capsys.readouterr().out
    assert "fleet[GTX+RTX] policy=affinity" in out
    assert "GTX#0" in out and "RTX#1" in out


def test_fleet_command_explain_traces_routing(capsys, tiny_model):
    assert main([
        "fleet", "--gpus", "GTX,RTX", "--models", tiny_model,
        "--requests", "8", "--rate", "100000", "--explain",
    ]) == 0
    out = capsys.readouterr().out
    assert "routing trace" in out
    assert out.count("#0 ") >= 1  # at least the first decision is printed


def test_fleet_command_round_robin(capsys, tiny_model):
    assert main([
        "fleet", "--gpus", "GTX,GTX", "--models", tiny_model,
        "--requests", "8", "--rate", "100000", "--policy", "round_robin",
    ]) == 0
    assert "policy=round_robin" in capsys.readouterr().out


@pytest.mark.parametrize("cmd", TUNE_SUBCOMMANDS)
def test_tune_subcommand_epilogs(cmd, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tune", cmd, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "examples:" in out
    assert f"python -m repro.cli tune {cmd}" in out


@pytest.fixture
def tiny_db_path(tmp_path, tiny_model, capsys):
    """A tuning DB for the tiny model, built through the CLI itself."""
    path = tmp_path / "tune.json"
    assert main([
        "tune", "run", "--models", tiny_model, "--gpus", "GTX",
        "--db", str(path), "--iterations", "3",
    ]) == 0
    capsys.readouterr()  # drop the build output
    return path


def test_tune_run_reports_and_persists(capsys, tiny_model, tmp_path):
    path = tmp_path / "tune.json"
    assert main([
        "tune", "run", "--models", tiny_model, "--gpus", "GTX,RTX",
        "--db", str(path), "--iterations", "3",
    ]) == 0
    out = capsys.readouterr().out
    assert "candidates measured" in out
    assert "fitted calibration factors" in out
    assert "new or improved)" in out and path.exists()
    # Re-running identically accumulates into the same DB without
    # duplicating or churning records.
    assert main([
        "tune", "run", "--models", tiny_model, "--gpus", "GTX",
        "--db", str(path), "--iterations", "3",
    ]) == 0
    assert "(0 new or improved)" in capsys.readouterr().out


def test_tune_show_command(capsys, tiny_model, tiny_db_path):
    assert main(["tune", "show", "--db", str(tiny_db_path)]) == 0
    out = capsys.readouterr().out
    assert "model-level records" in out and "calibration factors" in out
    assert main(["tune", "show", "--db", str(tiny_db_path), "--records"]) == 0
    assert "all records" in capsys.readouterr().out


def test_tune_show_tolerates_foreign_model_records(capsys, tmp_path):
    # A schema-valid model record with the wrong geometry arity (another
    # tool's convention) must not crash the summary.
    from repro.tune.records import TuningDB, TuningKey, TuningRecord

    db = TuningDB()
    db.add(TuningRecord(
        key=TuningKey("model", ("solo",), "GTX", "fp32", "paper"),
        tiling={}, est_cost_s=1e-4, measured_cost_s=1e-4, tuned_cost_s=1e-4,
        gma_bytes=1, evaluated=1,
    ))
    path = tmp_path / "foreign.json"
    db.save(path)
    assert main(["tune", "show", "--db", str(path)]) == 0
    assert "0 models, 0 steps" in capsys.readouterr().out


def test_tune_export_is_canonical(capsys, tiny_db_path, tmp_path):
    out_path = tmp_path / "canonical.json"
    assert main([
        "tune", "export", "--db", str(tiny_db_path), "--out", str(out_path),
    ]) == 0
    assert "exported" in capsys.readouterr().out
    assert out_path.read_bytes() == tiny_db_path.read_bytes()


def test_plan_with_db_calibrates(capsys, tiny_model, tiny_db_path):
    assert main([
        "plan", tiny_model, "--gpu", "GTX", "--db", str(tiny_db_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "calibrated planning" in out and "est latency" in out


def test_serve_with_db_warm_starts_fleet(capsys, tiny_model, tiny_db_path):
    assert main([
        "serve", tiny_model, "--gpus", "GTX,GTX",
        "--requests", "16", "--rate", "100000", "--db", str(tiny_db_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "warm-started plan(s)" in out and "0 on the critical path" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["nonsense"])


def test_unknown_model_raises():
    from repro.errors import UnsupportedError

    with pytest.raises(UnsupportedError):
        main(["plan", "resnet"])
