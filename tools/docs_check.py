"""Validate that docs reference only things that exist (`make docs-check`).

Scans the given markdown files for three kinds of claims and fails (exit 1)
on any dead reference, so the README can't drift from the code:

* dotted ``repro.*`` module paths — the module must import (a trailing
  attribute like ``repro.models.zoo.build_model`` must resolve on it);
* ``python -m repro.cli <command>`` invocations — the subcommand must be
  registered in :func:`repro.cli.build_parser`, and every such command line
  inside a fenced code block (``\\`` continuations joined, ``# comments``
  dropped) must parse with it;
* repo-relative paths (``src/...``, ``benchmarks/...``, ``examples/...``,
  ``docs/...``, ``tools/...``) — the file or directory must exist;
* ``make <target>`` mentions — the target must exist in the Makefile.

Usage: ``python tools/docs_check.py README.md docs/architecture.md``
"""

from __future__ import annotations

import contextlib
import importlib
import importlib.util
import io
import re
import shlex
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

MODULE_RE = re.compile(r"\brepro(?:\.[a-zA-Z_][a-zA-Z_0-9]*)+")
CLI = "python -m repro.cli"
CLI_RE = re.compile(r"python -m repro\.cli ([a-z][a-z0-9-]*)")
PATH_RE = re.compile(r"\b(?:src|benchmarks|examples|docs|tools)/[\w./-]*")
# Backticked only: prose like "make sure" must not read as a target claim.
MAKE_RE = re.compile(r"`make ([a-z][a-z-]*)`")


def check_module(dotted: str) -> str | None:
    """Return an error string if ``dotted`` neither imports nor resolves."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        prefix = ".".join(parts[:i])
        try:
            spec = importlib.util.find_spec(prefix)
        except ModuleNotFoundError:
            spec = None
        if spec is None:
            continue
        obj = importlib.import_module(prefix)
        for attr in parts[i:]:
            if not hasattr(obj, attr):
                return f"module {prefix!r} has no attribute {attr!r}"
            obj = getattr(obj, attr)
        return None
    return f"module {dotted!r} does not import"


def cli_commands(parser) -> set[str]:
    for action in parser._subparsers._group_actions:  # noqa: SLF001
        return set(action.choices)
    return set()


def code_block_commands(text: str) -> list[str]:
    """Every ``python -m repro.cli`` line inside a fenced code block, with
    backslash continuations joined."""
    commands: list[str] = []
    in_block = False
    pending = ""
    for raw in text.splitlines():
        if raw.lstrip().startswith("```"):
            in_block, pending = not in_block, ""
            continue
        if not in_block:
            continue
        line = pending + raw.lstrip() if pending else raw
        if line.endswith("\\"):
            pending = line[:-1] + " "
            continue
        pending = ""
        if CLI in line:
            commands.append(line.strip())
    return commands


def check_cli_example(line: str, parser) -> str | None:
    """Return an error string if a documented command line does not parse."""
    argv = shlex.split(line.split(CLI, 1)[1], comments=True)
    output = io.StringIO()
    try:
        with contextlib.redirect_stdout(output), contextlib.redirect_stderr(output):
            parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code:
            reason = output.getvalue().strip().splitlines()[-1]
            return f"CLI example does not parse: {line!r} ({reason})"
    return None


def make_targets() -> set[str]:
    targets: set[str] = set()
    makefile = REPO / "Makefile"
    if makefile.exists():
        for line in makefile.read_text().splitlines():
            m = re.match(r"^([a-zA-Z][\w-]*)\s*:", line)
            if m:
                targets.add(m.group(1))
    return targets


def check_file(path: Path, parser, targets: set[str]) -> list[str]:
    text = path.read_text()
    commands = cli_commands(parser)
    errors: list[str] = []
    for dotted in sorted(set(MODULE_RE.findall(text))):
        err = check_module(dotted)
        if err:
            errors.append(f"{path.name}: {err}")
    for cmd in sorted(set(CLI_RE.findall(text))):
        if cmd not in commands:
            errors.append(
                f"{path.name}: CLI command {cmd!r} not registered "
                f"(have: {sorted(commands)})"
            )
    for line in code_block_commands(text):
        err = check_cli_example(line, parser)
        if err:
            errors.append(f"{path.name}: {err}")
    for ref in sorted(set(PATH_RE.findall(text))):
        ref = ref.rstrip("./")
        if ref and not (REPO / ref).exists():
            errors.append(f"{path.name}: path {ref!r} does not exist")
    for target in sorted(set(MAKE_RE.findall(text))):
        if target not in targets:
            errors.append(f"{path.name}: make target {target!r} not in Makefile")
    return errors


def main(argv: list[str]) -> int:
    from repro.cli import build_parser

    files = [Path(a) for a in argv] or [REPO / "README.md"]
    errors: list[str] = []
    for f in files:
        if not f.exists():
            errors.append(f"{f}: file not found")
            continue
        errors.extend(check_file(f, build_parser(), make_targets()))
    if errors:
        print("docs-check FAILED:")
        for e in errors:
            print(f"  - {e}")
        return 1
    print(f"docs-check OK: {', '.join(str(f) for f in files)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
