"""Rule base class, finding record, registry and suppression comments.

The registry follows the house resolver style (`ENGINES`/`resolve_engine`
in :mod:`repro.gpu.fastpath`): rules register under a stable ``RPR0xx``
identifier, ``ALL_RULE_IDS`` is the canonical ordered vocabulary, and
:func:`resolve_rules` normalizes a user-supplied selection (``None`` ->
everything) or raises :class:`~repro.errors.AnalysisError` on an unknown id.
"""

from __future__ import annotations

import abc
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

from ..errors import AnalysisError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .runner import AnalysisContext

__all__ = [
    "Finding",
    "Rule",
    "SUPPRESSION_RULE_ID",
    "parse_suppressions",
    "register_rule",
    "resolve_rules",
    "rule_registry",
]

#: Pseudo-rule id for malformed suppression comments (a suppression with no
#: reason is itself a finding — the reason *is* the audit trail).
SUPPRESSION_RULE_ID = "RPR000"


@dataclass(frozen=True, order=True)
class Finding:
    """One analyzer hit, ordered canonically for deterministic reports."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str

    def describe(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"

    def to_json(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "message": self.message,
        }


class Rule(abc.ABC):
    """One invariant checked over the parsed module set.

    Subclasses set ``rule_id`` / ``title`` and yield :class:`Finding`s from
    :meth:`check`.  Suppressions are applied by the runner, not the rule.
    """

    rule_id: str
    title: str

    @abc.abstractmethod
    def check(self, ctx: "AnalysisContext") -> Iterator[Finding]:
        """Yield every violation found in ``ctx`` (suppressed or not)."""


_REGISTRY: dict[str, type[Rule]] = {}


def register_rule(cls: type[Rule]) -> type[Rule]:
    """Class decorator registering a rule under its ``rule_id``."""
    if not getattr(cls, "rule_id", ""):
        raise AnalysisError(f"rule class {cls.__name__} has no rule_id")
    if cls.rule_id in _REGISTRY:
        raise AnalysisError(f"duplicate rule id {cls.rule_id}")
    _REGISTRY[cls.rule_id] = cls
    return cls


def rule_registry() -> dict[str, type[Rule]]:
    """The registered rules, id -> class (import-time populated)."""
    from . import rules as _rules  # noqa: F401  (registers on import)

    return dict(_REGISTRY)


def _all_rule_ids() -> tuple[str, ...]:
    return tuple(sorted(rule_registry()))


def resolve_rules(spec: "str | Iterable[str] | None") -> tuple[str, ...]:
    """Normalize a rule selection (``None``/"" -> all rules), or raise.

    Accepts a comma-separated string (CLI style) or an iterable of ids;
    returns ids in canonical sorted order.
    """
    known = _all_rule_ids()
    if spec is None:
        return known
    if isinstance(spec, str):
        spec = [s for s in spec.split(",") if s.strip()]
    chosen = tuple(sorted({s.strip() for s in spec}))
    if not chosen:
        return known
    unknown = [s for s in chosen if s not in known]
    if unknown:
        raise AnalysisError(
            f"unknown rule id(s) {', '.join(unknown)}; choose from {', '.join(known)}"
        )
    return chosen


#: ``# repro: allow[RPR001] reason`` — the reason is mandatory; see
#: :data:`SUPPRESSION_RULE_ID`.
_SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*allow\[(?P<rule>[A-Z]{3}\d{3})\]\s*(?P<reason>.*)$"
)


@dataclass(frozen=True)
class Suppression:
    """A parsed ``# repro: allow[...]`` comment."""

    line: int
    rule_id: str
    reason: str


def parse_suppressions(source_lines: "list[str]") -> "list[Suppression]":
    """Extract every suppression comment from a module's source lines.

    A suppression on a code line covers that line; a suppression opening a
    comment block covers the first code line after the block (so multi-line
    reasons can sit above the code they excuse).
    """
    out: list[Suppression] = []
    for lineno, text in enumerate(source_lines, start=1):
        m = _SUPPRESS_RE.search(text)
        if m is None:
            continue
        target = lineno
        if text.lstrip().startswith("#"):
            for nxt in range(lineno + 1, len(source_lines) + 1):
                following = source_lines[nxt - 1].strip()
                if following and not following.startswith("#"):
                    target = nxt
                    break
        out.append(Suppression(target, m.group("rule"), m.group("reason").strip()))
    return out
