"""Rule framework for the determinism linter.

A rule is a small object with a stable code (``RPR001``…), a scope (the
package directories it applies to, or everywhere) and a ``check``
method that yields :class:`Violation` objects for one parsed module.
Rules register themselves into :data:`RULE_REGISTRY` via the
:func:`register` decorator so the checker, the CLI and the docs all
enumerate the same set.

Two rule kinds share the registry:

* per-file rules (:class:`Rule`, codes ``RPR0xx``) see one
  :class:`ParsedModule` at a time;
* whole-program rules (:class:`ProjectRule`, codes ``RPR1xx``) see a
  :class:`repro.lint.project.ProjectModel` — every linted file parsed
  once, with a call graph — and reason across call boundaries.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

__all__ = [
    "ParsedModule",
    "ProjectRule",
    "RULE_REGISTRY",
    "Rule",
    "SYNTAX_ERROR_CODE",
    "Violation",
    "all_rules",
    "applicable_rules",
    "file_rules",
    "project_rules",
    "register",
]

#: Pseudo-code attached to unparsable files; not a registered rule and
#: deliberately not suppressible.
SYNTAX_ERROR_CODE = "RPR000"

#: Wall-clock reads: host-dependent in simulation code.
WALL_CLOCK_CALLS = frozenset({
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
})

#: numpy.random attributes that are part of the sanctioned seeded-stream
#: pattern (``sim/rng.py``); everything else on the module is the
#: legacy *global* RNG.
NP_RANDOM_ALLOWED = frozenset({
    "default_rng",
    "Generator",
    "BitGenerator",
    "SeedSequence",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "MT19937",
    "SFC64",
})


@dataclass(frozen=True, order=True)
class Violation:
    """One finding: a rule fired at a location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


@dataclass
class ParsedModule:
    """A source file plus everything rules need to inspect it."""

    path: Path
    tree: ast.Module
    lines: list[str]
    #: local name -> fully dotted origin, e.g. ``np`` -> ``numpy`` or
    #: ``perf_counter`` -> ``time.perf_counter`` (built by the checker).
    aliases: dict[str, str] = field(default_factory=dict)

    def resolve(self, node: ast.AST) -> str | None:
        """Dotted path of a Name/Attribute chain through import aliases.

        ``np.random.default_rng`` with ``import numpy as np`` resolves to
        ``numpy.random.default_rng``; returns ``None`` for anything that
        is not a plain dotted chain rooted in a known import.
        """
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.aliases.get(node.id)
        if root is None:
            return None
        parts.append(root)
        return ".".join(reversed(parts))


class Rule:
    """Base class: subclass, set the class attributes, implement check."""

    code: str = ""
    name: str = ""
    rationale: str = ""
    #: Directory names the rule is restricted to (any match in the file's
    #: path parts activates it); ``None`` applies everywhere.
    scope: tuple[str, ...] | None = None

    def applies_to(self, path: Path) -> bool:
        if self.scope is None:
            return True
        return any(part in self.scope for part in path.parts)

    def check(self, module: ParsedModule) -> Iterator[Violation]:
        raise NotImplementedError

    def violation(
        self, module: ParsedModule, node: ast.AST, message: str
    ) -> Violation:
        return Violation(
            path=str(module.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=self.code,
            message=message,
        )


class ProjectRule(Rule):
    """Base for whole-program rules: implement ``check_project``.

    A project rule never runs per file; the checker hands it the full
    :class:`~repro.lint.project.ProjectModel` once per lint invocation
    and routes the resulting violations through each file's ``noqa``
    suppression tables, exactly like per-file findings.
    """

    def check(self, module: ParsedModule) -> Iterator[Violation]:
        raise NotImplementedError(
            f"{self.code} is a project rule; use check_project"
        )

    def check_project(self, project) -> Iterator[Violation]:
        raise NotImplementedError

    def project_violation(
        self, path, node: ast.AST, message: str
    ) -> Violation:
        return Violation(
            path=str(path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=self.code,
            message=message,
        )


RULE_REGISTRY: dict[str, Rule] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator: instantiate and index the rule by its code."""
    instance = cls()
    if not instance.code:
        raise ValueError(f"rule {cls.__name__} has no code")
    if instance.code in RULE_REGISTRY:
        raise ValueError(f"duplicate rule code {instance.code}")
    RULE_REGISTRY[instance.code] = instance
    return cls


def all_rules() -> list[Rule]:
    """Every registered rule, sorted by code."""
    return [RULE_REGISTRY[code] for code in sorted(RULE_REGISTRY)]


def file_rules() -> list[Rule]:
    """Registered per-file rules only."""
    return [r for r in all_rules() if not isinstance(r, ProjectRule)]


def project_rules(
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
) -> list[Rule]:
    """Registered whole-program rules after select/ignore filtering."""
    selected = set(select) if select else None
    ignored = set(ignore) if ignore else set()
    return [
        rule
        for rule in all_rules()
        if isinstance(rule, ProjectRule)
        and (selected is None or rule.code in selected)
        and rule.code not in ignored
    ]


def applicable_rules(
    path: Path,
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
) -> list[Rule]:
    """Per-file rules active for ``path`` after --select / --ignore
    filtering (project rules run once per invocation, not per file)."""
    selected = set(select) if select else None
    ignored = set(ignore) if ignore else set()
    return [
        rule
        for rule in file_rules()
        if rule.applies_to(path)
        and (selected is None or rule.code in selected)
        and rule.code not in ignored
    ]
