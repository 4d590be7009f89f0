"""Determinism tooling for the reproduction: static lint + runtime sanitizers.

Two halves, both enforcing the DES kernel's contract (see
``repro.sim.engine``: events at the same simulated time fire in
scheduling order; no wall-clock or global-RNG access in simulation
code) and the threaded runtimes' independence story:

* **static pass** — an AST-based checker (stdlib ``ast`` only) with a
  small rule framework.  Per-file rules carry codes ``RPR0xx``;
  whole-program rules (``RPR1xx``) parse every linted file once into a
  :class:`ProjectModel` with a call graph and check unlocked shared
  state on threaded paths, lock-order cycles, sim purity, process-pool
  pickling and tracer span leaks.  Violations can be suppressed per
  line with ``# repro: noqa[RPR001]`` or per file with
  ``# repro: noqa-file[RPR001]: reason``; a committed baseline
  (``--baseline``) accepts known findings.  Run it with
  ``python -m repro lint --rules all src/repro``.
* **runtime sanitizers** — :class:`SanitizedEnvironment`, an opt-in
  instrumented event loop (``REPRO_SANITIZE=1`` or construct it
  directly) that records a deterministic event trace and detects
  double-triggered events, same-timestamp ordering ties, processes that
  never consume their pending event, and leaked in-flight queue
  messages; and :class:`ThreadSanitizer` (``REPRO_SANITIZE=threads`` /
  ``pytest --repro-sanitize-threads``), which wraps the threaded
  runtimes' locks and shared containers to catch lock-order inversions
  and unsynchronized cross-thread writes at test time.
"""

from repro.lint.baseline import apply_baseline, load_baseline, write_baseline
from repro.lint.checker import LintResult, ParsedFile, lint_file, lint_paths
from repro.lint.docscheck import (
    DocProblem,
    DocsCheckResult,
    check_docs,
    cli_subcommands,
    lint_rule_codes,
)
from repro.lint.project import ProjectModel
from repro.lint.report import format_human, format_json
from repro.lint.rules import (
    RULE_REGISTRY,
    ProjectRule,
    Rule,
    Violation,
    all_rules,
)
from repro.lint.sanitizer import (
    SanitizedEnvironment,
    SanitizerError,
    SanitizerReport,
)
from repro.lint.threadsan import ThreadSanitizer, ThreadSanReport

__all__ = [
    "DocProblem",
    "DocsCheckResult",
    "LintResult",
    "ParsedFile",
    "ProjectModel",
    "ProjectRule",
    "RULE_REGISTRY",
    "Rule",
    "SanitizedEnvironment",
    "SanitizerError",
    "SanitizerReport",
    "ThreadSanReport",
    "ThreadSanitizer",
    "Violation",
    "all_rules",
    "apply_baseline",
    "check_docs",
    "cli_subcommands",
    "format_human",
    "format_json",
    "lint_file",
    "lint_paths",
    "lint_rule_codes",
    "load_baseline",
    "write_baseline",
]
