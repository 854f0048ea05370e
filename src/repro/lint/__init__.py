"""Static analysis for the repository's own kernel invariants.

The processes backend's task discipline, the traffic channel's category
vocabulary and coverage, the kernels' level-vectorization, and the
float64 buffer discipline are all *conventions* — exactly the class of
rule that rots silently as the codebase grows.  This package checks them
mechanically:

* :mod:`repro.lint.framework` — rule registry, per-file AST context,
  ``# lint: disable=<rule>`` suppressions, text/JSON reporters,
  exit codes;
* :mod:`repro.lint.rules` — the per-file rules (``process-task-safety``,
  ``counter-category``, ``hot-path``, ``dtype-discipline``);
* :mod:`repro.lint.flow` — the interprocedural
  ``flow.traffic-conformance`` analysis over the project call graph,
  run under ``python -m repro.lint --flow``;
* :mod:`repro.lint.cli` — ``python -m repro.lint``.

See DESIGN.md §9 for the invariant ↔ paper-section mapping and
CONTRIBUTING.md for suppression etiquette.
"""

from .framework import (
    EXIT_CLEAN,
    EXIT_ERROR,
    EXIT_FINDINGS,
    FileContext,
    Finding,
    LintError,
    LintReport,
    ProjectContext,
    Rule,
    all_rules,
    format_json,
    format_text,
    get_rule,
    register,
    run_lint,
)
from .cli import main

__all__ = [
    "EXIT_CLEAN",
    "EXIT_ERROR",
    "EXIT_FINDINGS",
    "FileContext",
    "Finding",
    "LintError",
    "LintReport",
    "ProjectContext",
    "Rule",
    "all_rules",
    "format_json",
    "format_text",
    "get_rule",
    "main",
    "register",
    "run_lint",
]
