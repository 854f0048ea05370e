"""Static analysis for the repository's own kernel invariants.

The threads backend's race-freedom, the traffic channel's category
vocabulary, the kernels' level-vectorization, and the float64 buffer
discipline are all *conventions* — exactly the class of rule that rots
silently as the codebase grows.  This package checks them mechanically:

* :mod:`repro.lint.framework` — rule registry, per-file AST context,
  ``# lint: disable=<rule>`` suppressions, text/JSON reporters,
  exit codes;
* :mod:`repro.lint.rules` — the project-specific rule suite
  (``thread-body-safety``, ``counter-category``, ``hot-path``,
  ``dtype-discipline``);
* :mod:`repro.lint.flow` — interprocedural dataflow analyses over the
  project call graph (``flow.traffic-conformance``,
  ``flow.buffer-typestate``, ``flow.arena-typestate``), run under
  ``repro lint --flow``;
* :mod:`repro.lint.sarif` / :mod:`repro.lint.baseline` — SARIF 2.1.0
  output and the known-debt baseline workflow;
* :mod:`repro.lint.cli` — ``python -m repro.lint`` / ``repro lint``.

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
from .baseline import apply_baseline, baseline_key, load_baseline, write_baseline
from .sarif import format_sarif
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
    "apply_baseline",
    "baseline_key",
    "format_json",
    "format_sarif",
    "format_text",
    "get_rule",
    "load_baseline",
    "main",
    "register",
    "run_lint",
    "write_baseline",
]
