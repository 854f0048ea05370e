"""Baseline files: track existing findings without silencing the rule.

A suppression pragma says "this is fine"; a baseline entry says "this is
known debt we have not paid down yet".  The flow analyses originally
landed on a tree with real, documented debt, tracked in a checked-in
baseline file; that debt has since been paid down to zero, the file is
gone, and CI now demands a clean ``--flow`` run outright.  The mechanism remains for
downstream forks carrying their own debt.

Format: a JSON object mapping ``"<rule>::<path>::<message>"`` to an
integer count.  Paths are normalized to start at the ``repro`` package
(or the file's basename) so the key is stable across checkouts and
invocation directories; counts absorb repeated identical findings (two
uncounted writes to the same buffer in one function).  Line numbers are
deliberately **not** part of the key — refactors move lines constantly,
and a baseline that churns on every edit gets deleted, not maintained.

Workflow (see CONTRIBUTING.md):

* ``repro lint --flow --baseline <debt.json> src/`` — findings
  covered by the baseline are reported in the summary as *baselined* and
  do not affect the exit code; new ones fail as usual;
* ``... --update-baseline`` — rewrite the file to the current findings
  (after fixing debt, so the count only ratchets down; or when a new
  analysis lands with documented debt).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict

from .framework import Finding, LintReport

__all__ = ["baseline_key", "load_baseline", "apply_baseline", "write_baseline"]


def baseline_key(finding: Finding) -> str:
    """Stable identity of a finding across checkouts: rule, normalized
    path, message — no line numbers (see module docstring)."""
    parts = Path(finding.path).as_posix().split("/")
    if "repro" in parts:
        anchor = len(parts) - 1 - parts[::-1].index("repro")
        path = "/".join(parts[anchor:])
    else:
        path = parts[-1]
    return f"{finding.rule}::{path}::{finding.message}"


def load_baseline(path: Path) -> Dict[str, int]:
    """Read a baseline file; a missing file is an empty baseline."""
    if not path.exists():
        return {}
    data = json.loads(path.read_text(encoding="utf-8"))
    entries = data.get("entries", data) if isinstance(data, dict) else {}
    return {str(k): int(v) for k, v in entries.items()}


def apply_baseline(report: LintReport, baseline: Dict[str, int]) -> LintReport:
    """Move baseline-covered findings into ``report.baselined``.

    Counts are consumed first-come (findings are already sorted by
    location), so a file with two identical known findings and one new
    third gets exactly one live finding.
    """
    remaining = dict(baseline)
    live = []
    for finding in report.findings:
        key = baseline_key(finding)
        if remaining.get(key, 0) > 0:
            remaining[key] -= 1
            report.baselined += 1
        else:
            live.append(finding)
    report.findings = live
    return report


def write_baseline(report: LintReport, path: Path) -> None:
    """Serialize the report's findings as a fresh baseline file."""
    counts: Dict[str, int] = {}
    for finding in report.findings:
        key = baseline_key(finding)
        counts[key] = counts.get(key, 0) + 1
    doc = {
        "_comment": (
            "Known lint debt, keyed rule::path::message -> count. "
            "Regenerate with `repro lint --flow --update-baseline "
            "--baseline <this file> src/`; see CONTRIBUTING.md."
        ),
        "entries": {k: counts[k] for k in sorted(counts)},
    }
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
