"""Command-line front end: ``python -m repro.lint``.

Usage::

    python -m repro.lint src/                 # every rule, text report
    python -m repro.lint --format json src/   # machine-readable
    python -m repro.lint --select hot-path,dtype-discipline src/repro/ops
    python -m repro.lint --list-rules

Exit codes: 0 clean, 1 findings, 2 unparseable input or bad usage.
"""

from __future__ import annotations

import argparse
import sys
from typing import IO, List, Optional

from .framework import EXIT_CLEAN, EXIT_ERROR, all_rules, format_json, format_text, run_lint

__all__ = ["main"]


def _print_rules(out: IO[str]) -> int:
    for rule in all_rules():
        print(rule.id, file=out)
        print(f"    {rule.description}", file=out)
        if rule.paper_ref:
            print(f"    derives from: {rule.paper_ref}", file=out)
    return EXIT_CLEAN


def _split(raw: Optional[str]) -> Optional[List[str]]:
    if not raw:
        return None
    return [r.strip() for r in raw.split(",") if r.strip()]


def main(argv: Optional[List[str]] = None, out: Optional[IO[str]] = None) -> int:
    """Entry point of ``python -m repro.lint``; returns the exit code."""
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description=(
            "AST analyzer for the repo's kernel invariants: process-task "
            "safety, traffic categories, hot-path performance, dtype "
            "discipline"
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="report format (default text)",
    )
    parser.add_argument(
        "--select", default=None, metavar="RULE[,RULE...]",
        help="run only these rules (default: all registered rules)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the registered rules and exit",
    )
    args = parser.parse_args(argv)
    out = out if out is not None else sys.stdout
    if args.list_rules:
        return _print_rules(out)
    try:
        report = run_lint(args.paths, select=_split(args.select))
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=out)
        return EXIT_ERROR
    formatter = format_json if args.format == "json" else format_text
    print(formatter(report), file=out)
    return report.exit_code
