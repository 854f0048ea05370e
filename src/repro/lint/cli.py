"""Command-line front end: ``python -m repro.lint`` and ``repro lint``.

Usage::

    python -m repro.lint src/                 # per-file rules, text report
    python -m repro.lint --flow src/          # + interprocedural analyses
    python -m repro.lint --format json src/   # machine-readable
    python -m repro.lint --format sarif --flow src/ > lint.sarif
    python -m repro.lint --select hot-path,dtype-discipline src/repro/ops
    python -m repro.lint --flow --baseline my-debt.json src/
    python -m repro.lint --list-rules

Exit codes: 0 clean (baselined findings count as clean), 1 findings,
2 unparseable input or bad usage.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import IO, List, Optional

from .baseline import apply_baseline, load_baseline, write_baseline
from .framework import (
    EXIT_CLEAN,
    EXIT_ERROR,
    all_rules,
    format_json,
    format_text,
    run_lint,
)
from .sarif import format_sarif

__all__ = ["add_arguments", "execute", "main"]


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the lint options on ``parser`` (shared with ``repro lint``)."""
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format", choices=["text", "json", "sarif"], default="text",
        help="report format (default text)",
    )
    parser.add_argument(
        "--select", default=None, metavar="RULE[,RULE...]",
        help="run only these rules (default: all registered rules)",
    )
    parser.add_argument(
        "--ignore", default=None, metavar="RULE[,RULE...]",
        help="drop these rules from the run (applies after --select)",
    )
    parser.add_argument(
        "--flow", action="store_true",
        help="also run the interprocedural flow analyses (repro.lint.flow)",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="baseline file of known findings; covered findings are "
             "reported as baselined and do not fail the run",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite --baseline with the current findings and exit clean",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the registered rules and exit",
    )


def _print_rules(out: IO[str]) -> int:
    for rule in all_rules():
        scope = " (project-scope, runs under --flow)" if rule.scope == "project" else ""
        print(f"{rule.id}{scope}", file=out)
        print(f"    {rule.description}", file=out)
        if rule.paper_ref:
            print(f"    derives from: {rule.paper_ref}", file=out)
    return EXIT_CLEAN


def _split(raw: Optional[str]) -> Optional[List[str]]:
    if not raw:
        return None
    return [r.strip() for r in raw.split(",") if r.strip()]


def execute(args: argparse.Namespace, out: Optional[IO[str]] = None) -> int:
    """Run the lint described by parsed ``args``; returns the exit code."""
    out = out if out is not None else sys.stdout
    if args.list_rules:
        return _print_rules(out)
    if args.update_baseline and not args.baseline:
        print("error: --update-baseline requires --baseline FILE", file=out)
        return EXIT_ERROR
    try:
        report = run_lint(
            args.paths or ["src"],
            select=_split(args.select),
            ignore=_split(args.ignore),
            flow=args.flow,
        )
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=out)
        return EXIT_ERROR
    if args.baseline:
        baseline_path = Path(args.baseline)
        if args.update_baseline:
            write_baseline(report, baseline_path)
            print(
                f"baseline updated: {len(report.findings)} finding(s) "
                f"recorded in {baseline_path}",
                file=out,
            )
            return EXIT_CLEAN if not report.errors else EXIT_ERROR
        apply_baseline(report, load_baseline(baseline_path))
    formatter = {
        "json": format_json,
        "sarif": format_sarif,
    }.get(args.format, format_text)
    print(formatter(report), file=out)
    return report.exit_code


def main(argv: Optional[List[str]] = None, out: Optional[IO[str]] = None) -> int:
    """Standalone entry point (``python -m repro.lint``)."""
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description=(
            "AST + interprocedural-dataflow analyzer for the repo's kernel "
            "invariants: thread-body safety, traffic conformance, "
            "buffer/arena typestate, hot-path performance, dtype "
            "discipline"
        ),
    )
    add_arguments(parser)
    return execute(parser.parse_args(argv), out)
