"""The AST lint framework: rules, per-file context, suppressions, reports.

The invariants that keep the pool tasks race-free and the traffic
channel honest (DESIGN.md §9/§10) are conventions a one-line refactor can
break without any small-scale test noticing.  This framework walks the
repository's own source as ASTs and checks those invariants mechanically:

* a **rule registry** (:func:`register` / :func:`all_rules`) — each rule is
  a small class with an ``id``, a paper reference, and a ``check(ctx)``
  generator over :class:`Finding`;
* a **per-file context** (:class:`FileContext`) — parsed tree, source
  lines, and the suppression table;
* **suppressions** — append ``# lint: disable=<rule>[,<rule>...]`` to a
  line to silence specific rules there, put
  ``# lint: disable-next-line=<rule>`` on the line *above* the finding,
  or put ``# lint: disable-file=<rule>`` anywhere in a file to allowlist
  the whole file (``all`` is accepted in every form; dotted rule ids like
  ``flow.traffic-conformance`` are accepted too).  Pragmas are resolved
  from real comment tokens, so a pragma-shaped substring inside a string
  literal never suppresses anything;
* **reporters** — stable text (``path:line:col: [rule] message``) and
  JSON;
* **exit codes** — 0 clean, 1 findings, 2 unparseable input or usage error.

Per-file rules live in :mod:`repro.lint.rules`; the interprocedural
(project-scope) analysis in :mod:`repro.lint.flow`; the CLI in
:mod:`repro.lint.cli`.
"""

from __future__ import annotations

import ast
import io
import json
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Type

__all__ = [
    "EXIT_CLEAN",
    "EXIT_FINDINGS",
    "EXIT_ERROR",
    "Finding",
    "LintError",
    "FileContext",
    "Rule",
    "ProjectContext",
    "register",
    "all_rules",
    "get_rule",
    "LintReport",
    "run_lint",
    "format_text",
    "format_json",
]

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2

#: ``# lint: disable=a,b`` (same line) / ``# lint: disable-next-line=a``
#: (the following line) / ``# lint: disable-file=a`` (whole file).  Rule
#: ids may be dotted (``flow.traffic-conformance``); several pragmas may
#: share one comment.
_SUPPRESS_RE = re.compile(
    r"#\s*lint:\s*disable(?P<scope>-file|-next-line)?=(?P<rules>[A-Za-z0-9_.,\- ]+)"
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"


@dataclass(frozen=True)
class LintError:
    """A file the linter could not analyze (syntax / decode errors)."""

    path: str
    message: str

    def format(self) -> str:
        return f"{self.path}: error: {self.message}"


class FileContext:
    """Everything a rule needs about one source file.

    Parameters
    ----------
    path:
        Filesystem path of the file (used for rule scoping).
    source:
        Full file contents.
    display_path:
        The path findings report (defaults to ``path`` as given).
    """

    def __init__(self, path: Path, source: str, display_path: Optional[str] = None) -> None:
        self.path = path
        self.display_path = display_path if display_path is not None else str(path)
        self.source = source
        self.lines: List[str] = source.splitlines()
        self.tree: ast.Module = ast.parse(source, filename=str(path))
        self.line_suppressions: Dict[int, FrozenSet[str]] = {}
        self.file_suppressions: FrozenSet[str] = frozenset()
        self._scan_suppressions()

    # ------------------------------------------------------------------
    @property
    def posix_path(self) -> str:
        """Resolved path with ``/`` separators — what scoped rules match."""
        return self.path.resolve().as_posix()

    def _comment_tokens(self) -> List[tokenize.TokenInfo]:
        """The file's COMMENT tokens (pragmas in string literals are not
        comments and must not suppress anything)."""
        try:
            return [
                tok
                for tok in tokenize.generate_tokens(io.StringIO(self.source).readline)
                if tok.type == tokenize.COMMENT
            ]
        except (tokenize.TokenError, IndentationError):  # pragma: no cover
            # ast.parse accepted the file, so tokenize failures are exotic;
            # fall back to treating every line as a potential comment.
            return [
                tokenize.TokenInfo(tokenize.COMMENT, text, (i, 0), (i, len(text)), text)
                for i, text in enumerate(self.lines, start=1)
            ]

    def _scan_suppressions(self) -> None:
        file_wide: set = set()
        for tok in self._comment_tokens():
            lineno = tok.start[0]
            for m in _SUPPRESS_RE.finditer(tok.string):
                rules = frozenset(
                    r.strip() for r in m.group("rules").split(",") if r.strip()
                )
                scope = m.group("scope")
                if scope == "-file":
                    file_wide |= rules
                    continue
                # ``disable`` silences the pragma's own line;
                # ``disable-next-line`` the one after it.
                target = lineno + 1 if scope == "-next-line" else lineno
                self.line_suppressions[target] = (
                    self.line_suppressions.get(target, frozenset()) | rules
                )
        self.file_suppressions = frozenset(file_wide)

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        """True when ``rule_id`` is silenced at ``line`` (or file-wide)."""
        if {"all", rule_id} & self.file_suppressions:
            return True
        at_line = self.line_suppressions.get(line, frozenset())
        return bool({"all", rule_id} & at_line)

    def finding(self, rule_id: str, node: ast.AST, message: str) -> Finding:
        """Build a :class:`Finding` anchored at ``node``."""
        return Finding(
            rule=rule_id,
            path=self.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


class Rule:
    """Base class for lint rules.

    Subclasses set ``id`` / ``description`` / ``paper_ref`` and implement
    :meth:`check`; :meth:`applies_to` scopes path-restricted rules (the
    hot-path and dtype rules only police kernel modules).

    ``scope`` selects the analysis granularity: ``"file"`` rules see one
    :class:`FileContext` at a time through :meth:`check`; ``"project"``
    rules (the :mod:`repro.lint.flow` analyses) see every parsed file at
    once through :meth:`check_project` — they need the call graph, so a
    single file is never enough.  Project rules only run under
    ``python -m repro.lint --flow`` (or when selected explicitly).
    """

    id: str = ""
    description: str = ""
    #: The paper section the enforced invariant derives from.
    paper_ref: str = ""
    #: ``"file"`` (per-file AST rule) or ``"project"`` (interprocedural).
    scope: str = "file"

    def applies_to(self, ctx: FileContext) -> bool:
        return True

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def check_project(self, project: "ProjectContext") -> Iterator[Finding]:
        """Project-scope entry point (``scope == "project"`` rules)."""
        raise NotImplementedError


class ProjectContext:
    """Every parsed file of one lint run, plus lazily built flow state.

    The interprocedural analyses all need the same two artifacts — the
    project-wide call graph and per-function summaries — so the context
    builds them once and every project rule shares them (see
    :mod:`repro.lint.flow.analysis`).
    """

    def __init__(self, files: Sequence[FileContext]) -> None:
        self.files: List[FileContext] = list(files)
        self._analysis = None

    @property
    def analysis(self):
        """The shared :class:`repro.lint.flow.analysis.FlowAnalysis`."""
        if self._analysis is None:
            from .flow.analysis import FlowAnalysis

            self._analysis = FlowAnalysis(self)
        return self._analysis


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not rule_cls.id:
        raise ValueError(f"{rule_cls.__name__} has no rule id")
    if rule_cls.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule_cls.id!r}")
    _REGISTRY[rule_cls.id] = rule_cls
    return rule_cls


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, sorted by id."""
    _load_builtin_rules()
    return [_REGISTRY[rid]() for rid in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> Rule:
    """Instantiate one registered rule by id."""
    _load_builtin_rules()
    if rule_id not in _REGISTRY:
        raise KeyError(
            f"unknown rule {rule_id!r}; known: {', '.join(sorted(_REGISTRY))}"
        )
    return _REGISTRY[rule_id]()


def _load_builtin_rules() -> None:
    """Import the built-in rule modules (they self-register on import)."""
    from . import rules as _rules  # noqa: F401
    from . import flow as _flow  # noqa: F401


# ----------------------------------------------------------------------
# running
# ----------------------------------------------------------------------
@dataclass
class LintReport:
    """The outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    errors: List[LintError] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0

    @property
    def exit_code(self) -> int:
        if self.errors:
            return EXIT_ERROR
        return EXIT_FINDINGS if self.findings else EXIT_CLEAN


def collect_files(paths: Sequence[str]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: List[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            out.extend(
                f for f in sorted(p.rglob("*.py"))
                if not any(part.startswith(".") for part in f.parts)
            )
        elif p.is_file():
            out.append(p)
        else:
            raise FileNotFoundError(f"no such file or directory: {raw}")
    # De-duplicate while keeping order (a file may be reachable twice).
    seen: set = set()
    uniq: List[Path] = []
    for f in out:
        key = f.resolve()
        if key not in seen:
            seen.add(key)
            uniq.append(f)
    return uniq


def lint_file(
    path: Path, rules: Sequence[Rule], report: LintReport
) -> Optional[FileContext]:
    """Lint one file into ``report``; returns its context when parseable."""
    try:
        source = path.read_text(encoding="utf-8")
        ctx = FileContext(path, source, display_path=str(path))
    except (SyntaxError, UnicodeDecodeError, ValueError) as exc:
        report.errors.append(LintError(path=str(path), message=str(exc)))
        return None
    report.files_checked += 1
    for rule in rules:
        if not rule.applies_to(ctx):
            continue
        for finding in rule.check(ctx):
            if ctx.is_suppressed(finding.rule, finding.line):
                report.suppressed += 1
            else:
                report.findings.append(finding)
    return ctx


def run_lint(
    paths: Sequence[str],
    select: Optional[Iterable[str]] = None,
    *,
    flow: bool = False,
) -> LintReport:
    """Lint ``paths`` with every registered rule (or just ``select``).

    ``flow=True`` additionally runs the project-scope interprocedural
    analysis (:mod:`repro.lint.flow`); without it project rules are
    skipped even when the registry knows them, because they need every
    file of the project in one pass.  Selecting a project rule by id
    implies ``flow``.
    """
    if select is None:
        rules: List[Rule] = all_rules()
    else:
        rules = [get_rule(rid) for rid in select]
    file_rules = [r for r in rules if r.scope == "file"]
    project_rules = [r for r in rules if r.scope == "project"]
    run_project = project_rules and (flow or select is not None)

    report = LintReport()
    try:
        files = collect_files(paths)
    except FileNotFoundError as exc:
        report.errors.append(LintError(path=str(paths), message=str(exc)))
        return report
    contexts: List[FileContext] = []
    for f in files:
        ctx = lint_file(f, file_rules, report)
        if ctx is not None:
            contexts.append(ctx)
    if run_project and contexts:
        project = ProjectContext(contexts)
        by_display = {ctx.display_path: ctx for ctx in contexts}
        for rule in project_rules:
            for finding in rule.check_project(project):
                ctx = by_display.get(finding.path)
                if ctx is not None and ctx.is_suppressed(finding.rule, finding.line):
                    report.suppressed += 1
                else:
                    report.findings.append(finding)
    report.findings.sort(key=lambda fi: (fi.path, fi.line, fi.col, fi.rule))
    return report


# ----------------------------------------------------------------------
# reporters
# ----------------------------------------------------------------------
def format_text(report: LintReport) -> str:
    """Human-readable report: one line per finding plus a summary."""
    lines = [e.format() for e in report.errors]
    lines += [f.format() for f in report.findings]
    noun = "file" if report.files_checked == 1 else "files"
    summary = (
        f"checked {report.files_checked} {noun}: "
        f"{len(report.findings)} finding(s), {report.suppressed} suppressed"
    )
    if report.errors:
        summary += f", {len(report.errors)} error(s)"
    lines.append(summary)
    return "\n".join(lines)


def format_json(report: LintReport) -> str:
    """Machine-readable report (stable key order)."""
    payload = {
        "files_checked": report.files_checked,
        "suppressed": report.suppressed,
        "exit_code": report.exit_code,
        "findings": [
            {
                "rule": f.rule,
                "path": f.path,
                "line": f.line,
                "col": f.col,
                "message": f.message,
            }
            for f in report.findings
        ],
        "errors": [{"path": e.path, "message": e.message} for e in report.errors],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
