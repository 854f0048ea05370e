"""Per-function dataflow facts: charge sites and access sites.

One :class:`FunctionFacts` per analyzed function collects everything the
traffic-conformance rule needs, anchored to CFG statements:

* **charge sites** — calls to the :class:`~repro.parallel.counters.
  TrafficCounter` charge API on counter-ish receivers, with the traffic
  category resolved from the literal argument or the method default;
* **access sites** — ndarray reads/writes that the traffic model must
  account for: subscript *stores* with computed (non-string) indices, and
  subscript *loads* whose index is itself a subscript or call — the
  gather idiom (``vals[ptr[lo]:ptr[hi]]``, ``factors[m][idx]``) that
  moves nnz-scale data.  Constant/slice bookkeeping like ``shape[0]`` is
  deliberately out of scope.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator, List, Optional, Set

from ..astutils import expr_text, receiver_of
from ..rules.counter_discipline import (
    CATEGORY_ARG_INDEX,
    CHARGE_METHODS,
    UNAMBIGUOUS_CHARGE,
    _counter_ish,
)
from .callgraph import FunctionInfo
from .cfg import CFG, build_cfg

__all__ = ["ChargeSite", "AccessSite", "FunctionFacts"]

#: Default category per charge method (TrafficCounter signature defaults).
DEFAULT_CATEGORY = {
    "read": "misc",
    "write": "misc",
    "flop": "compute",
    "read_factor_rows": "factor",
    "write_factor_rows": "factor",
    "scatter_update": "output",
}


@dataclass(frozen=True)
class ChargeSite:
    """A direct TrafficCounter charge, anchored at its statement."""

    call: ast.Call
    stmt: ast.stmt
    method: str
    category: Optional[str]  #: literal/default category; None if dynamic


@dataclass(frozen=True)
class AccessSite:
    """An ndarray access the traffic model must cover."""

    node: ast.AST
    stmt: ast.stmt
    kind: str  #: "write" | "read"
    target: str  #: source text of the accessed expression


class FunctionFacts:
    """All flow facts for one function, computed on demand."""

    def __init__(self, info: FunctionInfo) -> None:
        self.info = info
        self.cfg: CFG = build_cfg(info.node)
        self.charges: List[ChargeSite] = []
        self.accesses: List[AccessSite] = []
        body = info.node.body if isinstance(info.node.body, list) else []
        for stmt in body:
            self._collect_stmt(stmt)

    # ------------------------------------------------------------------
    def _collect_stmt(self, stmt: ast.stmt) -> None:
        """Record the sites of ``stmt``'s own expressions, anchored at
        ``stmt``, then recurse into its child statements (each its own
        anchor).  Nested function bodies are separate functions in the
        graph and are not entered."""
        for node in _own_exprs(stmt):
            if isinstance(node, ast.Call):
                self._scan_call(node, stmt)
            elif isinstance(node, ast.Subscript):
                self._scan_subscript(node, stmt)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.ExceptHandler):
                for handler_stmt in child.body:
                    self._collect_stmt(handler_stmt)
            elif isinstance(child, ast.stmt):
                self._collect_stmt(child)

    def _scan_call(self, call: ast.Call, stmt: ast.stmt) -> None:
        if not isinstance(call.func, ast.Attribute):
            return
        method = call.func.attr
        recv = receiver_of(call)
        if recv is None or method not in CHARGE_METHODS:
            return
        if method in UNAMBIGUOUS_CHARGE or _counter_ish(recv):
            self.charges.append(
                ChargeSite(call, stmt, method, _literal_category(call, method))
            )

    def _scan_subscript(self, sub: ast.Subscript, stmt: ast.stmt) -> None:
        idx = sub.slice
        if isinstance(idx, ast.Constant):
            return  # tuple unpacking, shape[0], flags["x"] — bookkeeping
        if isinstance(sub.ctx, ast.Store):
            self.accesses.append(
                AccessSite(sub, stmt, "write", expr_text(sub.value))
            )
        elif isinstance(sub.ctx, ast.Load) and isinstance(idx, (ast.Subscript, ast.Call)):
            self.accesses.append(
                AccessSite(sub, stmt, "read", expr_text(sub.value))
            )

    # ------------------------------------------------------------------
    @property
    def charge_nodes(self) -> Set[int]:
        """CFG node ids containing a direct charge."""
        out: Set[int] = set()
        for site in self.charges:
            nid = self.cfg.node_of(site.stmt)
            if nid is not None:
                out.add(nid)
        return out

    def direct_categories(self) -> Set[str]:
        """Categories this function charges directly (dynamic ones map to
        the method default — the runtime would use it if the argument were
        omitted, and the counter-category rule flags non-literals anyway)."""
        out: Set[str] = set()
        for site in self.charges:
            out.add(site.category or DEFAULT_CATEGORY[site.method])
            if site.method == "scatter_update":
                # scatter_update always charges its conflict-arithmetic
                # flop leg under "scatter" besides the named category.
                out.add("scatter")
        return out


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _own_exprs(stmt: ast.stmt) -> Iterator[ast.AST]:
    """Expressions belonging to ``stmt`` itself — child statements (which
    get their own anchors), nested function bodies, and type annotations
    (``x: Optional[List[T]]`` is not an array access) are skipped."""
    if isinstance(stmt, ast.AnnAssign):
        children: List[ast.AST] = [stmt.target]
        if stmt.value is not None:
            children.append(stmt.value)
    else:
        children = [
            child for child in ast.iter_child_nodes(stmt)
            if not isinstance(child, ast.stmt)
        ]
    stack: List[ast.AST] = children
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield node
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, ast.stmt):
                stack.append(child)


def _literal_category(call: ast.Call, method: str) -> Optional[str]:
    for kw in call.keywords:
        if kw.arg == "category":
            node = kw.value
            break
    else:
        idx = CATEGORY_ARG_INDEX[method]
        node = call.args[idx] if len(call.args) > idx else None
    if node is None:
        return DEFAULT_CATEGORY[method]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None
