"""Per-function dataflow facts: charge sites, access sites, lifecycle events.

One :class:`FunctionFacts` per analyzed function collects everything the
flow rules need, anchored to CFG statements:

* **charge sites** — calls to the :class:`~repro.parallel.counters.
  TrafficCounter` charge API on counter-ish receivers, with the traffic
  category resolved from the literal argument or the method default;
* **access sites** — ndarray reads/writes that the traffic model must
  account for: subscript *stores* with computed (non-string) indices, and
  subscript *loads* whose index is itself a subscript or call — the
  gather idiom (``vals[ptr[lo]:ptr[hi]]``, ``factors[m][idx]``) that
  moves nnz-scale data.  Constant/slice bookkeeping like ``shape[0]`` is
  deliberately out of scope;
* **lifecycle events** — ``view``/``merge``/``merge_into``/``reset``
  calls on :class:`~repro.parallel.executor.ReplicatedArray`-typed
  locals and ``share``/``zeros``/``array``/``attach``/``close`` on
  :class:`~repro.parallel.shm.SharedArena`-typed locals, feeding the
  typestate machines in :mod:`.typestate`.

Typing is nominal-by-construction: a local is ReplicatedArray/SharedArena
typed when it is assigned from the constructor (resolved through the
module's imports) inside the same function; ``self.x`` attributes
assigned that way in ``__init__`` are tracked class-wide.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from ..astutils import dotted_name, expr_text, receiver_of
from ..rules.counter_discipline import CATEGORY_ARG_INDEX, _counter_ish
from ..rules.thread_safety import CHARGE_METHODS, UNAMBIGUOUS_CHARGE
from .callgraph import CallGraph, FunctionInfo
from .cfg import CFG, build_cfg

__all__ = ["ChargeSite", "AccessSite", "LifecycleEvent", "FunctionFacts"]

#: Default category per charge method (TrafficCounter signature defaults).
DEFAULT_CATEGORY = {
    "read": "misc",
    "write": "misc",
    "flop": "compute",
    "read_factor_rows": "factor",
    "write_factor_rows": "factor",
    "scatter_update": "output",
}

#: Lifecycle vocabularies for the two typestate machines.
REPLICATED_EVENTS = frozenset({"view", "merge", "merge_into", "reset"})
ARENA_EVENTS = frozenset({"share", "zeros", "array", "attach", "close"})


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


@dataclass(frozen=True)
class LifecycleEvent:
    """One typestate transition attempt on a tracked object."""

    obj: str  #: the tracked variable ("rep", "self.arena", ...)
    kind: str  #: "replicated" | "arena"
    event: str  #: method name ("view", "close", ...)
    node: ast.Call
    stmt: ast.stmt
    in_with: bool  #: the event sits inside a ``with`` block
    in_finally: bool  #: the event sits inside a ``finally`` suite


class FunctionFacts:
    """All flow facts for one function, computed on demand."""

    def __init__(self, info: FunctionInfo, graph: CallGraph) -> None:
        self.info = info
        self.graph = graph
        self.cfg: CFG = build_cfg(info.node)
        self.charges: List[ChargeSite] = []
        self.accesses: List[AccessSite] = []
        self.lifecycle: List[LifecycleEvent] = []
        #: locals (or self attributes) known to hold tracked objects.
        self.tracked: Dict[str, str] = dict(self._seed_tracked())
        #: subset of ``tracked`` constructed inside *this* function.
        self.constructed: Dict[str, str] = {}
        #: names bound to ``<rep>.view(...)`` results, with binding stmt.
        self.view_bindings: Dict[str, ast.stmt] = {}
        self._collect()

    # ------------------------------------------------------------------
    def _seed_tracked(self) -> Dict[str, str]:
        """Tracked names visible on entry: parameters named like the
        tracked types plus ``self.<attr>`` constructor assignments made in
        the enclosing class's ``__init__``."""
        seeded: Dict[str, str] = {}
        info = self.info
        if info.cls is None:
            return seeded
        init_qname = info.qname.rsplit(".", 1)[0] + ".__init__"
        init = self.graph.functions.get(init_qname)
        if init is None:
            return seeded
        for stmt in ast.walk(init.node):
            if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1):
                continue
            target = stmt.targets[0]
            kind = _constructed_kind(stmt.value)
            if (
                kind is not None
                and isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                seeded[f"self.{target.attr}"] = kind
        return seeded

    def _collect(self) -> None:
        body = self.info.node.body if isinstance(self.info.node.body, list) else []
        # Pass 1: local constructor bindings (order-independent; these
        # functions construct before use and the typestate walk is
        # path-sensitive anyway).
        for stmt in body:
            for node in _walk_own(stmt):
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target = node.targets[0]
                    kind = _constructed_kind(node.value)
                    name = dotted_name(target)
                    if kind is not None and name is not None:
                        self.tracked[name] = kind
                        self.constructed[name] = kind
                    if name is not None and _is_view_call(node.value):
                        self.view_bindings[name] = stmt
        # Pass 2: sites and events, statement by statement.
        for stmt in body:
            self._collect_stmt(stmt, in_with=False, in_finally=False)

    # ------------------------------------------------------------------
    def _collect_stmt(self, stmt: ast.stmt, in_with: bool, in_finally: bool) -> None:
        self._scan_exprs(stmt, in_with, in_finally)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for child in stmt.body:
                self._collect_stmt(child, True, in_finally)
            return
        if isinstance(stmt, ast.Try):
            for child in stmt.body:
                self._collect_stmt(child, in_with, in_finally)
            for handler in stmt.handlers:
                for child in handler.body:
                    self._collect_stmt(child, in_with, in_finally)
            for child in stmt.orelse:
                self._collect_stmt(child, in_with, in_finally)
            for child in stmt.finalbody:
                self._collect_stmt(child, in_with, True)
            return
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # nested defs are separate functions in the graph
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                self._collect_stmt(child, in_with, in_finally)

    def _scan_exprs(self, stmt: ast.stmt, in_with: bool, in_finally: bool) -> None:
        """Record charge/access/lifecycle facts anchored at ``stmt``.

        Scans the statement's own expressions only — nested statements are
        visited with their own anchors, nested function bodies not at all
        (they are separate functions in the graph).
        """
        anchor = _anchor_stmt(stmt)
        for node in _own_exprs(stmt):
            if isinstance(node, ast.Call):
                self._scan_call(node, anchor, in_with, in_finally)
            elif isinstance(node, ast.Subscript):
                self._scan_subscript(node, anchor)

    def _scan_call(
        self, call: ast.Call, stmt: ast.stmt, in_with: bool, in_finally: bool
    ) -> None:
        if not isinstance(call.func, ast.Attribute):
            return
        method = call.func.attr
        recv = receiver_of(call)
        if recv is None:
            return
        recv_name = dotted_name(recv)
        if method in CHARGE_METHODS and (
            method in UNAMBIGUOUS_CHARGE or _counter_ish(recv) or _is_shard_call(recv)
        ):
            self.charges.append(
                ChargeSite(call, stmt, method, _literal_category(call, method))
            )
            return
        tracked_kind = self.tracked.get(recv_name) if recv_name else None
        if tracked_kind == "replicated" and method in REPLICATED_EVENTS:
            self.lifecycle.append(
                LifecycleEvent(recv_name, "replicated", method, call, stmt,
                               in_with, in_finally)
            )
        elif tracked_kind == "arena" and method in ARENA_EVENTS:
            self.lifecycle.append(
                LifecycleEvent(recv_name, "arena", method, call, stmt,
                               in_with, in_finally)
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
def _walk_own(stmt: ast.AST):
    """Walk without descending into nested function/lambda bodies."""
    stack: List[ast.AST] = [stmt]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            stack.append(child)


def _own_exprs(stmt: ast.stmt):
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


def _anchor_stmt(stmt: ast.stmt) -> ast.stmt:
    return stmt


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


def _is_shard_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "shard"
    )


def _is_view_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "view"
    )


def _constructed_kind(value: ast.AST) -> Optional[str]:
    """``ReplicatedArray(...)`` / ``SharedArena(...)`` constructor calls
    (direct name or attribute tail), else ``None``."""
    if not isinstance(value, ast.Call):
        return None
    name = dotted_name(value.func)
    if name is None:
        return None
    tail = name.rsplit(".", 1)[-1]
    if tail == "ReplicatedArray":
        return "replicated"
    if tail == "SharedArena":
        return "arena"
    return None
