"""Statement-level control-flow graphs with dominator facts.

The flow analyses reason about *paths* — "is this array write always
preceded (or always followed) by a traffic charge?" — which a per-file
AST walk cannot answer.  This module builds, per function, a CFG whose
nodes are individual statements (kernel functions are small, so statement
granularity keeps the dominator machinery trivial while giving findings
exact anchors):

* :func:`build_cfg` — one :class:`CFG` per function body, with virtual
  ``ENTRY``/``EXIT`` nodes and edges for ``if``/``for``/``while``/
  ``try``/``with``/``return``/``raise``/``break``/``continue``;
* :meth:`CFG.dominators` / :meth:`CFG.postdominators` — standard
  iterative set-intersection dataflow (functions here are tens of
  statements, so the O(n²) worklist is more than fast enough);
* :meth:`CFG.covered_by` — the coverage predicate the traffic-conformance
  analysis uses: node ``n`` is covered by node set ``C`` when some ``c``
  in ``C`` dominates ``n`` *or* postdominates it (charge-before or
  charge-after along every path through ``n``).

Loops contribute back edges, so a charge inside a loop body neither
dominates nor postdominates statements after the loop unless the loop is
the only way there — exactly the conservative answer we want.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterable, List, Optional, Set

__all__ = ["CFG", "build_cfg", "FunctionDefNode"]

FunctionDefNode = ast.AST  # FunctionDef | AsyncFunctionDef

#: Virtual node ids.
ENTRY = -1
EXIT = -2


class CFG:
    """A function's statement-level control-flow graph.

    ``nodes`` maps node id -> the AST statement it represents (virtual
    ENTRY/EXIT excluded); ``succ``/``pred`` are adjacency maps over all
    ids including the virtual ones.
    """

    def __init__(self) -> None:
        self.nodes: Dict[int, ast.stmt] = {}
        self.succ: Dict[int, Set[int]] = {ENTRY: set(), EXIT: set()}
        self.pred: Dict[int, Set[int]] = {ENTRY: set(), EXIT: set()}
        self._dom: Optional[Dict[int, FrozenSet[int]]] = None
        self._postdom: Optional[Dict[int, FrozenSet[int]]] = None
        self._node_of_stmt: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def add_node(self, stmt: ast.stmt) -> int:
        nid = len(self.nodes)
        self.nodes[nid] = stmt
        self.succ.setdefault(nid, set())
        self.pred.setdefault(nid, set())
        self._node_of_stmt[id(stmt)] = nid
        return nid

    def add_edge(self, a: int, b: int) -> None:
        self.succ.setdefault(a, set()).add(b)
        self.pred.setdefault(b, set()).add(a)

    def node_of(self, stmt: ast.stmt) -> Optional[int]:
        """The node id of a statement object in this CFG (or ``None``)."""
        return self._node_of_stmt.get(id(stmt))

    # ------------------------------------------------------------------
    def _solve(self, forward: bool) -> Dict[int, FrozenSet[int]]:
        """Iterative dominator (forward) / postdominator (backward) sets."""
        root = ENTRY if forward else EXIT
        preds = self.pred if forward else self.succ
        ids = [root] + [n for n in self.succ if n != root]
        universe = frozenset(ids)
        dom: Dict[int, FrozenSet[int]] = {n: universe for n in ids}
        dom[root] = frozenset({root})
        changed = True
        while changed:
            changed = False
            for n in ids:
                if n == root:
                    continue
                ps = [dom[p] for p in preds.get(n, ()) if p in dom]
                new = frozenset.intersection(*ps) | {n} if ps else frozenset({n})
                if new != dom[n]:
                    dom[n] = new
                    changed = True
        return dom

    def dominators(self) -> Dict[int, FrozenSet[int]]:
        if self._dom is None:
            self._dom = self._solve(forward=True)
        return self._dom

    def postdominators(self) -> Dict[int, FrozenSet[int]]:
        if self._postdom is None:
            self._postdom = self._solve(forward=False)
        return self._postdom

    def covered_by(self, nid: int, cover: Iterable[int]) -> bool:
        """True when some node in ``cover`` dominates or postdominates
        ``nid`` (or is ``nid`` itself)."""
        cover = set(cover)
        if not cover:
            return False
        if nid in cover:
            return True
        dom = self.dominators().get(nid, frozenset())
        postdom = self.postdominators().get(nid, frozenset())
        return bool(cover & (set(dom) | set(postdom)))


class _Builder:
    """Recursive-descent CFG construction over a statement list."""

    def __init__(self) -> None:
        self.cfg = CFG()
        # (break targets, continue targets) stacks for loop statements.
        self._breaks: List[List[int]] = []
        self._continues: List[List[int]] = []

    # ------------------------------------------------------------------
    def build(self, body: List[ast.stmt]) -> CFG:
        exits = self._body([ENTRY], body)
        for n in exits:
            self.cfg.add_edge(n, EXIT)
        return self.cfg

    def _link(self, froms: List[int], to: int) -> None:
        for f in froms:
            self.cfg.add_edge(f, to)

    def _body(self, entry: List[int], stmts: List[ast.stmt]) -> List[int]:
        """Wire ``stmts`` sequentially after ``entry``; returns the open
        (fall-through) exits."""
        current = entry
        for stmt in stmts:
            if not current:
                break  # unreachable code after return/raise/break
            current = self._stmt(current, stmt)
        return current

    # ------------------------------------------------------------------
    def _stmt(self, entry: List[int], stmt: ast.stmt) -> List[int]:
        nid = self.cfg.add_node(stmt)
        self._link(entry, nid)

        if isinstance(stmt, (ast.Return, ast.Raise)):
            self.cfg.add_edge(nid, EXIT)
            return []
        if isinstance(stmt, ast.Break):
            if self._breaks:
                self._breaks[-1].append(nid)
            else:  # malformed code; treat as exit
                self.cfg.add_edge(nid, EXIT)
            return []
        if isinstance(stmt, ast.Continue):
            if self._continues:
                self._continues[-1].append(nid)
            else:
                self.cfg.add_edge(nid, EXIT)
            return []
        if isinstance(stmt, ast.If):
            then_exits = self._body([nid], stmt.body)
            else_exits = self._body([nid], stmt.orelse) if stmt.orelse else [nid]
            return then_exits + else_exits
        if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            self._breaks.append([])
            self._continues.append([])
            body_exits = self._body([nid], stmt.body)
            breaks = self._breaks.pop()
            continues = self._continues.pop()
            # Back edges: end of body (and continue) re-test the loop head.
            self._link(body_exits + continues, nid)
            # Normal exit: loop condition false; plus else-clause path.
            after = [nid]
            if stmt.orelse:
                after = self._body([nid], stmt.orelse)
            return after + breaks
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._body([nid], stmt.body)
        if isinstance(stmt, ast.Try):
            body_exits = self._body([nid], stmt.body)
            handler_exits: List[int] = []
            for handler in stmt.handlers:
                # Any statement in the try body may jump to a handler;
                # approximating the jump source as the try head keeps the
                # dominator story conservative (nothing inside the try
                # dominates the handler).
                handler_exits += self._body([nid], handler.body)
            else_exits = (
                self._body(body_exits, stmt.orelse) if stmt.orelse else body_exits
            )
            merged = else_exits + handler_exits
            if stmt.finalbody:
                return self._body(merged if merged else [nid], stmt.finalbody)
            return merged if merged else []
        # Plain statement (Expr, Assign, AugAssign, Assert, nested def, ...)
        return [nid]


def build_cfg(fn: FunctionDefNode) -> CFG:
    """CFG of ``fn``'s body (nested function bodies are *not* inlined —
    they get their own CFGs; a nested ``def`` is one opaque statement
    here)."""
    body = fn.body if isinstance(fn.body, list) else [ast.Expr(fn.body)]
    return _Builder().build(body)
