"""``thread-body-safety`` — the write-conflict invariant of the threads
backend (paper Sections II-D / III-A; DESIGN.md §8).

Functions handed to :meth:`SimulatedPool.map` run concurrently under the
``threads`` backend, where NumPy releases the GIL.  The race-freedom
contract (PR "race-free threads backend") is that a thread body only

* *computes* on thread-private data,
* charges traffic to its **own shard** (``shards.shard(th)``), never a
  shared :class:`~repro.parallel.counters.TrafficCounter`,
* writes output only through thread-private views
  (``ReplicatedArray.view(th, ...)`` slices or local temporaries),
* and leaves the merge/reset lifecycle to the coordinator.

This rule flags, inside any detected thread body:

1. calls to ``merge`` / ``merge_into`` / ``reset`` (coordinator-only
   lifecycle — a thread-side reset silently corrupts other threads);
2. traffic charges (``read``/``write``/``flop``/``read_factor_rows``/
   ``write_factor_rows``/``scatter_update``) whose receiver is not a
   per-thread shard — a shared counter's ``+=`` is a read-modify-write
   that loses increments under concurrency;
3. stores to non-local state: attribute writes rooted at closure or
   ``self`` names, subscript writes into closure arrays (unless the
   target comes from a ``.view(...)`` call), and ``global``/``nonlocal``
   declarations.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from ..astutils import (
    expr_text,
    find_thread_bodies,
    local_names,
    receiver_of,
)
from ..framework import FileContext, Finding, Rule, register

#: Methods that charge a counter (TrafficCounter's public charge API).
CHARGE_METHODS = frozenset(
    {"read", "write", "flop", "read_factor_rows", "write_factor_rows", "scatter_update"}
)
#: Charge methods whose names are unambiguous (no stdlib collision like
#: ``fh.read()``): any non-shard receiver is flagged.
UNAMBIGUOUS_CHARGE = frozenset(
    {"flop", "read_factor_rows", "write_factor_rows", "scatter_update"}
)
#: Coordinator-only lifecycle methods (ReplicatedArray / sharded counter).
LIFECYCLE_METHODS = frozenset({"merge", "merge_into", "reset"})


def _is_shard_call(node: ast.AST) -> bool:
    """``<expr>.shard(...)`` — the blessed per-thread counter accessor."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "shard"
    )


def _is_view_call(node: ast.AST) -> bool:
    """``<expr>.view(...)`` — the blessed thread-private output window."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "view"
    )


def _subscript_root(node: ast.AST) -> ast.AST:
    """Peel subscripts/attributes: the base object of ``a.b[i][j]``."""
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    return node


@register
class ThreadBodySafetyRule(Rule):
    id = "thread-body-safety"
    description = (
        "thread bodies must not charge shared counters, call merge()/"
        "reset(), or write closure/instance state"
    )
    paper_ref = "Sections II-D, III-A (conflict-free per-thread writes)"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for body_fn, _spawn in find_thread_bodies(ctx.tree).items():
            locals_ = local_names(body_fn)
            shard_locals: Set[str] = set()
            counter_locals: Set[str] = set()
            stmts = body_fn.body if isinstance(body_fn.body, list) else [body_fn.body]
            # Pass 1: light taint — locals bound to shards vs counters.
            for stmt in stmts:
                for node in ast.walk(stmt):
                    if isinstance(node, ast.Assign) and len(node.targets) == 1:
                        target = node.targets[0]
                        if isinstance(target, ast.Name):
                            if _is_shard_call(node.value):
                                shard_locals.add(target.id)
                            elif "counter" in expr_text(node.value).lower():
                                counter_locals.add(target.id)
            # Pass 2: the actual checks.
            for stmt in stmts:
                for node in ast.walk(stmt):
                    yield from self._check_node(
                        ctx, node, locals_, shard_locals, counter_locals
                    )

    # ------------------------------------------------------------------
    def _check_node(
        self,
        ctx: FileContext,
        node: ast.AST,
        locals_: Set[str],
        shard_locals: Set[str],
        counter_locals: Set[str],
    ) -> Iterator[Finding]:
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            kind = "global" if isinstance(node, ast.Global) else "nonlocal"
            yield ctx.finding(
                self.id,
                node,
                f"thread body declares `{kind} {', '.join(node.names)}`: "
                "thread bodies must not rebind shared state",
            )
            return
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            method = node.func.attr
            if method in LIFECYCLE_METHODS:
                recv = expr_text(node.func.value)
                yield ctx.finding(
                    self.id,
                    node,
                    f"`{recv}.{method}()` inside a thread body: merge/reset "
                    "are coordinator-only lifecycle operations",
                )
                return
            if method in CHARGE_METHODS:
                yield from self._check_charge(
                    ctx, node, method, shard_locals, counter_locals
                )
                return
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from self._check_store(ctx, node, target, locals_)

    def _check_charge(
        self,
        ctx: FileContext,
        node: ast.Call,
        method: str,
        shard_locals: Set[str],
        counter_locals: Set[str],
    ) -> Iterator[Finding]:
        recv = receiver_of(node)
        if recv is None:
            return
        if _is_shard_call(recv):
            return  # `shards.shard(th).read(...)` — thread-private
        if isinstance(recv, ast.Name) and recv.id in shard_locals:
            return  # `shard = shards.shard(th); shard.read(...)`
        recv_text = expr_text(recv)
        counter_ish = (
            "counter" in recv_text.lower()
            or (isinstance(recv, ast.Name) and recv.id in counter_locals)
        )
        if method in UNAMBIGUOUS_CHARGE or counter_ish:
            yield ctx.finding(
                self.id,
                node,
                f"`{recv_text}.{method}(...)` inside a thread body charges a "
                "shared counter; charge this thread's shard "
                "(`shards.shard(th)`) instead — shared `+=` loses updates "
                "once NumPy releases the GIL",
            )

    def _check_store(
        self, ctx: FileContext, stmt: ast.AST, target: ast.AST, locals_: Set[str]
    ) -> Iterator[Finding]:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                yield from self._check_store(ctx, stmt, elt, locals_)
            return
        if isinstance(target, ast.Attribute):
            root = _subscript_root(target)
            if isinstance(root, ast.Name) and root.id in locals_:
                return
            yield ctx.finding(
                self.id,
                stmt,
                f"thread body writes shared attribute `{expr_text(target)}`; "
                "return the value and let the coordinator store it",
            )
        elif isinstance(target, ast.Subscript):
            root = _subscript_root(target)
            if _is_view_call(root):
                return  # rep.view(th, lo, hi)[...] = ... — thread-private
            if isinstance(root, ast.Name) and root.id in locals_:
                return
            yield ctx.finding(
                self.id,
                stmt,
                f"thread body writes into shared buffer "
                f"`{expr_text(target)}`; use a `ReplicatedArray.view(th, "
                "...)` slice or return the contribution for the "
                "coordinator to merge",
            )
