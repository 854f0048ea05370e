"""Small AST helpers shared by the lint rules.

The rules reason about three recurring shapes:

* **dotted receivers** — ``self.pool.run_tasks`` / ``self.counter.read``
  chains (:func:`dotted_name`, :func:`receiver_of`);
* **local bindings** — which names a task body owns, so stores to
  module or coordinator state can be told apart from task-private
  temporaries (:func:`local_names`);
* **loop depth** — how deeply a node sits inside ``for``/``while`` loops
  (:func:`walk_with_loop_depth`).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Union

__all__ = [
    "dotted_name",
    "receiver_of",
    "expr_text",
    "local_names",
    "walk_with_loop_depth",
    "FunctionNode",
]

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for pure Name/Attribute chains, else ``None``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def expr_text(node: ast.AST) -> str:
    """Best-effort source text of an expression (for heuristic matching)."""
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse failures are exotic
        return ""


def receiver_of(call: ast.Call) -> Optional[ast.AST]:
    """The object a method call is invoked on (``x`` of ``x.m(...)``)."""
    if isinstance(call.func, ast.Attribute):
        return call.func.value
    return None


def local_names(fn: FunctionNode) -> Set[str]:
    """Names bound inside ``fn``: parameters plus any assignment target.

    Nested function bodies are included (an over-approximation that errs
    toward fewer false positives: a name assigned anywhere inside the
    task body is treated as task-private).
    """
    names: Set[str] = set()
    args = fn.args
    for a in args.posonlyargs + args.args + args.kwonlyargs:
        names.add(a.arg)
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    for stmt in fn.body:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(node.name)
                for a in node.args.posonlyargs + node.args.args + node.args.kwonlyargs:
                    names.add(a.arg)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.alias):
                names.add(node.asname or node.name.split(".")[0])
    return names


def walk_with_loop_depth(tree: ast.AST) -> Iterator[tuple]:
    """Yield ``(node, loop_depth)`` pairs, tracking ``for``/``while``
    nesting — how the hot-path rule tells a one-off ``np.concatenate``
    from a quadratic grow-in-a-loop."""
    stack: List[tuple] = [(tree, 0)]
    while stack:
        node, depth = stack.pop()
        yield node, depth
        child_depth = depth + 1 if isinstance(node, (ast.For, ast.While)) else depth
        for child in ast.iter_child_nodes(node):
            stack.append((child, child_depth))
