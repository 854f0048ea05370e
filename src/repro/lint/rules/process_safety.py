"""``process-task-safety`` — picklability invariants of the processes
backend (DESIGN.md §10).

Tasks handed to :meth:`SimulatedPool.run_tasks` cross a process boundary:
the task function is *pickled by reference* (module + qualified name) and
re-imported inside each worker, and a worker's interpreter shares no
objects with the coordinator.  The contract is therefore stricter than
the thread-body one:

1. the task must be a **module-level function of the dispatching file**
   — a lambda or a ``def`` nested inside another function cannot be
   pickled at all, a bound method (``self._task``) drags its whole
   instance — the mutable coordinator state the backend exists to *not*
   share — through the pickle layer, and an imported (or computed) task
   has its body in another file, where no dispatch point vouches for it,
   so rules 2 and 3 would never see it;
2. a task body must not declare ``global`` — module globals are
   per-process copies under ``fork``, so a "shared" global silently
   diverges between coordinator and workers;
3. a task body must not write attributes of names it does not own —
   mutating module state from a worker never reaches the coordinator.

Every backend dispatches the same task functions, so this rule covers
every kernel body the engines run.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set

from ..astutils import expr_text, local_names
from ..framework import FileContext, Finding, Rule, register


def _run_tasks_calls(tree: ast.Module) -> List[ast.Call]:
    """All ``<pool>.run_tasks(task, payloads)`` dispatch points."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "run_tasks"
        and node.args
    ]


def _module_level_defs(tree: ast.Module) -> Set[str]:
    """Names defined by ``def`` directly at module scope."""
    return {
        n.name
        for n in tree.body
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _nested_defs(tree: ast.Module) -> Set[str]:
    """Names defined by ``def`` somewhere *below* module scope."""
    top = _module_level_defs(tree)
    return {
        n.name
        for n in ast.walk(tree)
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        and n.name not in top
    }


@register
class ProcessTaskSafetyRule(Rule):
    id = "process-task-safety"
    description = (
        "run_tasks() tasks must be module-level functions that neither "
        "close over nor mutate coordinator state"
    )
    paper_ref = "DESIGN.md §10 (shared-memory process backend)"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        tree = ctx.tree
        top_defs = {
            n.name: n
            for n in tree.body
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        nested = _nested_defs(tree)
        checked_bodies: Set[str] = set()
        for call in _run_tasks_calls(tree):
            task = call.args[0]
            problem = self._task_arg_problem(task, top_defs, nested)
            if problem is not None:
                yield ctx.finding(self.id, call, problem)
                continue
            if isinstance(task, ast.Name) and task.id in top_defs:
                if task.id not in checked_bodies:
                    checked_bodies.add(task.id)
                    yield from self._check_task_body(ctx, top_defs[task.id])

    # ------------------------------------------------------------------
    def _task_arg_problem(
        self,
        task: ast.AST,
        top_defs: Dict[str, ast.AST],
        nested: Set[str],
    ) -> Optional[str]:
        if isinstance(task, ast.Name) and task.id in top_defs:
            return None
        if isinstance(task, ast.Lambda):
            return (
                "run_tasks() task is a lambda: lambdas cannot be pickled "
                "across the process boundary — define a module-level task "
                "function"
            )
        if isinstance(task, ast.Attribute):
            return (
                f"run_tasks() task `{expr_text(task)}` is an attribute "
                "(bound method or instance callable): pickling it drags "
                "the whole instance — and its mutable coordinator state — "
                "into every worker; define a module-level task function "
                "and pass the needed state through the payload"
            )
        if isinstance(task, ast.Name) and task.id in nested:
            return (
                f"run_tasks() task `{task.id}` is defined inside another "
                "function: nested defs close over coordinator state and "
                "cannot be pickled — move it to module level"
            )
        return (
            f"run_tasks() task `{expr_text(task)}` is not a module-level "
            "function of this file: its body is checked only beside its "
            "dispatcher, so an imported or computed task goes unchecked — "
            "define the task at module level here"
        )

    def _check_task_body(
        self, ctx: FileContext, fn: ast.FunctionDef
    ) -> Iterator[Finding]:
        owned = local_names(fn)
        for stmt in fn.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Global):
                    yield ctx.finding(
                        self.id,
                        node,
                        f"process task `{fn.name}` declares `global "
                        f"{', '.join(node.names)}`: module globals are "
                        "per-process copies under fork — pass state through "
                        "the payload and return results instead",
                    )
                elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for target in targets:
                        yield from self._check_store(ctx, fn, node, target, owned)

    def _check_store(
        self,
        ctx: FileContext,
        fn: ast.FunctionDef,
        stmt: ast.AST,
        target: ast.AST,
        owned: Set[str],
    ) -> Iterator[Finding]:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                yield from self._check_store(ctx, fn, stmt, elt, owned)
            return
        if not isinstance(target, ast.Attribute):
            return
        root: ast.AST = target
        while isinstance(root, (ast.Attribute, ast.Subscript)):
            root = root.value
        if isinstance(root, ast.Name) and root.id in owned:
            return
        yield ctx.finding(
            self.id,
            stmt,
            f"process task `{fn.name}` writes attribute "
            f"`{expr_text(target)}` of module-level state: worker-side "
            "mutations never reach the coordinator — return the value "
            "through the task result",
        )


__all__ = ["ProcessTaskSafetyRule"]
