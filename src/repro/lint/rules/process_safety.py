"""``process-task-safety`` — the task discipline every execution backend
relies on (paper Section III-A; DESIGN.md §10).

Tasks handed to :meth:`SimulatedPool.run_tasks` cross a process boundary:
the task function is *pickled by reference* (module + qualified name) and
re-imported inside each worker, and a worker's interpreter shares no
objects with the coordinator.  Under the threads backend the same tasks
run concurrently in one interpreter, so the per-thread writes must be
conflict-free (paper Section III-A).  The contract:

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
3. a task body must not store into state it does not own: an attribute
   write (``mod.attr = v``) or a subscript write whose root is a bare
   name the task does not bind (``_SCRATCH[lo:hi] = 1.0``,
   ``_SEEN[lo] = hi``).  Under processes such a write never reaches the
   coordinator; under threads it races.  Stores into buffers the task
   resolves from its payload (``resolve(rep)[...] += ...``, rooted at a
   call) and into its own locals stay clean;
4. nor may it mutate a module-level container in place: a ``del``
   target or the receiver of a mutating method call (``append``,
   ``update``, ``setdefault``, ``pop``, ...) rooted at a bare name the
   module binds by assignment (``_LOG.append(lo)``,
   ``_CACHE[th].append(lo)``, ``del _SEEN[lo]``) — a worker-side cache
   is exactly this.  Names bound by ``import``,
   ``def`` or ``class`` are not containers the task could fill
   (``np.append(...)`` returns a new array).

Every backend dispatches the same task functions, so this rule covers
every kernel body the engines run.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set

from ..astutils import expr_text, local_names
from ..framework import FileContext, Finding, Rule, register

#: Methods that mutate a list, dict or set in place.
MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "update", "setdefault", "pop", "popitem",
    "clear", "remove", "add", "discard",
})


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


def _module_assigned_names(tree: ast.Module) -> Set[str]:
    """Bare names bound by assignment directly at module scope."""
    names: Set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            targets = [stmt.target]
        else:
            continue
        for target in targets:
            for node in ast.walk(target):
                if isinstance(node, ast.Name):
                    names.add(node.id)
    return names


def _root_name(node: ast.AST) -> Optional[str]:
    """The bare name an attribute/subscript chain hangs off, if any."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


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
    paper_ref = (
        "Section III-A (conflict-free per-thread writes) + DESIGN.md §10 "
        "(shared-memory process backend)"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        tree = ctx.tree
        top_defs = {
            n.name: n
            for n in tree.body
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        nested = _nested_defs(tree)
        module_names = _module_assigned_names(tree)
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
                    yield from self._check_task_body(
                        ctx, top_defs[task.id], module_names
                    )

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
        self, ctx: FileContext, fn: ast.FunctionDef, module_names: Set[str]
    ) -> Iterator[Finding]:
        owned = local_names(fn)
        shared = module_names - owned
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
                elif isinstance(node, ast.Delete):
                    for target in node.targets:
                        if (
                            isinstance(target, (ast.Attribute, ast.Subscript))
                            and _root_name(target) in shared
                        ):
                            yield self._mutation(
                                ctx, fn, node, f"`del {expr_text(target)}`"
                            )
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in MUTATING_METHODS
                    and _root_name(node.func.value) in shared
                ):
                    yield self._mutation(
                        ctx, fn, node, f"`{expr_text(node.func)}()`"
                    )

    def _mutation(
        self, ctx: FileContext, fn: ast.FunctionDef, node: ast.AST, what: str
    ) -> Finding:
        return ctx.finding(
            self.id,
            node,
            f"process task `{fn.name}` mutates module-level state with "
            f"{what}: under processes the change never reaches the "
            "coordinator, under threads it races — return the value "
            "through the task result",
        )

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
        if not isinstance(target, (ast.Attribute, ast.Subscript)):
            return
        root = _root_name(target)
        if root in owned:
            return
        if root is None and isinstance(target, ast.Subscript):
            return  # a payload-resolved buffer, e.g. resolve(rep)[...]
        kind = "attribute" if isinstance(target, ast.Attribute) else "subscript"
        yield ctx.finding(
            self.id,
            stmt,
            f"process task `{fn.name}` stores into {kind} "
            f"`{expr_text(target)}` of state it does not own: under "
            "processes the write never reaches the coordinator, under "
            "threads it races — return the value through the task result",
        )


__all__ = ["ProcessTaskSafetyRule"]
