"""Import-aware call graph over the linted files.

Functions get stable qualified names derived from their module path
(``repro.core.mttkrp.MemoizedMttkrp.forward``); call edges are resolved
statically from four shapes that cover essentially all intra-project
calls in this codebase:

* ``helper(...)`` — a plain :class:`ast.Name` call, resolved to a
  module-level function of the same module or, through the module's
  ``from x import helper`` table, to another linted module;
* ``self.method(...)`` / ``cls.method(...)`` — resolved within the
  enclosing class (base classes are not chased; the kernels do not rely
  on charge-relevant inheritance);
* ``mod.helper(...)`` — resolved through ``import x as mod`` /
  ``from pkg import mod`` aliases when ``x``/``pkg.mod`` is linted;
* **dispatch edges** — a function *passed* to ``pool.map(body)`` /
  ``run_partitioned(pool, body)`` / ``pool.run_tasks([...])`` is called
  by the enclosing function even though no direct call appears; the
  traffic analysis needs these edges so charges inside thread bodies
  count toward their coordinator.

Unresolvable calls (numpy, stdlib, getattr-computed) are simply absent —
every analysis on top treats a missing edge conservatively.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..astutils import dotted_name
from ..framework import FileContext

__all__ = ["FunctionInfo", "CallSite", "CallGraph", "module_name_for"]

#: Dispatch receivers: ``<pool>.map(fn)`` (single arg), ``<pool>.run_tasks``
#: and ``run_partitioned(pool, fn)`` hand their function arguments to
#: worker threads/processes.
_DISPATCH_METHODS = frozenset({"map", "run_tasks", "submit"})


def module_name_for(ctx: FileContext) -> str:
    """Dotted module name of a file, anchored at the ``repro`` package.

    Files outside the package (fixtures, scratch copies) get their stem —
    unique enough for single-file analyses, and cross-module resolution
    never applies to them anyway.
    """
    parts = ctx.path.resolve().with_suffix("").parts
    if "repro" in parts:
        anchor = len(parts) - 1 - parts[::-1].index("repro")
        return ".".join(parts[anchor:])
    return parts[-1]


@dataclass
class CallSite:
    """One resolved call edge, anchored at the calling statement."""

    caller: str  #: qualified name of the enclosing function
    callee: str  #: qualified name of the target
    node: ast.AST  #: the Call (or dispatch argument) expression
    stmt: ast.stmt  #: enclosing statement (a CFG node of the caller)
    is_dispatch: bool = False  #: True for pool.map/run_tasks-style edges


@dataclass
class FunctionInfo:
    """One analyzed function/method and where it lives."""

    qname: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    ctx: FileContext
    module: str
    cls: Optional[str] = None  #: enclosing class name, if a method
    parent: Optional[str] = None  #: qname of the enclosing function, if nested

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def is_method(self) -> bool:
        return self.cls is not None


class _ImportTable:
    """Per-module map: local name -> dotted module/function it refers to."""

    def __init__(self, tree: ast.Module, module: str) -> None:
        self.aliases: Dict[str, str] = {}
        package = module.rsplit(".", 1)[0] if "." in module else module
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.aliases[alias.asname or alias.name.split(".")[0]] = alias.name
            elif isinstance(node, ast.ImportFrom):
                base = self._resolve_from(node, package)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    self.aliases[alias.asname or alias.name] = f"{base}.{alias.name}"

    @staticmethod
    def _resolve_from(node: ast.ImportFrom, package: str) -> Optional[str]:
        if node.level == 0:
            return node.module
        # Relative import: climb `level` packages from the module's package.
        parts = package.split(".")
        if node.level > len(parts):
            return None
        base_parts = parts[: len(parts) - (node.level - 1)]
        if node.module:
            base_parts.append(node.module)
        return ".".join(base_parts)


class CallGraph:
    """Functions, call sites, and adjacency over a set of linted files."""

    def __init__(self, files: List[FileContext]) -> None:
        self.functions: Dict[str, FunctionInfo] = {}
        self.call_sites: List[CallSite] = []
        self.callees: Dict[str, Set[str]] = {}
        self.callers: Dict[str, List[CallSite]] = {}
        self._imports: Dict[str, _ImportTable] = {}
        self._module_funcs: Dict[str, Dict[str, str]] = {}  # mod -> name -> qname
        self._class_methods: Dict[Tuple[str, str], Dict[str, str]] = {}
        for ctx in files:
            self._index_file(ctx)
        for ctx in files:
            self._resolve_file(ctx)

    # ------------------------------------------------------------------
    # indexing
    # ------------------------------------------------------------------
    def _index_file(self, ctx: FileContext) -> None:
        module = module_name_for(ctx)
        self._imports[module] = _ImportTable(ctx.tree, module)
        mod_funcs = self._module_funcs.setdefault(module, {})

        def visit(node: ast.AST, prefix: str, cls: Optional[str], parent: Optional[str]) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qname = f"{prefix}.{child.name}"
                    info = FunctionInfo(
                        qname=qname, node=child, ctx=ctx, module=module,
                        cls=cls, parent=parent,
                    )
                    self.functions[qname] = info
                    if cls is None and parent is None:
                        mod_funcs[child.name] = qname
                    if cls is not None and parent is None:
                        self._class_methods.setdefault((module, cls), {})[
                            child.name
                        ] = qname
                    # Nested functions keep the enclosing class: closures
                    # capture `self`, so their `self.m()` calls resolve
                    # against the same class (the thread-body pattern).
                    visit(child, qname, cls, qname)
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}.{child.name}", child.name, None)
                else:
                    visit(child, prefix, cls, parent)

        visit(ctx.tree, module, None, None)

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------
    def _resolve_file(self, ctx: FileContext) -> None:
        module = module_name_for(ctx)
        for info in [f for f in self.functions.values() if f.ctx is ctx]:
            body = info.node.body if isinstance(info.node.body, list) else []
            for stmt in body:
                for node in self._walk_own(stmt):
                    if isinstance(node, ast.Call):
                        self._resolve_call(info, module, stmt, node)

    @staticmethod
    def _walk_own(stmt: ast.stmt):
        """Walk a statement without descending into nested function
        bodies — their calls belong to the nested function."""
        stack: List[ast.AST] = [stmt]
        while stack:
            node = stack.pop()
            yield node
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    continue
                stack.append(child)

    def _resolve_call(
        self, info: FunctionInfo, module: str, stmt: ast.stmt, call: ast.Call
    ) -> None:
        callee = self._resolve_target(info, module, call.func)
        if callee is not None:
            self._add_site(CallSite(info.qname, callee, call, stmt))
        # Dispatch edges: functions passed as arguments to pool plumbing.
        func = call.func
        is_dispatch = (
            isinstance(func, ast.Attribute) and func.attr in _DISPATCH_METHODS
        ) or (isinstance(func, ast.Name) and func.id == "run_partitioned")
        if not is_dispatch:
            return
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            for expr in ast.walk(arg) if not isinstance(arg, ast.Name) else [arg]:
                if isinstance(expr, ast.Name):
                    target = self._resolve_target(info, module, expr)
                    if target is not None:
                        self._add_site(
                            CallSite(info.qname, target, expr, stmt, is_dispatch=True)
                        )

    def _resolve_target(
        self, info: FunctionInfo, module: str, func: ast.AST
    ) -> Optional[str]:
        imports = self._imports.get(module)
        if isinstance(func, ast.Name):
            # Nested function defined in an enclosing scope?
            scope = info.qname
            while scope:
                candidate = f"{scope}.{func.id}"
                if candidate in self.functions:
                    return candidate
                scope = scope.rsplit(".", 1)[0] if "." in scope else ""
            local = self._module_funcs.get(module, {}).get(func.id)
            if local is not None:
                return local
            if imports is not None and func.id in imports.aliases:
                dotted = imports.aliases[func.id]
                return dotted if dotted in self.functions else None
            return None
        if isinstance(func, ast.Attribute):
            base = dotted_name(func.value)
            if base in ("self", "cls") and info.cls is not None:
                methods = self._class_methods.get((module, info.cls), {})
                return methods.get(func.attr)
            if base is not None and imports is not None and base in imports.aliases:
                dotted = f"{imports.aliases[base]}.{func.attr}"
                if dotted in self.functions:
                    return dotted
                # ``from repro import core`` style two-level attribute.
                nested = self._module_funcs.get(imports.aliases[base], {})
                return nested.get(func.attr)
        return None

    def _add_site(self, site: CallSite) -> None:
        self.call_sites.append(site)
        self.callees.setdefault(site.caller, set()).add(site.callee)
        self.callers.setdefault(site.callee, []).append(site)
