"""``hot-path`` — kernel modules stay level-vectorized and copy-free.

The wall-clock story of this reproduction lives or dies on the kernels
being *level-vectorized*: one NumPy call per CSF level, never one Python
iteration (or one scalar scatter) per non-zero (DESIGN.md §2).  This rule
polices the kernel modules — ``core/csf_kernels.py``, ``core/mttkrp.py``,
everything under ``ops/`` and ``baselines/`` — for the idioms that
quietly reintroduce interpreter- or copy-bound inner loops:

1. ``np.add.at`` — the documented-slow buffered scatter; use
   :func:`repro.core.csf_kernels.scatter_add_rows` (one product with a
   scatter operator sorted once, :func:`repro.kernels.scatter_operator`)
   instead;
2. ``.flatten()`` — always copies; ``.ravel()`` is view-returning;
3. array concatenation (``np.concatenate``/``append``/``vstack``/
   ``hstack``) *inside a loop* — quadratic reallocation; build a list and
   concatenate once, or preallocate;
4. Python ``for`` loops whose iterable is nnz-scale (mentions ``nnz`` or
   ``iter_entries``) — per-non-zero interpretation.

``ops/dense_ref.py`` is the deliberately-naive reference oracle and
carries a file-level allowlist pragma.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..astutils import dotted_name, expr_text, walk_with_loop_depth
from ..framework import FileContext, Finding, Rule, register

#: Path fragments that mark a module as kernel (hot-path) code.
KERNEL_PATH_MARKERS = (
    "/repro/core/csf_kernels.py",
    "/repro/core/mttkrp.py",
    "/repro/ops/",
    "/repro/baselines/",
    "/lint_fixtures/ops/",  # test fixtures exercising this rule
)

_CONCAT_FUNCS = frozenset({"concatenate", "append", "vstack", "hstack"})
_NUMPY_NAMES = frozenset({"np", "numpy"})


def is_kernel_path(posix_path: str) -> bool:
    return any(marker in posix_path for marker in KERNEL_PATH_MARKERS)


def _is_np_attr(node: ast.AST, attr_chain: str) -> bool:
    """True when ``node`` is ``np.<attr_chain>`` / ``numpy.<attr_chain>``."""
    name = dotted_name(node)
    if name is None:
        return False
    parts = name.split(".", 1)
    return len(parts) == 2 and parts[0] in _NUMPY_NAMES and parts[1] == attr_chain


@register
class HotPathRule(Rule):
    id = "hot-path"
    description = (
        "kernel modules must stay level-vectorized: no np.add.at, no "
        ".flatten(), no concatenation in loops, no nnz-scale Python loops"
    )
    paper_ref = "DESIGN.md §2 (vectorized substrate substitution)"

    def applies_to(self, ctx: FileContext) -> bool:
        return is_kernel_path(ctx.posix_path)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node, loop_depth in walk_with_loop_depth(ctx.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(ctx, node, loop_depth)
            elif isinstance(node, ast.For):
                yield from self._check_for(ctx, node)

    def _check_call(
        self, ctx: FileContext, node: ast.Call, loop_depth: int
    ) -> Iterator[Finding]:
        if _is_np_attr(node.func, "add.at"):
            yield ctx.finding(
                self.id,
                node,
                "np.add.at is a buffered per-element scatter (orders of "
                "magnitude slower); use "
                "repro.core.csf_kernels.scatter_add_rows with a "
                "repro.kernels.scatter_operator built once",
            )
            return
        if isinstance(node.func, ast.Attribute) and node.func.attr == "flatten":
            yield ctx.finding(
                self.id,
                node,
                f"`{expr_text(node.func)}()` always copies; "
                "use .ravel() (view when possible)",
            )
            return
        if loop_depth > 0 and any(
            _is_np_attr(node.func, fn) for fn in _CONCAT_FUNCS
        ):
            fn_name = dotted_name(node.func)
            yield ctx.finding(
                self.id,
                node,
                f"`{fn_name}` inside a loop reallocates the whole array "
                "each iteration (quadratic); collect parts and "
                "concatenate once, or preallocate",
            )

    def _check_for(self, ctx: FileContext, node: ast.For) -> Iterator[Finding]:
        iter_text = expr_text(node.iter)
        if "nnz" in iter_text or "iter_entries" in iter_text:
            yield ctx.finding(
                self.id,
                node,
                f"Python loop over nnz-scale iterable `{iter_text}` in a "
                "kernel module; re-express as a level-by-level vectorized "
                "sweep (see repro.core.csf_kernels)",
            )
