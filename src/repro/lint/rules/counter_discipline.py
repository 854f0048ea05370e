"""``counter-category`` — traffic charges use the canonical vocabulary.

The Section IV-C data-movement model and the measured-traffic channel only
stay comparable because they reason in one shared category vocabulary
(:data:`repro.analysis.traffic.CANONICAL_TRAFFIC_CATEGORIES`).  A kernel
that invents ``"fibres"`` where the model says ``"structure"`` silently
splits the tallies and the Fig. 3/4 model-vs-measured comparison drifts.

This rule finds every charge call on a counter-ish receiver and requires
its ``category`` argument (positional or keyword) to be a **string
literal** drawn from the canonical set.  Omitting the argument is fine —
the defaults are canonical.  Non-literal categories are flagged too: a
category computed at runtime cannot be audited statically, and nothing in
the model needs one.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ...analysis.traffic import CANONICAL_TRAFFIC_CATEGORIES
from ..astutils import expr_text, receiver_of
from ..framework import FileContext, Finding, Rule, register

#: Methods that charge a counter (TrafficCounter's public charge API).
CHARGE_METHODS = frozenset(
    {"read", "write", "flop", "read_factor_rows", "write_factor_rows", "scatter_update"}
)
#: Charge methods whose names are unambiguous (no stdlib collision like
#: ``fh.read()``): any receiver counts as a counter.
UNAMBIGUOUS_CHARGE = frozenset(
    {"flop", "read_factor_rows", "write_factor_rows", "scatter_update"}
)

#: Positional index of the ``category`` parameter per charge method.
CATEGORY_ARG_INDEX = {
    "read": 1,
    "write": 1,
    "flop": 1,
    "read_factor_rows": 3,
    "write_factor_rows": 3,
    "scatter_update": 4,
}


def _category_node(call: ast.Call, method: str) -> Optional[ast.AST]:
    for kw in call.keywords:
        if kw.arg == "category":
            return kw.value
    idx = CATEGORY_ARG_INDEX[method]
    if len(call.args) > idx:
        return call.args[idx]
    return None


def _counter_ish(recv: ast.AST) -> bool:
    """Heuristic receiver filter for the ambiguous names (``read``/
    ``write`` collide with file objects): the receiver expression must
    mention a counter or shard."""
    text = expr_text(recv).lower()
    return "counter" in text or "shard" in text


@register
class CounterCategoryRule(Rule):
    id = "counter-category"
    description = (
        "traffic charges must use a literal category from "
        "repro.analysis.traffic.CANONICAL_TRAFFIC_CATEGORIES"
    )
    paper_ref = "Section IV-C (the data-movement model's term vocabulary)"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            method = node.func.attr
            if method not in CHARGE_METHODS:
                continue
            recv = receiver_of(node)
            if recv is None:
                continue
            if method not in UNAMBIGUOUS_CHARGE and not _counter_ish(recv):
                continue
            cat = _category_node(node, method)
            if cat is None:
                continue  # defaults are canonical
            if isinstance(cat, ast.Constant) and isinstance(cat.value, str):
                if cat.value not in CANONICAL_TRAFFIC_CATEGORIES:
                    yield ctx.finding(
                        self.id,
                        cat,
                        f"traffic category {cat.value!r} is not canonical; "
                        "use one of CANONICAL_TRAFFIC_CATEGORIES (extend the "
                        "set in repro/analysis/traffic.py first if the model "
                        "grew a new term)",
                    )
            else:
                yield ctx.finding(
                    self.id,
                    cat,
                    f"traffic category `{expr_text(cat)}` is not a string "
                    "literal; charges must name their category statically "
                    "so the model and the measured channel stay auditable",
                )
