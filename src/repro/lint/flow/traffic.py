"""``flow.traffic-conformance`` — every kernel array access is charged.

The paper's headline artifact is *counted* memory traffic that matches
the Section IV-C model; an ndarray access no :class:`~repro.parallel.
counters.TrafficCounter` charge accounts for silently under-reports the
measured channel and the Fig. 3/4 comparison drifts.  This rule walks
every function in the kernel modules (see
:data:`repro.lint.rules.hot_path.KERNEL_PATH_MARKERS`) and requires each
access site to be **covered**:

* *intra-procedurally* — dominated or post-dominated by a statement that
  charges a canonical category, either directly or by calling (or
  dispatching to, via ``pool.run_tasks``) a helper that transitively
  charges; or
* *externally* — every analyzed call site of the enclosing function is
  itself covered in its caller (the ``ops/partial.py`` pattern: pure
  helpers bracketed by the caller's charges).

Anything else is a finding.  The per-kernel transitive "charged
categories" summaries the same analysis produces are cross-checked
against observed trace span deltas in ``tests/test_lint_flow.py``.
"""

from __future__ import annotations

from typing import Iterator

from ..framework import Finding, ProjectContext, Rule, register

__all__ = ["TrafficConformanceRule"]


@register
class TrafficConformanceRule(Rule):
    id = "flow.traffic-conformance"
    description = (
        "kernel ndarray accesses must be dominated or post-dominated by a "
        "TrafficCounter charge, directly or through helper calls"
    )
    paper_ref = "Section IV-C (counted traffic matches the model)"
    scope = "project"

    #: Construction is not a kernel execution path: the tracer's kernel
    #: spans never bracket ``__init__``, so setup-time writes (CSF/plan
    #: assembly) are outside the counted-traffic contract by design.
    SETUP_METHODS = frozenset({"__init__", "__new__", "__post_init__"})

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        analysis = project.analysis
        ext_covered = analysis.externally_covered()
        for info in analysis.kernel_functions():
            if info.name in self.SETUP_METHODS:
                continue
            uncovered = analysis.uncovered_accesses(info.qname)
            if not uncovered or info.qname in ext_covered:
                continue
            short = info.qname[len(info.module) + 1 :] or info.name
            for site in uncovered:
                yield info.ctx.finding(
                    self.id,
                    site.node,
                    f"uncounted ndarray {site.kind} `{site.target}[...]` in "
                    f"kernel `{short}`: no TrafficCounter charge dominates or "
                    "post-dominates it (directly or via helpers) and no "
                    "analyzed caller accounts for it; charge a "
                    "CANONICAL_TRAFFIC_CATEGORIES category on the same path "
                    "or hoist the accounting into the caller",
                )
