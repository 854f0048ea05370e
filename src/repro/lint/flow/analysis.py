"""Shared interprocedural state for the flow rules.

Built once per ``repro lint --flow`` run (lazily, through
:attr:`repro.lint.framework.ProjectContext.analysis`) and shared by every
project-scope rule:

* the :class:`~.callgraph.CallGraph` over all linted files;
* :class:`~.facts.FunctionFacts` per function (CFG, charge/access/
  lifecycle sites), built on demand and cached;
* **transitive charge categories** — the least fixpoint of
  ``cats(f) = direct(f) ∪ ⋃ cats(callee)`` over the call graph, giving
  each kernel its "charged categories" summary (what the traffic model
  can possibly attribute when this kernel runs);
* **coverage** — a statement *covers* traffic when it charges directly
  or calls (or dispatches to) a function whose transitive categories are
  non-empty; an access site is intra-covered when some covering node
  dominates or postdominates it;
* the **external-coverage fixpoint** — a function whose accesses are not
  intra-covered is still conformant when every analyzed call site of it
  is covered in its caller (the dimtree pattern: pure helpers in
  ``ops/partial.py`` are bracketed by the caller's charges).  Computed as
  a greatest fixpoint so mutually recursive helpers don't flip-flop; a
  function with *no* analyzed call sites can never be externally covered.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, TYPE_CHECKING

from ..rules.hot_path import is_kernel_path
from .callgraph import CallGraph, CallSite, FunctionInfo
from .facts import AccessSite, FunctionFacts

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..framework import ProjectContext

__all__ = ["FlowAnalysis"]


class FlowAnalysis:
    """Call graph + per-function facts + coverage, computed once per run."""

    def __init__(self, project: "ProjectContext") -> None:
        self.project = project
        self.graph = CallGraph(project.files)
        self._facts: Dict[str, FunctionFacts] = {}
        self._transitive: Optional[Dict[str, Set[str]]] = None
        self._ext_covered: Optional[Set[str]] = None

    # ------------------------------------------------------------------
    def facts(self, qname: str) -> FunctionFacts:
        if qname not in self._facts:
            self._facts[qname] = FunctionFacts(self.graph.functions[qname], self.graph)
        return self._facts[qname]

    def kernel_functions(self) -> List[FunctionInfo]:
        """Functions living in kernel modules, the traffic-conformance
        domain."""
        return [
            info
            for info in self.graph.functions.values()
            if is_kernel_path(info.ctx.posix_path)
        ]

    # ------------------------------------------------------------------
    # transitive charge categories
    # ------------------------------------------------------------------
    def transitive_categories(self) -> Dict[str, Set[str]]:
        """Least fixpoint of direct-∪-callee categories per function."""
        if self._transitive is not None:
            return self._transitive
        cats: Dict[str, Set[str]] = {
            q: set(self.facts(q).direct_categories()) for q in self.graph.functions
        }
        changed = True
        while changed:
            changed = False
            for q in self.graph.functions:
                for callee in self.graph.callees.get(q, ()):  # noqa: B007
                    add = cats.get(callee, set()) - cats[q]
                    if add:
                        cats[q] |= add
                        changed = True
        self._transitive = cats
        return cats

    def charged_categories(self, qname: str) -> Set[str]:
        """The per-kernel "charged categories" summary for one function."""
        return set(self.transitive_categories().get(qname, set()))

    def module_categories(self) -> Dict[str, Set[str]]:
        """Charged categories aggregated per kernel module — the summary
        tests cross-check against observed trace span deltas."""
        out: Dict[str, Set[str]] = {}
        for info in self.kernel_functions():
            out.setdefault(info.module, set()).update(
                self.charged_categories(info.qname)
            )
        return out

    # ------------------------------------------------------------------
    # coverage
    # ------------------------------------------------------------------
    def cover_nodes(self, qname: str) -> Set[int]:
        """CFG nodes of ``qname`` that account traffic: direct charges plus
        call/dispatch sites whose target transitively charges."""
        facts = self.facts(qname)
        nodes = set(facts.charge_nodes)
        cats = self.transitive_categories()
        for site in [s for s in self.graph.call_sites if s.caller == qname]:
            if cats.get(site.callee):
                nid = facts.cfg.node_of(site.stmt)
                if nid is not None:
                    nodes.add(nid)
        return nodes

    def uncovered_accesses(self, qname: str) -> List[AccessSite]:
        """Access sites of ``qname`` not dominated/postdominated by a
        covering node."""
        facts = self.facts(qname)
        cover = self.cover_nodes(qname)
        out: List[AccessSite] = []
        for site in facts.accesses:
            nid = facts.cfg.node_of(site.stmt)
            if nid is None or not facts.cfg.covered_by(nid, cover):
                out.append(site)
        return out

    def externally_covered(self) -> Set[str]:
        """Functions whose traffic is accounted at every analyzed call
        site (greatest fixpoint — see module docstring)."""
        if self._ext_covered is not None:
            return self._ext_covered
        candidates = {q for q in self.graph.functions if self.graph.callers.get(q)}
        ext = set(candidates)
        # Pre-compute per-caller cover nodes once; they don't change.
        cover_cache: Dict[str, Set[int]] = {}

        def site_covered(site: CallSite) -> bool:
            caller = site.caller
            if caller not in cover_cache:
                cover_cache[caller] = self.cover_nodes(caller)
            facts = self.facts(caller)
            nid = facts.cfg.node_of(site.stmt)
            if nid is not None and facts.cfg.covered_by(nid, cover_cache[caller]):
                return True
            return caller in ext

        changed = True
        while changed:
            changed = False
            for q in list(ext):
                if not all(site_covered(s) for s in self.graph.callers.get(q, [])):
                    ext.discard(q)
                    changed = True
        self._ext_covered = ext
        return ext
