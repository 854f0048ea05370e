"""Interprocedural dataflow analysis (``python -m repro.lint --flow``).

Importing this package registers the project-scope rule
``flow.traffic-conformance`` (:mod:`.traffic`) on top of the shared
machinery:

* :mod:`.cfg` — statement CFGs with dominators/postdominators
* :mod:`.callgraph` — import-aware call graph incl. ``run_tasks`` dispatch
* :mod:`.facts` — per-function charge and access sites
* :mod:`.analysis` — :class:`~.analysis.FlowAnalysis`, the per-run cache

The rule carries ``scope = "project"``: it sees every linted file at
once (it needs the call graph) and only runs under ``--flow`` or when
selected explicitly.  DESIGN.md §9.1 documents the architecture.
"""

from . import traffic
from .analysis import FlowAnalysis

__all__ = ["FlowAnalysis", "traffic"]
