"""Interprocedural dataflow analyses (``repro lint --flow``).

Importing this package registers the project-scope rules:

* :mod:`.traffic` — ``flow.traffic-conformance``
* :mod:`.typestate` — ``flow.buffer-typestate``, ``flow.arena-typestate``

on top of the shared machinery:

* :mod:`.cfg` — statement CFGs with dominators/postdominators
* :mod:`.callgraph` — import-aware call graph incl. ``pool.map`` dispatch
* :mod:`.facts` — per-function charge/access/lifecycle facts
* :mod:`.analysis` — :class:`~.analysis.FlowAnalysis`, the per-run cache

These rules carry ``scope = "project"``: they see every linted file at
once (they need the call graph) and only run under ``--flow`` or when
selected explicitly.  DESIGN.md §9 documents the architecture.
"""

from . import traffic, typestate
from .analysis import FlowAnalysis

__all__ = ["FlowAnalysis", "traffic", "typestate"]
