"""Dimension-tree baseline (Kaya & Uçar's BDT / HyperTensor policy).

Section V describes Kaya and Uçar's Balanced Dimension Tree: the mode set
is recursively halved; each internal node stores the tensor partially
contracted with the factors of the *complement* of its mode set, and each
of the ``d`` MTTKRPs walks from the root to its leaf, reusing every
cached internal node whose contracted factors are still current.  "The
corresponding HyperTensor library implementation has not yet been
released to open-source, making an empirical comparison impossible" — so
this reproduction builds the policy from scratch and makes the comparison
the paper could not.

Semantics
---------
* Tree: node = sorted tuple of modes; children split the set into
  contiguous halves (⌈n/2⌉ / rest), leaves are single modes.
* ``P_S`` = tensor contracted over every mode *not* in ``S``.  The root
  is the tensor itself; a child ``S1`` of ``S`` is obtained by
  contracting ``P_S`` over ``S ∖ S1`` (one :func:`~repro.ops.partial.contract_modes`
  call).
* MTTKRP for mode ``m``: materialize (or reuse) the ancestors of leaf
  ``{m}``; the final step contracts the last sibling set and scatters.
* Cache validity follows the sequential-update rule the BDT relies on: a
  cached ``P_S`` is reusable iff every factor it consumed is *identical*
  (object identity — the ALS driver installs a fresh array per update) to
  the current one.

Costs are charged per materialized node (read parent, write child, factor
gathers with the cache rule) and per final scatter, like the other
backends, so the harness can rank BDT against STeF/AdaTM directly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..engines.base import EngineBase, resolve_num_threads
from ..ops.partial import PartialTensor, contract_modes, from_coo, reduce_to_matrix
from ..parallel.counters import NULL_COUNTER, TrafficCounter
from ..parallel.machine import MachineSpec
from ..tensor.coo import CooTensor
from ..trace import NULL_TRACER, Tracer

__all__ = ["DimTreeBackend", "build_mode_tree"]

ModeSet = Tuple[int, ...]


def build_mode_tree(ndim: int) -> Dict[ModeSet, Tuple[ModeSet, ...]]:
    """Balanced binary tree over the mode set: ``{node: children}``.

    Leaves (single modes) map to ``()``.
    """
    if ndim < 1:
        raise ValueError("need at least one mode")
    tree: Dict[ModeSet, Tuple[ModeSet, ...]] = {}

    def split(modes: ModeSet) -> None:
        if len(modes) == 1:
            tree[modes] = ()
            return
        half = (len(modes) + 1) // 2
        left, right = modes[:half], modes[half:]
        tree[modes] = (left, right)
        split(left)
        split(right)

    split(tuple(range(ndim)))
    return tree


class DimTreeBackend(EngineBase):
    """Dimension-tree memoized MTTKRP backend."""

    name = "dimtree"

    def __init__(
        self,
        tensor: CooTensor,
        rank: int,
        *,
        machine: Optional[MachineSpec] = None,
        num_threads: Optional[int] = None,
        exec_backend: Optional[str] = None,
        counter: TrafficCounter = NULL_COUNTER,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        # The BDT walk is coordinator-side dense algebra with no pool to
        # drive: ``exec_backend`` is accepted for signature uniformity,
        # and run metadata names the backend that actually runs it.
        self.exec_backend = "serial"
        self.tensor = tensor
        self.rank = rank
        self.counter = counter
        self.tracer = tracer
        self.num_threads = resolve_num_threads(machine, num_threads)
        d = tensor.ndim
        self.mode_order: Tuple[int, ...] = tuple(range(d))
        self.tree = build_mode_tree(d)
        self.root: ModeSet = tuple(range(d))
        # node -> (PartialTensor, {contracted mode: factor array used})
        self._cache: Dict[ModeSet, Tuple[PartialTensor, Dict[int, np.ndarray]]] = {}
        self._root_partial = from_coo(tensor, rank)
        self._parents: Dict[ModeSet, ModeSet] = {}
        for node, children in self.tree.items():
            for c in children:
                self._parents[c] = node

    # ------------------------------------------------------------------
    def _node_valid(self, node: ModeSet, factors: Sequence[np.ndarray]) -> bool:
        entry = self._cache.get(node)
        if entry is None:
            return False
        _, used = entry
        return all(factors[m] is arr for m, arr in used.items())

    def _materialize(
        self, node: ModeSet, factors: Sequence[np.ndarray]
    ) -> PartialTensor:
        """Return ``P_node``, computing and caching it if stale."""
        if node == self.root:
            return self._root_partial
        if self._node_valid(node, factors):
            return self._cache[node][0]
        parent = self._parents[node]
        parent_partial = self._materialize(parent, factors)
        to_contract = [m for m in parent if m not in node]
        child = contract_modes(
            parent_partial, to_contract, [factors[m] for m in to_contract]
        )
        # The factors this node depends on: everything its parent consumed
        # plus the edge contraction's own factors.
        used: Dict[int, np.ndarray] = {}
        if parent != self.root:
            used.update(self._cache[parent][1])
        for m in to_contract:
            used[m] = factors[m]
        self._cache[node] = (child, used)
        self._charge_edge(parent_partial, child, to_contract)
        return child

    def _charge_edge(
        self,
        parent: PartialTensor,
        child: PartialTensor,
        contracted: List[int],
    ) -> None:
        self.counter.read(parent.num_fibers * self.rank, "memo")
        self.counter.read(parent.indices.shape[0] * parent.num_fibers, "structure")
        for m in contracted:
            self.counter.read_factor_rows(
                parent.num_fibers, self.tensor.shape[m], self.rank, "factor"
            )
        size = child.num_fibers * self.rank
        self.counter.write(size, "memo")
        self.counter.read(size, "memo-allocate")
        self.counter.flop(2 * self.rank * parent.num_fibers * max(1, len(contracted)), "sweep")

    # ------------------------------------------------------------------
    def mttkrp_level(self, factors: Sequence[np.ndarray], level: int) -> np.ndarray:
        """MTTKRP for mode ``level`` via the leaf's ancestor chain."""
        mode = self.mode_order[level]
        with self.kernel_span(level, mode, self.tensor.nnz, "dimtree"):
            return self._mttkrp_level_impl(factors, mode)

    def _mttkrp_level_impl(
        self, factors: Sequence[np.ndarray], mode: int
    ) -> np.ndarray:
        leaf: ModeSet = (mode,)
        parent = self._parents[leaf]
        parent_partial = self._materialize(parent, factors)
        siblings = [m for m in parent if m != mode]
        out = reduce_to_matrix(
            parent_partial, mode, [factors[m] for m in siblings], siblings
        )
        # Final scatter charge (conflicted accumulation like other
        # backends' mode-u outputs).
        for m in siblings:
            self.counter.read_factor_rows(
                parent_partial.num_fibers, self.tensor.shape[m], self.rank,
                "factor",
            )
        self.counter.read(parent_partial.num_fibers * self.rank, "memo")
        self.counter.scatter_update(
            parent_partial.num_fibers,
            self.tensor.shape[mode],
            self.rank,
            self.num_threads,
            "output",
        )
        return out

    def level_load_factor(self, level: int) -> float:
        """Flat equal-fiber chunking (the BDT's intra-node parallelism is
        over contiguous fiber blocks)."""
        return 1.0

    def memo_bytes(self) -> int:
        """Current footprint of the cached internal nodes."""
        return int(sum(p.nbytes() for p, _ in self._cache.values()))

    def describe(self) -> str:
        internal = [n for n, c in self.tree.items() if c and n != self.root]
        return f"{self.name}: {len(internal)} internal nodes {internal}"
