"""Literal per-node rendering of the paper's Algorithms 4-8.

The production kernels in :mod:`repro.core.csf_kernels` re-express the
paper's recursive per-node loops as vectorized level sweeps.  This module
keeps a *per-node interpreted* rendering of the same algorithms — the
``k_i``/``t_i`` vector dataflow of Algorithm 5, per-thread loop-bound
clipping against ``thread_start`` (Alg. 5 lines 1-2), ``T.save``-gated
memoization with thread-shifted replication slots (Section III-B's
"shifting its write location by an amount equal to its thread id"), and
the three mode-u strategies of Algorithms 6-8.

It is O(interpreted Python per tree node) and only suitable for small
tensors, but it serves as a *third* independent oracle (after the dense
einsum and the COO scatter reference): tests assert ``vectorized engine
== per-node algorithm`` for every plan and thread count, pinning the
production kernels to the paper's control flow, not merely to
linear-algebra equivalence.

Thread semantics (matching the engine and Section III-A):

* leaves are partitioned half-open and disjoint;
* at internal levels a boundary node split between threads is *visited by
  both*, each contracting only its owned children — linearity makes the
  partial contributions sum exactly;
* actions that consume **complete** values (reading a memoized ``P^(u)``
  row) run under half-open node ownership so they execute exactly once;
* mode-0 memo writes go to the thread-shifted slot ``node + th`` of a
  ``(m_i + T) × R`` buffer, merged before reuse.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from ..parallel.partition import ThreadPartition, nnz_partition
from ..tensor.csf import CsfTensor
from .memoization import MemoPlan, SAVE_NONE

__all__ = ["ReferenceEngine"]


class ReferenceEngine:
    """Per-node interpreted memoized MTTKRP (the fidelity oracle).

    Mirrors :class:`repro.core.mttkrp.MemoizedMttkrp`'s public contract:
    ``mode0`` refreshes the memo, ``mode_level`` computes any level.
    """

    def __init__(
        self,
        csf: CsfTensor,
        rank: int,
        *,
        plan: MemoPlan = SAVE_NONE,
        num_threads: int = 1,
    ) -> None:
        plan.validate(csf.ndim)
        self.csf = csf
        self.rank = rank
        self.plan = plan
        self.num_threads = num_threads
        self.partition: ThreadPartition = nnz_partition(csf, num_threads)
        #: (m_i + T) x R replicated buffers, populated by mode0().
        self.memo_buffers: Dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    def _level_factors(self, factors: Sequence[np.ndarray]) -> List[np.ndarray]:
        return [np.asarray(factors[m]) for m in self.csf.mode_order]

    def _merged_memo(self, level: int) -> np.ndarray:
        """Sum the thread-shifted slots into the canonical ``m_i × R``.

        Slot ``n + th`` holds thread ``th``'s contribution to node ``n``;
        the merge walks each thread's touched node window (its partition
        range plus the shared boundary node), exactly like
        :meth:`repro.parallel.executor.ReplicatedArray.merge`.
        """
        buf = self.memo_buffers[level]
        m = self.csf.fiber_counts[level]
        out = np.zeros((m, self.rank))
        for th in range(self.num_threads):
            lo = int(self.partition.starts[th, level])
            hi = min(int(self.partition.starts[th + 1, level]) + 1, m)
            if hi > lo:
                out[lo:hi] += buf[lo + th : hi + th]
        return out

    def _children(self, level: int, parent: int, th: int) -> range:
        """Algorithm 5 lines 1-2: the thread-clipped child range of
        ``parent`` at ``level`` (children live at ``level``).

        Internal levels admit the shared boundary node (+1); the leaf
        level stays half-open so every non-zero is consumed once.
        """
        csf, part = self.csf, self.partition
        lo = max(int(part.starts[th, level]), int(csf.ptr[level - 1][parent]))
        hi_thread = int(part.starts[th + 1, level])
        if level < csf.ndim - 1:
            hi_thread += 1  # boundary node shared with the next thread
        hi = min(hi_thread, int(csf.ptr[level - 1][parent + 1]))
        return range(lo, max(lo, hi))

    def _owns(self, level: int, node: int, th: int) -> bool:
        """Half-open ownership for exactly-once actions."""
        part = self.partition
        return part.starts[th, level] <= node < part.starts[th + 1, level]

    # ------------------------------------------------------------------
    # mode 0: upward contraction, memo writes (Algorithm 5 with u = 0)
    # ------------------------------------------------------------------
    def mode0(self, factors: Sequence[np.ndarray]) -> np.ndarray:
        csf, rank = self.csf, self.rank
        lf = self._level_factors(factors)
        d = csf.ndim
        self.memo_buffers = {
            lvl: np.zeros((csf.fiber_counts[lvl] + self.num_threads, rank))
            for lvl in self.plan.save_levels
        }
        out = np.zeros((csf.level_shape(0), rank))

        def contract(level: int, node: int, th: int) -> np.ndarray:
            """t_level[node]: this thread's partial contraction below."""
            if level == d - 1:
                return csf.values[node] * lf[d - 1][csf.idx[d - 1][node]]
            t = np.zeros(rank)
            for child in self._children(level + 1, node, th):
                t_child = contract(level + 1, child, th)
                if level + 1 < d - 1:
                    if self.plan.saves(level + 1):
                        self.memo_buffers[level + 1][child + th] += t_child
                    t += t_child * lf[level + 1][csf.idx[level + 1][child]]
                else:
                    t += t_child
            return t

        for th in range(self.num_threads):
            part = self.partition
            lo = int(part.starts[th, 0])
            hi = min(int(part.starts[th + 1, 0]) + 1, csf.fiber_counts[0])
            for node in range(lo, hi):
                t0 = contract(0, node, th)
                if self.plan.saves(0):  # never true (level 0 unsaveable)
                    raise AssertionError
                out[csf.idx[0][node]] += t0
        return out

    # ------------------------------------------------------------------
    # modes u > 0 (Algorithms 6-8)
    # ------------------------------------------------------------------
    def mode_level(self, factors: Sequence[np.ndarray], u: int) -> np.ndarray:
        csf, rank = self.csf, self.rank
        d = csf.ndim
        if u == 0:
            return self.mode0(factors)
        lf = self._level_factors(factors)
        out = np.zeros((csf.level_shape(u), rank))
        source = self.plan.source_level(u, d) if u < d - 1 else d - 1
        memo = (
            self._merged_memo(source)
            if source < d - 1 and source in self.memo_buffers
            else None
        )
        if source < d - 1 and memo is None:
            raise RuntimeError("mode0 has not populated the saved partials")

        def contract_from(level: int, node: int, th: int) -> np.ndarray:
            """Partial t_level[node] rebuilt from the source downward."""
            if level == source:
                if memo is not None:
                    # Complete value: consume under half-open ownership.
                    return (
                        memo[node].copy()
                        if self._owns(level, node, th)
                        else np.zeros(rank)
                    )
                # source == d-1: leaves (disjoint by partition).
                return csf.values[node] * lf[d - 1][csf.idx[d - 1][node]]
            t = np.zeros(rank)
            for child in self._children(level + 1, node, th):
                t_child = contract_from(level + 1, child, th)
                if level + 1 < d - 1:
                    # mTTV step: fold in the child level's factor row.
                    # (Leaf children already carry val · A^(leaf)[l,:].)
                    t_child = t_child * lf[level + 1][csf.idx[level + 1][child]]
                t += t_child
            return t

        # The k vector extends with the *current* node's factor row before
        # descending (k_i = k_{i-1} ⊙ A^(i)[idx], Alg. 5 line 7); the
        # update at level u is Ā^(u)[idx] += k_{u-1} ⊙ t_u (line 18).
        def descend(level: int, node: int, k: np.ndarray, th: int) -> None:
            if level == u:
                if u == d - 1:
                    out[csf.idx[u][node]] += csf.values[node] * k
                elif source == u:
                    if self._owns(u, node, th):
                        out[csf.idx[u][node]] += k * memo[node]
                else:
                    out[csf.idx[u][node]] += k * contract_from(u, node, th)
                return
            k_here = k * lf[level][csf.idx[level][node]]
            for child in self._children(level + 1, node, th):
                descend(level + 1, child, k_here, th)

        for th in range(self.num_threads):
            part = self.partition
            lo = int(part.starts[th, 0])
            hi = min(int(part.starts[th + 1, 0]) + 1, csf.fiber_counts[0])
            for node in range(lo, hi):
                descend(0, node, np.ones(rank), th)
        return out

    def iteration_results(self, factors: Sequence[np.ndarray]):
        """All d MTTKRPs in level order (mode0 first), like the engine."""
        out = [(self.csf.mode_order[0], self.mode0(factors))]
        for u in range(1, self.csf.ndim):
            out.append((self.csf.mode_order[u], self.mode_level(factors, u)))
        return out
