"""Work partitioning across simulated threads.

Two strategies from the paper:

* :func:`slice_partition` — the prior-work scheme (SPLATT, AdaTM, TACO):
  contiguous *root-mode slices* are dealt to threads.  When the root mode
  has fewer slices than threads, the extra threads idle; when non-zeros
  are skewed across slices, threads are imbalanced (the vast-2015 tensors
  have 2 root slices and a 1674% imbalance — Section II-D).

* :func:`nnz_partition` — STeF's fine-grained scheme (Algorithm 3): the
  leaf level is cut into equal non-zero chunks and each cut is projected
  upward with ``find_parent_CSF``, yielding per-thread start positions at
  every CSF level.  Threads may *share* the boundary node at each level;
  those shared rows are the only possible write conflicts, handled by
  boundary replication (:mod:`repro.parallel.executor`).

Both return a :class:`ThreadPartition` so kernels and the load-imbalance
analysis consume one interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..tensor.csf import CsfTensor

__all__ = ["ThreadPartition", "slice_partition", "nnz_partition"]


@dataclass(frozen=True)
class ThreadPartition:
    """Per-thread start positions at every CSF level.

    ``starts`` has shape ``(T + 1, d)``; thread ``th`` owns

    * leaves ``starts[th, d-1] : starts[th+1, d-1]`` (disjoint), and
    * at level ``i < d-1``, the node range
      ``starts[th, i] .. starts[th+1, i]`` *inclusive* of the right
      boundary node, which may be shared with thread ``th+1``.

    ``strategy`` records which scheme produced it (reports/ablation).
    """

    starts: np.ndarray
    strategy: str

    @property
    def num_threads(self) -> int:
        """Number of threads the plan feeds."""
        return self.starts.shape[0] - 1

    @property
    def ndim(self) -> int:
        """CSF depth the plan refers to."""
        return self.starts.shape[1]

    def leaf_range(self, th: int) -> Tuple[int, int]:
        """Half-open leaf (non-zero) range owned by thread ``th``."""
        d = self.ndim
        return int(self.starts[th, d - 1]), int(self.starts[th + 1, d - 1])

    def node_range(self, th: int, level: int) -> Tuple[int, int]:
        """Half-open node range *touched* by thread ``th`` at ``level``.

        The right end is exclusive but covers the shared boundary node:
        ``hi = starts[th+1, level] + 1`` when the boundary node is split
        between ``th`` and ``th+1`` (i.e. the next thread starts inside
        it), else ``starts[th+1, level]``.
        """
        lo = int(self.starts[th, level])
        hi = int(self.starts[th + 1, level])
        if level < self.ndim - 1:
            # Thread th+1 starting mid-node means th also touches that node.
            if self._splits_node(th + 1, level):
                hi += 1
        return lo, hi

    def _splits_node(self, th: int, level: int) -> bool:
        """True when boundary ``th`` (0..T) cuts through a node at
        ``level`` rather than landing exactly on a node start."""
        if th == 0 or th == self.num_threads:
            return False
        if level == self.ndim - 1:
            return False
        # Boundary th cuts node starts[th, level] iff its child-level
        # position is not that node's first child — equivalently, the
        # child-level boundary is strictly inside the node's child span.
        return bool(self.starts[th, level + 1] > self._node_child_start(th, level))

    def _node_child_start(self, th: int, level: int) -> int:
        raise NotImplementedError  # replaced at construction; see below

    def shared_boundary_nodes(self, csf: CsfTensor) -> List[List[int]]:
        """For each level, the node ids split between adjacent threads —
        the rows that need replication.  At most ``T - 1`` per level, as
        the paper observes (Section II-D says at most ``T``)."""
        out: List[List[int]] = []
        d = self.ndim
        for level in range(d - 1):
            shared = []
            for th in range(1, self.num_threads):
                node = int(self.starts[th, level])
                if node >= csf.fiber_counts[level]:
                    continue
                child_lo = int(csf.ptr[level][node])
                if int(self.starts[th, level + 1]) > child_lo:
                    shared.append(node)
            out.append(sorted(set(shared)))
        return out

    def per_thread_leaf_counts(self) -> np.ndarray:
        """Leaves owned by each thread — the load-balance statistic."""
        d = self.ndim
        return np.diff(self.starts[:, d - 1])

    def level_loads(self, level: int) -> np.ndarray:
        """Nodes *owned* by each thread at ``level`` (boundary nodes are
        attributed to the earlier-starting thread, so the counts tile
        ``[0, m_level)`` exactly)."""
        if not 0 <= level < self.ndim:
            raise ValueError(f"level {level} out of range")
        return np.diff(self.starts[:, level])

    def load_factor(self, level: int) -> float:
        """``max load / mean load`` of the per-thread owned node counts at
        ``level`` — the stretch factor of a kernel whose work is dealt by
        that level's node ranges."""
        loads = self.level_loads(level)
        mean = float(loads.mean()) if loads.size else 0.0
        if mean == 0:
            return 1.0
        return float(loads.max()) / mean

    @property
    def max_over_mean(self) -> float:
        """``max load / mean load`` over all threads: the factor by which
        this schedule stretches a perfectly-parallel execution (1.0 =
        perfect balance; idle threads inflate it)."""
        return self.load_factor(self.ndim - 1)


def _finalize(starts: np.ndarray, csf: CsfTensor, strategy: str) -> ThreadPartition:
    part = ThreadPartition(starts=starts, strategy=strategy)
    # Bind the node-child lookup to this CSF (used by _splits_node).
    def node_child_start(th: int, level: int) -> int:
        node = int(starts[th, level])
        if node >= csf.fiber_counts[level]:
            return csf.fiber_counts[level + 1]
        return int(csf.ptr[level][node])

    object.__setattr__(part, "_node_child_start", node_child_start)
    return part


def nnz_partition(csf: CsfTensor, num_threads: int) -> ThreadPartition:
    """Algorithm 3: equal-nnz thread starts projected up the CSF tree.

    ``thread_start[th][d-1] = th * nnz / T`` and, for levels ``d-2 .. 0``,
    ``thread_start[th][i] = find_parent_CSF(thread_start[th][i+1])``.
    """
    if num_threads < 1:
        raise ValueError("num_threads must be >= 1")
    d = csf.ndim
    nnz = csf.nnz
    starts = np.zeros((num_threads + 1, d), dtype=np.int64)
    starts[:, d - 1] = (np.arange(num_threads + 1, dtype=np.int64) * nnz) // num_threads
    for level in range(d - 2, -1, -1):
        starts[:, level] = csf.find_parent(level, starts[:, level + 1])
    # The end sentinel must be one-past-the-last node at every level.
    for level in range(d):
        starts[num_threads, level] = csf.fiber_counts[level]
    return _finalize(starts, csf, "nnz")


def slice_partition(csf: CsfTensor, num_threads: int) -> ThreadPartition:
    """Prior-work partitioning: deal contiguous root slices to threads.

    Threads beyond the root slice count receive empty ranges (the idle
    threads of Fig. 2a).  Slice boundaries never split a node, so no
    replication is needed — at the price of imbalance.
    """
    if num_threads < 1:
        raise ValueError("num_threads must be >= 1")
    d = csf.ndim
    n_slices = csf.fiber_counts[0]
    starts = np.zeros((num_threads + 1, d), dtype=np.int64)
    root_bounds = np.minimum(
        ((np.arange(num_threads + 1, dtype=np.int64) * n_slices) // num_threads),
        n_slices,
    )
    starts[:, 0] = root_bounds
    for level in range(1, d):
        # A slice boundary is always a node start, so projecting down is a
        # plain pointer lookup (the +1 sentinel row maps past-the-end).
        starts[:, level] = csf.ptr[level - 1][starts[:, level - 1]]
    return _finalize(starts, csf, "slice")
