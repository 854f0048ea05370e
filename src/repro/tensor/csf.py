"""Compressed Sparse Fiber (CSF) storage.

The CSF format (Smith et al., SPLATT) stores a sparse tensor as a forest:
level ``i`` of the tree corresponds to mode ``mode_order[i]`` and holds one
node per distinct *fiber prefix*.  Each internal node records the index of
its fiber in that mode plus a pointer range delimiting its children on the
next level; leaves additionally carry the non-zero values.

This module provides:

* :class:`CsfTensor` — immutable CSF built from a :class:`~repro.tensor.coo.CooTensor`
  in any mode order, with the per-level arrays used by every kernel in
  :mod:`repro.core`:

  - ``idx[i]`` — ``(m_i,)`` fiber indices at level ``i``,
  - ``ptr[i]`` — ``(m_i + 1,)`` child ranges into level ``i+1`` (for
    ``i < d-1``),
  - ``values`` — ``(nnz,)`` leaf values.

* ``find_parent`` — the ``find_parent_CSF`` primitive of Algorithm 3 (thread
  start discovery), vectorized over query positions.

* fiber counts ``m_i`` and byte-footprint accounting, both inputs to the
  Section IV data-movement model.

Vectorized construction
-----------------------
The builder never loops over non-zeros.  For each level it detects "new
fiber starts" on the lexicographically sorted index stream with a single
vectorized comparison, then compresses with ``flatnonzero``/``searchsorted``.
This is the same strategy SPLATT's ``csf_alloc`` uses, expressed in NumPy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from .coo import CooTensor

__all__ = ["CsfTensor", "default_mode_order", "root_order"]


def default_mode_order(shape: Sequence[int]) -> Tuple[int, ...]:
    """The common CSF heuristic: sort modes by increasing length.

    Ties are broken by original mode number so the order is deterministic.
    The paper uses this ordering as the base configuration and then decides
    whether to swap the *last two* modes (Section II-E).
    """
    return tuple(sorted(range(len(shape)), key=lambda m: (shape[m], m)))


def root_order(shape: Sequence[int], root: int) -> Tuple[int, ...]:
    """The CSF order rooted at mode ``root``, the other modes by
    increasing length (ties by mode number) so the tree below the root
    compresses as much as the heuristic allows."""
    return (root, *(m for m in default_mode_order(shape) if m != root))


@dataclass(frozen=True)
class CsfTensor:
    """A sparse tensor stored as a Compressed Sparse Fiber tree.

    Attributes
    ----------
    mode_order:
        ``mode_order[i]`` is the original tensor mode stored at tree level
        ``i`` (level 0 = root/slice mode, level ``d-1`` = leaf mode).
    idx:
        Per-level fiber index arrays; ``idx[i][n]`` is the coordinate (in
        mode ``mode_order[i]``) of node ``n`` at level ``i``.
    ptr:
        Per-level child pointers; children of node ``n`` at level ``i``
        occupy ``idx[i+1][ptr[i][n]:ptr[i][n+1]]``.  ``len(ptr) == d - 1``.
    values:
        Leaf values aligned with ``idx[d-1]``.
    shape:
        Dense extents in the *original* mode numbering.
    """

    mode_order: Tuple[int, ...]
    idx: List[np.ndarray]
    ptr: List[np.ndarray]
    values: np.ndarray
    shape: Tuple[int, ...]
    # Cached fiber counts (m_i in the paper); derived, not part of identity.
    _fiber_counts: Tuple[int, ...] = field(default=(), compare=False)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_coo(
        cls, coo: CooTensor, mode_order: Sequence[int] | None = None
    ) -> "CsfTensor":
        """Build a CSF tree from a COO tensor in ``mode_order``.

        When ``mode_order`` is omitted the increasing-mode-length heuristic
        of :func:`default_mode_order` is used.
        """
        if mode_order is None:
            mode_order = default_mode_order(coo.shape)
        mode_order = tuple(int(m) for m in mode_order)
        d = coo.ndim
        if sorted(mode_order) != list(range(d)):
            raise ValueError(f"{mode_order} is not a permutation of 0..{d - 1}")

        coo = coo.sorted_by(mode_order)
        nnz = coo.nnz
        stream = coo.indices[list(mode_order)]  # (d, nnz) in level order

        if nnz == 0:
            idx = [np.empty(0, dtype=np.int64) for _ in range(d)]
            ptr = [np.zeros(1, dtype=np.int64) for _ in range(d - 1)]
            return cls(
                mode_order, idx, ptr, np.empty(0, dtype=np.float64), coo.shape,
                tuple(0 for _ in range(d)),
            )

        # new_fiber[i][p] is True when non-zero p starts a new fiber at
        # level i, i.e. its prefix (levels 0..i) differs from p-1's.
        idx: List[np.ndarray] = [None] * d  # type: ignore[list-item]
        ptr: List[np.ndarray] = [None] * (d - 1)  # type: ignore[list-item]
        fiber_counts: List[int] = [0] * d

        # prefix_change accumulates "differs at or above this level".
        prefix_change = np.zeros(nnz, dtype=bool)
        prefix_change[0] = True
        starts_per_level: List[np.ndarray] = []
        for i in range(d):
            if i < d - 1:
                level_diff = np.empty(nnz, dtype=bool)
                level_diff[0] = True
                level_diff[1:] = stream[i, 1:] != stream[i, :-1]
                prefix_change = prefix_change | level_diff
                starts = np.flatnonzero(prefix_change)
            else:
                # Leaf level: every non-zero is a node.
                starts = np.arange(nnz, dtype=np.int64)
            starts_per_level.append(starts)
            idx[i] = stream[i, starts].copy()
            fiber_counts[i] = int(starts.size)

        # ptr[i] maps level-i node n to its child range at level i+1: the
        # children are the level-(i+1) starts lying inside node n's nnz span.
        for i in range(d - 1):
            spans = np.append(starts_per_level[i], nnz)
            ptr[i] = np.searchsorted(starts_per_level[i + 1], spans).astype(np.int64)

        return cls(
            mode_order, idx, ptr, coo.values.copy(), coo.shape,
            tuple(fiber_counts),
        )

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def ndim(self) -> int:
        """Number of modes / tree depth."""
        return len(self.shape)

    @property
    def nnz(self) -> int:
        """Number of stored non-zeros (leaf count)."""
        return self.values.shape[0]

    @property
    def fiber_counts(self) -> Tuple[int, ...]:
        """``m_i`` for every level: the number of fibers (tree nodes)."""
        if self._fiber_counts:
            return self._fiber_counts
        return tuple(int(a.shape[0]) for a in self.idx)

    def level_shape(self, level: int) -> int:
        """Dense extent of the mode stored at ``level``."""
        return self.shape[self.mode_order[level]]

    def num_children(self, level: int) -> np.ndarray:
        """Per-node child counts at ``level`` (valid for ``level < d-1``)."""
        return np.diff(self.ptr[level])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CsfTensor(order={self.mode_order}, shape={self.shape}, "
            f"fibers={self.fiber_counts})"
        )

    # ------------------------------------------------------------------
    # navigation
    # ------------------------------------------------------------------
    def find_parent(self, level: int, positions: np.ndarray | int) -> np.ndarray:
        """``find_parent_CSF`` of Algorithm 3, vectorized.

        Maps positions at ``level + 1`` to the index of the owning node at
        ``level``:  ``parent = max{n : ptr[level][n] <= pos}``.

        Accepts positions equal to ``m_{level+1}`` (one-past-the-end), which
        map to ``m_level`` — convenient for converting *exclusive* thread
        end boundaries.
        """
        pos = np.atleast_1d(np.asarray(positions, dtype=np.int64))
        if level < 0 or level >= self.ndim - 1:
            raise ValueError(f"level {level} has no child level")
        # ptr is non-decreasing with ptr[0] == 0; a position p belongs to the
        # node n with ptr[n] <= p < ptr[n+1].  side="right" makes exact hits
        # on ptr[n] resolve to n, and p == nnz resolves to m_level
        # (one-past-the-end), which Algorithm 3 uses for the final thread.
        return np.searchsorted(self.ptr[level], pos, side="right") - 1

    def leaf_span(self, level: int, node: int) -> Tuple[int, int]:
        """Half-open leaf (non-zero) range covered by ``node`` at ``level``."""
        lo, hi = int(node), int(node) + 1
        for i in range(level, self.ndim - 1):
            lo = int(self.ptr[i][lo])
            hi = int(self.ptr[i][hi])
        return lo, hi

    def expand_to_level(self, src_level: int, dst_level: int, arr: np.ndarray) -> np.ndarray:
        """Repeat a per-node array at ``src_level`` so it aligns with nodes
        at the deeper ``dst_level`` (each node's value is copied to all of
        its descendants).  Used by the downward (k-vector) sweep."""
        if dst_level < src_level:
            raise ValueError("dst_level must be >= src_level")
        out = arr
        for i in range(src_level, dst_level):
            out = np.repeat(out, self.num_children(i), axis=0)
        return out

    # ------------------------------------------------------------------
    # conversions & accounting
    # ------------------------------------------------------------------
    def to_coo(self) -> CooTensor:
        """Reconstruct the COO tensor (original mode numbering)."""
        d = self.ndim
        cols = [self.expand_to_level(i, d - 1, self.idx[i]) for i in range(d)]
        level_idx = np.vstack(cols)
        # Undo the mode permutation.
        original = np.empty_like(level_idx)
        for lvl, mode in enumerate(self.mode_order):
            original[mode] = level_idx[lvl]
        return CooTensor.from_arrays(
            original, self.values, self.shape, sum_duplicates=False
        )

    def index_bytes(self) -> int:
        """Bytes used by the structural (idx + ptr) arrays."""
        total = sum(a.nbytes for a in self.idx)
        total += sum(p.nbytes for p in self.ptr)
        return int(total)

    def value_bytes(self) -> int:
        """Bytes used by the leaf value array."""
        return int(self.values.nbytes)

    def total_bytes(self) -> int:
        """Total CSF footprint in bytes."""
        return self.index_bytes() + self.value_bytes()

    # ------------------------------------------------------------------
    # reordered views
    # ------------------------------------------------------------------
    def with_mode_order(self, mode_order: Sequence[int]) -> "CsfTensor":
        """Rebuild the CSF in a different mode order (via COO round-trip)."""
        return CsfTensor.from_coo(self.to_coo(), mode_order)

    def swapped_last_two(self) -> "CsfTensor":
        """Rebuild with the last two levels exchanged (Section II-E)."""
        order = list(self.mode_order)
        order[-1], order[-2] = order[-2], order[-1]
        return self.with_mode_order(order)
