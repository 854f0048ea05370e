"""Coordinate (COO) representation of sparse tensors.

The COO tensor is the interchange format of this library: FROSTT ``.tns``
files parse into it, synthetic generators emit it, and the CSF builder
(:mod:`repro.tensor.csf`) consumes it.  It stores one ``(d, nnz)`` integer
index matrix plus an ``(nnz,)`` value vector.

Design notes
------------
* Indices are kept as ``int64`` throughout.  Mode lengths in the paper's
  dataset reach 38M (freebase_sampled) and linearized orderings multiply
  mode lengths together, so 32-bit offsets are not safe.
* All structural operations (deduplication, sorting, permutation) are
  vectorized; nothing in this module loops per non-zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

__all__ = ["CooTensor", "nonfinite_values"]


def nonfinite_values(values: np.ndarray) -> Optional[str]:
    """Describe the NaN and infinite entries of ``values``: how many, and
    the first one's position; ``None`` when every value is finite."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size == 0:
        return None
    return (
        f"{bad.size} of {values.size} values are not finite "
        f"(first: {values[bad[0]]} at position {bad[0]})"
    )


@dataclass(frozen=True)
class CooTensor:
    """A sparse tensor in coordinate format.

    Parameters
    ----------
    indices:
        Integer array of shape ``(ndim, nnz)``; column ``p`` holds the
        multi-index of non-zero ``p``.
    values:
        Float array of shape ``(nnz,)``.
    shape:
        The dense extent of every mode.

    The constructor does *not* sort or deduplicate; use
    :meth:`from_arrays` for validated construction.
    """

    indices: np.ndarray
    values: np.ndarray
    shape: Tuple[int, ...]

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_arrays(
        cls,
        indices: np.ndarray,
        values: np.ndarray,
        shape: Sequence[int] | None = None,
        *,
        sum_duplicates: bool = True,
    ) -> "CooTensor":
        """Build a canonical COO tensor from raw index/value arrays.

        Indices are validated against ``shape`` (inferred as ``max+1`` per
        mode when omitted), duplicates are summed, and entries are sorted
        lexicographically by mode 0, then 1, ...

        Raises
        ------
        ValueError
            If shapes disagree, indices are negative, indices exceed
            ``shape``, or a value is NaN or infinite.
        """
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        values = np.ascontiguousarray(values, dtype=np.float64)
        if indices.ndim != 2:
            raise ValueError(f"indices must be 2-D (ndim, nnz), got {indices.shape}")
        ndim, nnz = indices.shape
        if values.shape != (nnz,):
            raise ValueError(
                f"values shape {values.shape} does not match nnz={nnz}"
            )
        nonfinite = nonfinite_values(values)
        if nonfinite is not None:
            raise ValueError(nonfinite)
        if nnz and indices.min() < 0:
            raise ValueError("negative indices are not allowed")
        if shape is None:
            shape = tuple(int(indices[m].max()) + 1 if nnz else 1 for m in range(ndim))
        else:
            shape = tuple(int(s) for s in shape)
            if len(shape) != ndim:
                raise ValueError(
                    f"shape has {len(shape)} modes but indices have {ndim}"
                )
            for m in range(ndim):
                if nnz and indices[m].max() >= shape[m]:
                    raise ValueError(
                        f"index {indices[m].max()} out of bounds for mode {m} "
                        f"of length {shape[m]}"
                    )
        tensor = cls(indices, values, shape)
        if sum_duplicates:
            tensor = tensor._canonicalize()
        return tensor

    def _canonicalize(self) -> "CooTensor":
        """Sort lexicographically and merge duplicate coordinates."""
        if self.nnz == 0:
            return self
        # np.lexsort sorts by the *last* key first; feed modes reversed so
        # mode 0 is the primary key.
        order = np.lexsort(self.indices[::-1])
        idx = self.indices[:, order]
        val = self.values[order]
        # Duplicate detection on the sorted stream.
        same = np.all(idx[:, 1:] == idx[:, :-1], axis=0)
        if same.any():
            # Segment ids: a new segment starts wherever the coordinate
            # differs from its predecessor.
            seg = np.concatenate(([0], np.cumsum(~same)))
            n_seg = seg[-1] + 1
            first = np.concatenate(([True], ~same))
            idx = idx[:, first]
            val = np.bincount(seg, weights=val, minlength=n_seg)
        return CooTensor(idx, val, self.shape)

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def ndim(self) -> int:
        """Number of modes."""
        return len(self.shape)

    @property
    def nnz(self) -> int:
        """Number of stored non-zeros."""
        return self.values.shape[0]

    @property
    def density(self) -> float:
        """nnz divided by the dense size (may underflow to 0.0 for huge shapes)."""
        dense = float(np.prod([float(s) for s in self.shape]))
        return self.nnz / dense if dense else 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CooTensor(shape={self.shape}, nnz={self.nnz}, "
            f"density={self.density:.3e})"
        )

    # ------------------------------------------------------------------
    # structural transforms
    # ------------------------------------------------------------------
    def permute_modes(self, perm: Sequence[int]) -> "CooTensor":
        """Return a tensor with modes reordered by ``perm``.

        ``perm[k]`` names the original mode that becomes mode ``k``. The
        result is re-canonicalized (sorted in the new mode order).
        """
        perm = list(perm)
        if sorted(perm) != list(range(self.ndim)):
            raise ValueError(f"{perm} is not a permutation of 0..{self.ndim - 1}")
        idx = self.indices[perm]
        shape = tuple(self.shape[m] for m in perm)
        return CooTensor.from_arrays(idx, self.values, shape, sum_duplicates=False)

    def sorted_by(self, mode_order: Sequence[int]) -> "CooTensor":
        """Return a copy whose entries are sorted lexicographically in
        ``mode_order`` *without* relabelling the modes."""
        mode_order = list(mode_order)
        if sorted(mode_order) != list(range(self.ndim)):
            raise ValueError(
                f"{mode_order} is not a permutation of 0..{self.ndim - 1}"
            )
        keys = self.indices[mode_order[::-1]]
        order = np.lexsort(keys)
        return CooTensor(self.indices[:, order], self.values[order], self.shape)

    # ------------------------------------------------------------------
    # dense interop (test oracles; only for small tensors)
    # ------------------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        """Materialize the dense ndarray.  Intended for test oracles only."""
        size = int(np.prod(self.shape))
        if size > 50_000_000:
            raise MemoryError(
                f"refusing to densify a tensor with {size} dense entries"
            )
        if self.nnz == 0:
            return np.zeros(self.shape, dtype=np.float64)
        # Duplicate-safe scatter via bincount on the raveled coordinates —
        # the segmented-reduce idiom of repro.core.csf_kernels, orders of
        # magnitude faster than the per-element np.add.at it replaced.
        flat = np.ravel_multi_index(tuple(self.indices), self.shape)
        out = np.bincount(flat, weights=self.values, minlength=size)
        return out.reshape(self.shape)

    @classmethod
    def from_dense(cls, array: np.ndarray, *, tol: float = 0.0) -> "CooTensor":
        """Extract the sparse structure of a dense ndarray."""
        array = np.asarray(array, dtype=np.float64)
        mask = np.abs(array) > tol
        idx = np.array(np.nonzero(mask), dtype=np.int64)
        return cls.from_arrays(idx, array[mask], array.shape)

    # ------------------------------------------------------------------
    # statistics used by mode-ordering heuristics
    # ------------------------------------------------------------------
    def nonzero_slices(self, mode: int) -> int:
        """Number of distinct indices appearing in ``mode``."""
        return int(np.unique(self.indices[mode]).size)

    def fiber_count(self, mode_order: Sequence[int], level: int) -> int:
        """Number of distinct fibers at ``level`` of a CSF built in
        ``mode_order``.

        Level 0 counts distinct root indices; level ``d-1`` equals ``nnz``
        (each non-zero is its own leaf).  This is the quantity ``m_i`` used
        by the Section IV data-movement model.
        """
        mode_order = list(mode_order)
        if level < 0 or level >= self.ndim:
            raise ValueError(f"level {level} out of range for ndim={self.ndim}")
        if level == self.ndim - 1:
            return self.nnz
        sub = self.indices[mode_order[: level + 1]]
        return int(np.unique(sub, axis=1).shape[1])

    def average_fiber_length(self, mode_order: Sequence[int], level: int) -> float:
        """Average branching factor between CSF level ``level-1`` and
        ``level`` (for ``level==0``: root fiber count itself)."""
        if level == 0:
            return float(self.fiber_count(mode_order, 0))
        return self.fiber_count(mode_order, level) / max(
            1, self.fiber_count(mode_order, level - 1)
        )

    # ------------------------------------------------------------------
    # iteration helpers
    # ------------------------------------------------------------------
    def iter_entries(self) -> Iterable[Tuple[Tuple[int, ...], float]]:
        """Yield ``(multi_index, value)`` pairs.  Test/debug use only."""
        for p in range(self.nnz):
            yield tuple(int(i) for i in self.indices[:, p]), float(self.values[p])

    def astype(self, dtype) -> "CooTensor":
        """Return a copy with values cast to ``dtype``."""
        return CooTensor(self.indices, self.values.astype(dtype), self.shape)

    def scale(self, factor: float) -> "CooTensor":
        """Return a copy with all values multiplied by ``factor``."""
        return CooTensor(self.indices, self.values * factor, self.shape)

    def norm(self) -> float:
        """Frobenius norm of the stored values."""
        return float(np.linalg.norm(self.values))
