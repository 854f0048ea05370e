"""The flat-array kernel ABI: the inner loops of the CSF sweeps.

The segmented MTTKRP / mTTV inner loops of :mod:`repro.core.csf_kernels`,
:mod:`repro.core.mttkrp`, :mod:`repro.ops` and the baselines are written
against this small set of functions, each taking **only ndarrays and
scalars** (CSF pointer/index arrays, factor matrices, output buffers,
plan integers) — no objects with methods.  Every function is one
vectorized NumPy expression.

The callers charge traffic in their own wrappers, never in here, so the
counted model describes the paper's kernels whatever implements these
loops.  That makes the ABI the seam for replacing the per-call index
work (the ``reduceat`` boundaries, the scatter's sort) with operators
built once at plan time: the wrappers and their charges stay as they
are.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "segment_reduce_rows",
    "segment_sum_rows",
    "scatter_rows_add",
    "gather_multiply_rows",
    "value_gather_rows",
    "scale_rows_by_values",
    "take_factor_rows",
    "repeat_rows",
    "parent_of",
]


def segment_reduce_rows(rows: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Segmented row sums: ``out[s] = rows[starts[s]:starts[s+1]].sum(0)``
    (last segment runs to the end).  The mTTV reduce step."""
    return np.add.reduceat(rows, starts, axis=0)


def segment_sum_rows(data: np.ndarray, seg: np.ndarray, n_seg: int) -> np.ndarray:
    """Sum rows of ``data`` into ``n_seg`` buckets given *sorted* segment
    ids (the PartialTensor grouping reduce)."""
    rank = data.shape[1]
    out = np.zeros((n_seg, rank))
    # seg is sorted, so reduceat on segment starts is both exact and fast.
    if data.shape[0]:
        starts = np.flatnonzero(np.diff(seg, prepend=-1))
        sums = np.add.reduceat(data, starts, axis=0)
        out[seg[starts]] = sums
    return out


def scatter_rows_add(out: np.ndarray, idx: np.ndarray, rows: np.ndarray) -> None:
    """``out[idx[p], :] += rows[p, :]`` with duplicate indices: stable
    sort by target row, one segmented reduce, one add per touched row."""
    if idx.size == 0:
        return
    order = np.argsort(idx, kind="stable")
    sidx = idx[order]
    starts = np.flatnonzero(np.diff(sidx, prepend=-1))
    sums = np.add.reduceat(rows[order], starts, axis=0)
    out[sidx[starts]] += sums


def gather_multiply_rows(
    rows: np.ndarray, factor: np.ndarray, idx: np.ndarray, lo: int, hi: int
) -> np.ndarray:
    """``rows * factor[idx[lo:hi]]`` — the per-level gather-multiply of
    the upward/downward sweeps (``rows`` is already ``(hi-lo, R)``)."""
    return rows * factor[idx[lo:hi]]


def value_gather_rows(
    values: np.ndarray, factor: np.ndarray, idx: np.ndarray, lo: int, hi: int
) -> np.ndarray:
    """``values[lo:hi, None] * factor[idx[lo:hi]]`` — the TTM seed of an
    upward sweep (tensor values times leaf-level factor rows)."""
    return values[lo:hi, None] * factor[idx[lo:hi]]


def scale_rows_by_values(
    values: np.ndarray, rows: np.ndarray, lo: int, hi: int
) -> np.ndarray:
    """``values[lo:hi, None] * rows`` — the leaf-mode MTTV kernel
    (``rows`` is already ``(hi-lo, R)``)."""
    return values[lo:hi, None] * rows


def take_factor_rows(
    factor: np.ndarray, idx: np.ndarray, lo: int, hi: int
) -> np.ndarray:
    """``factor[idx[lo:hi]]`` — a plain factor-row gather."""
    return factor[idx[lo:hi]]


def repeat_rows(rows: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``np.repeat(rows, counts, axis=0)`` — the downward-``k`` expansion
    by per-node child counts."""
    return np.repeat(rows, counts, axis=0)


def parent_of(ptr: np.ndarray, pos: int) -> int:
    """Index of the node at the *parent* level whose half-open child span
    in ``ptr`` contains position ``pos``."""
    return int(np.searchsorted(ptr, pos, side="right")) - 1
