"""The flat-array kernel ABI: the inner loops of the CSF sweeps.

The segmented MTTKRP / mTTV inner loops of :mod:`repro.core.csf_kernels`,
:mod:`repro.core.mttkrp`, :mod:`repro.ops` and the baselines are written
against this small set of functions.  Their arguments are ndarrays,
scalars and the prebuilt reduction operators below; every function is
one vectorized NumPy (or SciPy sparse) expression.

The two reductions — the segmented mTTV sums of an upward sweep and the
conflicted scatter into ``Ā^(u)`` — are products with CSR indicator
operators (:func:`segment_operator`, :func:`scatter_operator`).  At the
leaf level the operators carry the tensor values as their ``data``
(:func:`leaf_ttm_operator`, :func:`leaf_scatter_operator`), so the value
multiply happens inside the product and no kernel builds nnz-row
temporaries.  Their index arrays depend only on the CSF and the thread
partition, so engines build them once at plan time and every call is a
single sparse-dense product: no per-call segment search, no per-call
sort.  A CSR row adds ``data[p] * rows[col[p]]`` to a running sum from
zero, left to right, so each segment and each scatter target
accumulates in position order on every execution backend — and since no
row depends on another, operators laid along a diagonal compute each
part's rows with the same bits.

The callers charge traffic in their own wrappers, never in here, so the
counted model describes the paper's kernels whatever implements these
loops.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

import numpy as np
from scipy.sparse import csr_array

__all__ = [
    "OperatorBasis",
    "ScatterOperator",
    "operator_basis",
    "csr_operator",
    "segment_operator",
    "scatter_operator",
    "leaf_ttm_operator",
    "leaf_scatter_operator",
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

#: Index dtype of every operator: half the bytes of int64 and the
#: faster SciPy product; positions never exceed a tensor's nnz.
INDEX_DTYPE = np.int32


class OperatorBasis(NamedTuple):
    """The two vectors every operator of one engine views: ``ones`` is
    each operator's ``data`` and ``cols`` each segment operator's column
    indices, so a built operator owns only its row pointers (and, for a
    scatter, its sort order and targets).  An operator wider than the
    basis gets vectors of its own."""

    ones: np.ndarray
    cols: np.ndarray


def operator_basis(capacity: int) -> OperatorBasis:
    """A basis for operators over at most ``capacity`` input rows."""
    return OperatorBasis(np.ones(capacity), np.arange(capacity, dtype=INDEX_DTYPE))


def csr_operator(
    data: np.ndarray, indices: np.ndarray, indptr: np.ndarray, n_cols: int
) -> csr_array:
    """A CSR array that keeps all three arrays as given.  The SciPy
    constructor copies a view much shorter than its base, which would
    give every operator its own copy of the basis (and a process worker
    a copy per call), so the arrays are set on an empty shell instead."""
    op = csr_array((indptr.shape[0] - 1, n_cols))
    op.data, op.indices, op.indptr = data, indices, indptr
    return op


class ScatterOperator(NamedTuple):
    """``out[targets] += matrix @ rows``: ``targets`` are the distinct
    output rows in ascending order and row ``k`` of ``matrix`` sums the
    input rows aimed at ``targets[k]`` in position order."""

    targets: np.ndarray
    matrix: csr_array


def segment_operator(
    bounds: np.ndarray, basis: Optional[OperatorBasis] = None
) -> csr_array:
    """CSR indicator whose row ``s`` sums input rows
    ``[bounds[s], bounds[s+1])``; ``bounds`` is non-decreasing from 0
    (int32), so the operator has ``len(bounds) - 1`` rows and
    ``bounds[-1]`` columns.  Wraps ``bounds`` without copying it."""
    n = int(bounds[-1])
    if basis is None or basis.ones.shape[0] < n:
        basis = operator_basis(n)
    return csr_operator(basis.ones[:n], basis.cols[:n], bounds, n)


def leaf_ttm_operator(
    bounds: np.ndarray, values: np.ndarray, cols: np.ndarray, n_cols: int
) -> csr_array:
    """CSR operator whose row ``s`` sums ``values[p] * rows[cols[p]]``
    over ``p`` in ``[bounds[s], bounds[s+1])`` — a CSF leaf level as a
    matrix, so its product with the leaf factor is the TTM.  Wraps
    ``bounds`` and ``values`` without copying; ``cols`` is copied only
    when it is not already int32."""
    return csr_operator(values, np.asarray(cols, dtype=INDEX_DTYPE), bounds, n_cols)


def _by_target(idx: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A stable sort of positions by target row: the order, the distinct
    targets and each target's span in the order."""
    order = np.argsort(idx, kind="stable")
    sidx = idx[order]
    first = np.flatnonzero(np.diff(sidx, prepend=-1))
    bounds = np.append(first, idx.shape[0]).astype(INDEX_DTYPE)
    return order, sidx[first], bounds


def scatter_operator(
    idx: np.ndarray, basis: Optional[OperatorBasis] = None
) -> ScatterOperator:
    """The operator of ``out[idx[p], :] += rows[p, :]`` with duplicate
    indices: a stable sort by target row, done once here."""
    n = idx.shape[0]
    if basis is None or basis.ones.shape[0] < n:
        basis = operator_basis(n)
    order, targets, bounds = _by_target(idx)
    matrix = csr_operator(basis.ones[:n], order.astype(INDEX_DTYPE), bounds, n)
    return ScatterOperator(targets, matrix)


def leaf_scatter_operator(
    idx: np.ndarray, values: np.ndarray, cols: np.ndarray, n_cols: int
) -> ScatterOperator:
    """The operator of ``out[idx[p], :] += values[p] * rows[cols[p], :]``
    with duplicate indices — the leaf-mode kernel, with ``cols[p]`` the
    row of leaf ``p``'s parent among ``n_cols`` rows, so nothing is
    expanded to one row per leaf.  Owns the values and columns in stable
    target order."""
    order, targets, bounds = _by_target(idx)
    matrix = csr_operator(values[order], cols[order].astype(INDEX_DTYPE), bounds, n_cols)
    return ScatterOperator(targets, matrix)


def segment_reduce_rows(rows: np.ndarray, op: csr_array) -> np.ndarray:
    """Segmented row sums ``op @ rows`` (a :func:`segment_operator`):
    ``out[s] = rows[bounds[s]:bounds[s+1]].sum(0)``, left to right.  The
    mTTV reduce step; with a :func:`leaf_ttm_operator`, the TTM."""
    return op @ rows


def segment_sum_rows(data: np.ndarray, seg: np.ndarray, n_seg: int) -> np.ndarray:
    """Sum rows of ``data`` into ``n_seg`` buckets given *sorted* segment
    ids (the PartialTensor grouping reduce).  The ids change with every
    call, so the operator is built and applied here."""
    bounds = np.searchsorted(seg, np.arange(n_seg + 1)).astype(INDEX_DTYPE)
    return segment_reduce_rows(data, segment_operator(bounds))


def scatter_rows_add(out: np.ndarray, op: ScatterOperator, rows: np.ndarray) -> None:
    """``out[idx[p], :] += rows[p, :]`` through a :func:`scatter_operator`
    of ``idx``: one sparse product, one add per touched row."""
    if op.targets.size:
        out[op.targets] += op.matrix @ rows


def gather_multiply_rows(
    rows: np.ndarray, factor: np.ndarray, idx: np.ndarray, lo: int, hi: int
) -> np.ndarray:
    """``rows * factor[idx[lo:hi]]`` — the per-level gather-multiply of
    the upward/downward sweeps (``rows`` is already ``(hi-lo, R)``).  The
    product is taken in place in the gathered rows, so it allocates one
    array, not two."""
    out = np.take(factor, idx[lo:hi], axis=0)
    out *= rows
    return out


def value_gather_rows(
    values: np.ndarray, factor: np.ndarray, idx: np.ndarray, lo: int, hi: int
) -> np.ndarray:
    """``values[lo:hi, None] * factor[idx[lo:hi]]`` — tensor values times
    factor rows (ALTO's and the partial-tensor kernels' TTM; CSF sweeps
    use a :func:`leaf_ttm_operator`)."""
    return values[lo:hi, None] * factor[idx[lo:hi]]


def scale_rows_by_values(
    values: np.ndarray, rows: np.ndarray, lo: int, hi: int
) -> np.ndarray:
    """``values[lo:hi, None] * rows`` (``rows`` is already ``(hi-lo, R)``).
    No engine calls it: the leaf-mode kernel folds the values into its
    :func:`leaf_scatter_operator`."""
    return values[lo:hi, None] * rows


def take_factor_rows(
    factor: np.ndarray, idx: np.ndarray, lo: int, hi: int
) -> np.ndarray:
    """``factor[idx[lo:hi]]`` — a plain factor-row gather (``np.take``,
    about twice as fast as fancy indexing on row gathers)."""
    return np.take(factor, idx[lo:hi], axis=0)


def repeat_rows(rows: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``np.repeat(rows, counts, axis=0)`` — the downward-``k`` expansion
    by per-node child counts."""
    return np.repeat(rows, counts, axis=0)


def parent_of(ptr: np.ndarray, pos: int) -> int:
    """Index of the node at the *parent* level whose half-open child span
    in ``ptr`` contains position ``pos``."""
    return int(np.searchsorted(ptr, pos, side="right")) - 1
