"""Khatri-Rao products (KRP).

The KRP ``A ⊙ B`` of ``A ∈ R^{I×R}`` and ``B ∈ R^{J×R}`` is the
``(I·J)×R`` matrix of column-wise Kronecker products:
``M[i·J + j, r] = A[i, r]·B[j, r]`` (Section II-A).

CPD-ALS never materializes the full KRP of all-but-one factor matrices —
that is exactly what MTTKRP kernels avoid — but the *row-wise* KRP
(``k_i`` vectors in Algorithm 5) and small explicit KRPs (test oracles,
the dense reference path) are needed throughout.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..kernels import gather_multiply_rows, take_factor_rows
from ..parallel.counters import NULL_COUNTER, TrafficCounter

__all__ = ["khatri_rao", "khatri_rao_chain", "khatri_rao_excluding", "krp_rows"]


def khatri_rao(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Column-wise Kronecker (Khatri-Rao) product of two matrices.

    Raises
    ------
    ValueError
        If the operands do not share a column count.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError(
            f"KRP needs matrices with equal column counts, got {a.shape} and {b.shape}"
        )
    i, r = a.shape
    j, _ = b.shape
    return (a[:, None, :] * b[None, :, :]).reshape(i * j, r)


def khatri_rao_chain(matrices: Sequence[np.ndarray]) -> np.ndarray:
    """Left-to-right chained KRP ``K^(i) = K^(i-1) ⊙ A^(i)`` (Section II-A).

    ``khatri_rao_chain([A0])`` is ``A0`` itself (the ``K^(0)`` base case).
    """
    mats: List[np.ndarray] = [np.asarray(m) for m in matrices]
    if not mats:
        raise ValueError("need at least one matrix")
    out = mats[0]
    for m in mats[1:]:
        out = khatri_rao(out, m)
    return out


def khatri_rao_excluding(
    matrices: Sequence[np.ndarray], exclude: int
) -> np.ndarray:
    """KRP of every factor matrix except ``exclude``.

    This is the explicit operand of the textbook MTTKRP
    ``Ā^(u) = T_(u) · (⊙_{m≠u} A^(m))`` used by the dense reference and by
    the TACO-style COO baseline.  Matrices are combined in increasing mode
    order, matching the row-major unfolding ``T_(u)``.
    """
    mats = [np.asarray(m) for i, m in enumerate(matrices) if i != exclude]
    if not mats:
        raise ValueError("cannot exclude the only matrix")
    return khatri_rao_chain(mats)


def krp_rows(
    matrices: Sequence[np.ndarray],
    rows: Sequence[np.ndarray],
    counter: TrafficCounter = NULL_COUNTER,
) -> np.ndarray:
    """Row-wise KRP: Hadamard product of selected rows of each matrix.

    ``krp_rows([A, B], [ia, ib])[p] == A[ia[p]] * B[ib[p]]`` — the ``k_i``
    vectors of Algorithm 5, vectorized over ``p``.  This is the form every
    sparse kernel in this library consumes; the full KRP matrix is never
    built.  The gathers run through the flat-array kernel ABI
    (:mod:`repro.kernels`).

    ``counter`` charges the factor-row gathers (one ``R``-row per selected
    index per matrix, streamed) and the Hadamard arithmetic.  Callers that
    account the gathers themselves — the dimension-tree backend brackets
    its edge contractions with ``read_factor_rows`` charges, which also
    apply the cache-reuse rule — must leave the default no-op counter to
    avoid double counting.
    """
    if len(matrices) != len(rows):
        raise ValueError("need one row-index array per matrix")
    if not matrices:
        raise ValueError("need at least one matrix")
    first = np.asarray(matrices[0])
    idx0 = np.asarray(rows[0])
    rank = int(first.shape[1])
    gathered = sum(int(np.asarray(r).shape[0]) for r in rows)
    counter.read(float(gathered * rank), "factor")
    counter.flop(float((len(matrices) - 1) * idx0.shape[0] * rank), "sweep")
    out = take_factor_rows(first, idx0, 0, idx0.shape[0])
    for m, r in zip(matrices[1:], rows[1:]):
        r = np.asarray(r)
        out = gather_multiply_rows(out, np.asarray(m), r, 0, r.shape[0])
    return out
