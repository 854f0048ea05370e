"""Partially contracted sparse tensors and the TTM / mTTV / MTTV operators.

Section II-A of the paper defines three contraction operators on a sparse
tensor and its partially contracted descendants ``P^(i)``:

* **TTM** — contract the tensor's *last* mode with a factor matrix,
  producing ``P^(d-2)``: one dense ``R``-vector per distinct
  ``(i_0, ..., i_{d-2})`` fiber.
* **mTTV** — contract the last remaining index of a ``P^(i)`` with a factor
  matrix (rank index ``r`` is a batch dimension), producing ``P^(i-1)``.
* **MTTV** — contract *all leading* indices of a ``P^(i)`` with the row-wise
  KRP of their factor matrices, producing the MTTKRP output for the last
  remaining mode.

A :class:`PartialTensor` stores the result sparsely: an integer prefix
coordinate matrix (unique rows) plus an aligned ``(m, R)`` dense payload.
These operators are used directly by the SPLATT-style baselines and as a
second oracle for the fused CSF kernels in :mod:`repro.core.csf_kernels`.
Their index sets change with every call, so each reduction builds its
operator (:mod:`repro.kernels`) and applies it in the same call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ..kernels import (
    gather_multiply_rows,
    scatter_operator,
    scatter_rows_add,
    segment_sum_rows,
    value_gather_rows,
)
from ..parallel.counters import NULL_COUNTER, TrafficCounter
from ..tensor.coo import CooTensor
from .krp import krp_rows

__all__ = [
    "PartialTensor",
    "ttm_last_mode",
    "mttv",
    "mttv_reduce",
    "from_coo",
    "contract_modes",
    "reduce_to_matrix",
]


def _group_rows(indices: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Group columns of an index matrix (already lexicographically sorted).

    Returns ``(unique_indices, segment_ids)`` where ``segment_ids[p]`` maps
    input column ``p`` to its row in ``unique_indices``.
    """
    if indices.shape[1] == 0:
        return indices, np.empty(0, dtype=np.int64)
    change = np.any(indices[:, 1:] != indices[:, :-1], axis=0)
    seg = np.concatenate(([0], np.cumsum(change))).astype(np.int64)
    first = np.concatenate(([True], change))
    return indices[:, first], seg


@dataclass(frozen=True)
class PartialTensor:
    """A partially contracted tensor ``P^(k)`` in sparse fiber form.

    Attributes
    ----------
    modes:
        The original tensor modes of the remaining index positions, in
        storage order (the CSF mode order prefix).
    indices:
        ``(k+1, m)`` unique fiber coordinates, sorted lexicographically.
    data:
        ``(m, R)`` dense payload: the ``R``-vector attached to each fiber.
    shape:
        Dense extents of the remaining modes (aligned with ``modes``).
    """

    modes: Tuple[int, ...]
    indices: np.ndarray
    data: np.ndarray
    shape: Tuple[int, ...]

    @property
    def num_fibers(self) -> int:
        """Number of stored fibers (rows of ``data``)."""
        return self.data.shape[0]

    @property
    def rank(self) -> int:
        """Payload width ``R``."""
        return self.data.shape[1]

    def nbytes(self) -> int:
        """Memory footprint of indices plus payload."""
        return int(self.indices.nbytes + self.data.nbytes)

    def to_dense(self) -> np.ndarray:
        """Materialize as an ndarray of shape ``shape + (R,)`` (tests only)."""
        out = np.zeros((int(np.prod(self.shape, dtype=np.int64)), self.rank))
        if self.num_fibers:
            flat = np.ravel_multi_index(tuple(self.indices), self.shape)
            scatter_rows_add(out, scatter_operator(flat), self.data)
        return out.reshape(tuple(self.shape) + (self.rank,))


def ttm_last_mode(
    tensor: CooTensor,
    factor: np.ndarray,
    mode_order: Sequence[int],
    counter: TrafficCounter = NULL_COUNTER,
) -> PartialTensor:
    """TTM contracting the *last* mode of ``mode_order`` with ``factor``.

    ``factor`` must be the factor matrix of mode ``mode_order[-1]``.  The
    output fibers are the distinct prefixes ``mode_order[:-1]``; each
    carries ``sum_l T[..., l] * factor[l, :]``.

    ``counter`` charges the contraction's streamed legs — the coordinate
    walk (``structure``), the value stream (``values``), and the factor
    row gathers (``factor``).  Callers that bracket this helper with their
    own charges must leave the default no-op counter.
    """
    mode_order = list(mode_order)
    if len(mode_order) != tensor.ndim:
        raise ValueError("mode_order must cover every tensor mode")
    rank = int(np.asarray(factor).shape[1])
    counter.read(float(tensor.ndim * tensor.nnz), "structure")
    counter.read(float(tensor.nnz), "values")
    counter.read(float(tensor.nnz * rank), "factor")
    counter.flop(float(2 * tensor.nnz * rank), "sweep")
    sorted_t = tensor.sorted_by(mode_order)
    prefix_modes = mode_order[:-1]
    prefix = sorted_t.indices[prefix_modes]
    uniq, seg = _group_rows(prefix)
    contrib = value_gather_rows(
        sorted_t.values,
        np.asarray(factor),
        sorted_t.indices[mode_order[-1]],
        0,
        sorted_t.values.shape[0],
    )
    data = segment_sum_rows(contrib, seg, uniq.shape[1])
    return PartialTensor(
        modes=tuple(prefix_modes),
        indices=uniq,
        data=data,
        shape=tuple(tensor.shape[m] for m in prefix_modes),
    )


def mttv(partial: PartialTensor, factor: np.ndarray) -> PartialTensor:
    """mTTV: contract the last remaining index of ``partial`` with
    ``factor`` (the factor matrix of ``partial.modes[-1]``), batching over
    the rank index — ``P^(i) -> P^(i-1)`` of Section II-A."""
    if partial.indices.shape[0] < 2:
        raise ValueError("mTTV needs at least two remaining modes")
    last = partial.indices[-1]
    contrib = gather_multiply_rows(partial.data, np.asarray(factor), last, 0, last.shape[0])
    prefix = partial.indices[:-1]
    uniq, seg = _group_rows(prefix)
    data = segment_sum_rows(contrib, seg, uniq.shape[1])
    return PartialTensor(
        modes=partial.modes[:-1],
        indices=uniq,
        data=data,
        shape=partial.shape[:-1],
    )


def from_coo(tensor: CooTensor, rank: int) -> PartialTensor:
    """Lift a COO tensor into a rank-``rank`` PartialTensor whose payload
    is the value replicated across columns — the dimension-tree root
    ``P_{all modes}`` (no factors contracted yet).

    Broadcasting the scalar across ``R`` columns mirrors how the batched
    contractions treat the original tensor (every rank column sees the
    same values); storage-conscious implementations keep the scalar and
    this lift is charged accordingly by the backend using it.
    """
    data = np.repeat(tensor.values[:, None], rank, axis=1)
    return PartialTensor(
        modes=tuple(range(tensor.ndim)),
        indices=tensor.indices.copy(),
        data=data,
        shape=tensor.shape,
    )


def contract_modes(
    partial: PartialTensor,
    contract: Sequence[int],
    factors: Sequence[np.ndarray],
) -> PartialTensor:
    """Contract an arbitrary subset of a PartialTensor's modes with the
    row-wise KRP of their factor matrices (the dimension-tree edge
    operation: child ``P_{S1}`` = parent ``P_S`` contracted over
    ``S2 = S ∖ S1``).

    ``contract`` names *original tensor modes* present in
    ``partial.modes``; ``factors[i]`` is the factor matrix for
    ``contract[i]``.  The result keeps the remaining modes in their
    current order.
    """
    contract = list(contract)
    if len(contract) != len(factors):
        raise ValueError("need one factor per contracted mode")
    positions = []
    for m in contract:
        if m not in partial.modes:
            raise ValueError(f"mode {m} not present in {partial.modes}")
        positions.append(partial.modes.index(m))
    keep = [p for p in range(len(partial.modes)) if p not in positions]
    if not keep:
        raise ValueError("contraction would remove every mode; use "
                         "reduce_to_matrix for the final step")
    weights = krp_rows(list(factors), [partial.indices[p] for p in positions])
    contrib = partial.data * weights
    remaining = partial.indices[keep]
    order = np.lexsort(remaining[::-1])
    remaining = remaining[:, order]
    contrib = contrib[order]
    uniq, seg = _group_rows(remaining)
    data = segment_sum_rows(contrib, seg, uniq.shape[1])
    return PartialTensor(
        modes=tuple(partial.modes[p] for p in keep),
        indices=uniq,
        data=data,
        shape=tuple(partial.shape[p] for p in keep),
    )


def reduce_to_matrix(
    partial: PartialTensor,
    target_mode: int,
    factors: Sequence[np.ndarray],
    contract: Sequence[int],
) -> np.ndarray:
    """Finish an MTTKRP: contract every mode in ``contract`` (all
    remaining modes except ``target_mode``) and scatter into the dense
    ``N_target × R`` output."""
    contract = list(contract)
    if target_mode not in partial.modes:
        raise ValueError(f"target mode {target_mode} absent from partial")
    if set(contract) | {target_mode} != set(partial.modes):
        raise ValueError("contract + target must cover the partial's modes")
    t_pos = partial.modes.index(target_mode)
    out = np.zeros((partial.shape[t_pos], partial.rank))
    if not contract:
        scatter_rows_add(out, scatter_operator(partial.indices[t_pos]), partial.data)
        return out
    positions = [partial.modes.index(m) for m in contract]
    weights = krp_rows(list(factors), [partial.indices[p] for p in positions])
    scatter_rows_add(
        out, scatter_operator(partial.indices[t_pos]), partial.data * weights
    )
    return out


def mttv_reduce(
    partial: PartialTensor,
    factors: Sequence[np.ndarray],
) -> np.ndarray:
    """MTTV: contract all *leading* indices of ``partial`` with the row-wise
    KRP of their factor matrices, producing the MTTKRP output for the last
    remaining mode (Fig. 1b's single-step path).

    ``factors`` must supply the factor matrix for every mode in
    ``partial.modes[:-1]``, in that order.
    """
    lead = partial.indices[:-1]
    if len(factors) != lead.shape[0]:
        raise ValueError(
            f"need {lead.shape[0]} leading factors, got {len(factors)}"
        )
    k = krp_rows(list(factors), list(lead))
    out = np.zeros((partial.shape[-1], partial.rank))
    scatter_rows_add(out, scatter_operator(partial.indices[-1]), partial.data * k)
    return out
