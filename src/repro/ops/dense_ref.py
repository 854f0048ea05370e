"""Dense reference implementations — the test oracle.

Every sparse kernel in :mod:`repro.core` and :mod:`repro.baselines` is
validated against this module on small random tensors.  Everything here
favours obvious correctness over speed: plain ``einsum`` on materialized
dense arrays.

Conventions
-----------
Mode-``u`` unfolding is C-order: ``T_(u) = moveaxis(T, u, 0).reshape(I_u, -1)``
with the remaining modes in increasing order, the last varying fastest.
:func:`repro.ops.krp.khatri_rao_excluding` chains factors in increasing
mode order with the first operand varying slowest, which matches this
unfolding exactly; the pair ``(unfold, khatri_rao_excluding)`` therefore
reproduces the textbook ``Ā^(u) = T_(u) · ⊙_{m≠u} A^(m)``.
"""

from __future__ import annotations

# This module is the deliberately-naive reference path: obvious-by-
#-inspection kernels the fast implementations are validated against.
# Hot-path idioms (np.add.at, per-nnz loops) are the point here, not a bug,
# and it is never traffic-counted.
# lint: disable-file=hot-path

from typing import Sequence

import numpy as np

from ..tensor.coo import CooTensor
from .krp import khatri_rao_excluding

__all__ = [
    "unfold",
    "mttkrp_dense",
    "mttkrp_coo_reference",
    "partial_mttkrp_dense",
    "cp_reconstruct",
    "cp_fit",
]


def unfold(tensor: np.ndarray, mode: int) -> np.ndarray:
    """Mode-``mode`` unfolding (C-order, increasing remaining modes)."""
    tensor = np.asarray(tensor)
    return np.moveaxis(tensor, mode, 0).reshape(tensor.shape[mode], -1)


def mttkrp_dense(
    tensor: np.ndarray, factors: Sequence[np.ndarray], mode: int
) -> np.ndarray:
    """Textbook MTTKRP on a dense ndarray: ``T_(u) · ⊙_{m≠u} A^(m)``."""
    krp = khatri_rao_excluding(list(factors), mode)
    return unfold(tensor, mode) @ krp


def mttkrp_coo_reference(
    tensor: CooTensor, factors: Sequence[np.ndarray], mode: int
) -> np.ndarray:
    """Sparse-aware but deliberately simple MTTKRP over COO.

    For each non-zero, multiply the value by the Hadamard product of the
    relevant factor rows and scatter into the output row.  O(nnz·d·R), no
    tree reuse — a second, structurally different oracle to defend against
    a bug shared by the dense path and the CSF kernels.
    """
    n_out = tensor.shape[mode]
    rank = np.asarray(factors[0]).shape[1]
    acc = tensor.values[:, None] * np.ones((tensor.nnz, rank))
    for m in range(tensor.ndim):
        if m == mode:
            continue
        acc = acc * np.asarray(factors[m])[tensor.indices[m]]
    out = np.zeros((n_out, rank))
    np.add.at(out, tensor.indices[mode], acc)
    return out


def partial_mttkrp_dense(
    tensor: np.ndarray, factors: Sequence[np.ndarray], upto: int
) -> np.ndarray:
    """Dense partial MTTKRP result ``P^(upto)``: the tensor with factor
    matrices ``A^(upto+1) .. A^(d-1)`` contracted out (Section II-A).

    Returns an array of shape ``I_0 × ... × I_upto × R``.
    ``P^(d-1)`` is the tensor itself broadcast against nothing, so ``upto``
    must satisfy ``0 <= upto <= d-2``.
    """
    tensor = np.asarray(tensor)
    d = tensor.ndim
    if not 0 <= upto <= d - 2:
        raise ValueError(f"upto={upto} out of range for d={d}")
    rank = np.asarray(factors[0]).shape[1]
    # Contract the last mode first (TTM), then successive mTTVs.
    out = np.einsum("...k,kr->...r", tensor, np.asarray(factors[d - 1]))
    for m in range(d - 2, upto, -1):
        out = np.einsum("...kr,kr->...r", out, np.asarray(factors[m]))
    assert out.shape == tensor.shape[: upto + 1] + (rank,)
    return out


def cp_reconstruct(
    factors: Sequence[np.ndarray], weights: np.ndarray | None = None
) -> np.ndarray:
    """Materialize the dense tensor of a Kruskal model
    ``sum_r λ_r · a_r^(0) ∘ a_r^(1) ∘ ...``."""
    factors = [np.asarray(f) for f in factors]
    rank = factors[0].shape[1]
    lam = np.ones(rank) if weights is None else np.asarray(weights)
    subs = []
    letters = "abcdefghij"
    for m in range(len(factors)):
        subs.append(f"{letters[m]}r")
    spec = ",".join(subs) + ",r->" + letters[: len(factors)]
    return np.einsum(spec, *factors, lam)


def cp_fit(
    dense: np.ndarray,
    factors: Sequence[np.ndarray],
    weights: np.ndarray | None = None,
) -> float:
    """CP fit ``1 - ‖T - X‖ / ‖T‖`` against a dense tensor (test use)."""
    recon = cp_reconstruct(factors, weights)
    denom = np.linalg.norm(dense)
    if denom == 0:
        return 1.0
    return 1.0 - float(np.linalg.norm(dense - recon) / denom)
