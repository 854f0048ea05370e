"""Dense factor-matrix algebra for CPD-ALS.

Algorithm 2 interleaves each sparse MTTKRP with small dense operations on
``R×R`` matrices:

* ``V = ⊛_{m≠u} (A^(m)ᵀ A^(m))`` — the Hadamard product of Gram matrices,
* the solve ``A^(u) = MTTKRP_result · V⁻¹`` (via pseudo-inverse: ``V`` can
  be singular when factors are collinear),
* column normalization with norms stored in ``λ``.

These costs are negligible next to the MTTKRPs (the paper notes this in
Section I) but they must be *correct* for the ALS trajectory tests to pass,
so they get their own well-tested module.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

__all__ = [
    "gram",
    "gram_hadamard_chain",
    "solve_factor",
    "normalize_columns",
    "cp_gram_norm_sq",
]


def gram(a: np.ndarray) -> np.ndarray:
    """Gram matrix ``AᵀA`` of a factor matrix."""
    a = np.asarray(a)
    return a.T @ a


def gram_hadamard_chain(
    matrices: Sequence[np.ndarray], exclude: int | None = None
) -> np.ndarray:
    """Hadamard product of the Gram matrices of every factor except
    ``exclude`` (pass ``None`` to include all — used by the fit formula)."""
    mats = [m for i, m in enumerate(matrices) if i != exclude]
    if not mats:
        raise ValueError("cannot exclude the only matrix")
    rank = np.asarray(mats[0]).shape[1]
    out = np.ones((rank, rank))
    for m in mats:
        out *= gram(m)
    return out


def solve_factor(mttkrp_result: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Solve ``X · V = mttkrp_result`` for the updated factor matrix.

    Uses a least-squares solve (pinv fallback) because ``V`` may be rank
    deficient early in ALS when random factors are nearly collinear.
    """
    v = np.asarray(v)
    try:
        return np.linalg.solve(v.T, np.asarray(mttkrp_result).T).T
    except np.linalg.LinAlgError:
        return np.asarray(mttkrp_result) @ np.linalg.pinv(v)


def normalize_columns(
    a: np.ndarray, *, floor: float = 1e-12
) -> Tuple[np.ndarray, np.ndarray]:
    """Normalize columns to unit 2-norm, returning ``(normalized, norms)``.

    Columns with norm below ``floor`` are left at norm ~0 but reported with
    weight 0 so ``λ`` never contains junk from dividing by dust.
    """
    a = np.asarray(a, dtype=np.float64)
    norms = np.linalg.norm(a, axis=0)
    safe = np.where(norms > floor, norms, 1.0)
    out = a / safe
    lambdas = np.where(norms > floor, norms, 0.0)
    return out, lambdas


def cp_gram_norm_sq(
    factors: Sequence[np.ndarray], weights: np.ndarray | None = None
) -> float:
    """Squared Frobenius norm of the Kruskal tensor
    ``[[λ; A^(0), ..., A^(d-1)]]`` computed without materializing it:

    ``‖X‖² = λᵀ (⊛_m A^(m)ᵀA^(m)) λ``.
    """
    v = gram_hadamard_chain(list(factors), exclude=None)
    rank = v.shape[0]
    lam = np.ones(rank) if weights is None else np.asarray(weights)
    return float(lam @ v @ lam)
