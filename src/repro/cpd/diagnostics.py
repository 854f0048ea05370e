"""Decomposition quality diagnostics.

Two standard instruments for judging a CP model beyond raw fit:

* **Factor match score (FMS)** — similarity between two Kruskal models up
  to the inherent permutation/scaling ambiguity of CP: columns are
  optimally matched (Hungarian assignment on congruence products) and the
  mean matched congruence is reported.  FMS ≈ 1 means the models describe
  the same components; used by tests to verify ALS recovers planted
  factors.

* **CORCONDIA** (core consistency diagnostic, Bro & Kiers) — how close
  the least-squares Tucker core of the data (given the CP factors) is to
  the superdiagonal identity the CP model assumes.  100 means the CP
  structure is appropriate; near/below 0 signals an over-factored model.
  Computed densely, so it is intended for the laptop-scale tensors of the
  examples and tests.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

from ..tensor.coo import CooTensor
from .kruskal import KruskalTensor

__all__ = ["congruence_matrix", "factor_match_score", "corcondia"]


def congruence_matrix(a: KruskalTensor, b: KruskalTensor) -> np.ndarray:
    """Pairwise component congruence ``C[r, s]``: the product over modes
    of cosine similarities between column ``r`` of ``a`` and column ``s``
    of ``b``, times the (normalized) weight agreement."""
    if a.ndim != b.ndim:
        raise ValueError("models must have the same number of modes")
    ra, rb = a.rank, b.rank
    cong = np.ones((ra, rb))
    an = a.normalized()
    bn = b.normalized()
    for fa, fb in zip(an.factors, bn.factors):
        # Columns are unit-norm after normalized(); guard zero columns.
        cos = np.abs(fa.T @ fb)
        cong *= cos
    wa = np.abs(an.weights)
    wb = np.abs(bn.weights)
    denom = np.maximum(np.maximum.outer(wa, wb), 1e-300)
    penalty = 1.0 - np.abs(np.subtract.outer(wa, wb)) / denom
    return cong * np.clip(penalty, 0.0, 1.0)


def factor_match_score(
    a: KruskalTensor, b: KruskalTensor, *, return_permutation: bool = False
):
    """FMS between two Kruskal models: mean congruence under the optimal
    component matching (Hungarian assignment).

    Models of unequal rank are scored over the smaller rank's best
    matching.  With ``return_permutation=True`` also returns the matched
    column index pairs ``(rows, cols)``.
    """
    cong = congruence_matrix(a, b)
    rows, cols = linear_sum_assignment(-cong)
    score = float(cong[rows, cols].mean())
    if return_permutation:
        return score, (rows, cols)
    return score


def corcondia(tensor: CooTensor, model: KruskalTensor) -> float:
    """Core consistency diagnostic in percent (100 = ideal CP structure).

    Solves the least-squares Tucker core ``G`` for the data given the
    model's factors (via per-mode pseudo-inverses applied to the dense
    tensor) and measures its distance from the superdiagonal identity:

    ``100 * (1 - ||G - I|| / ||I||)``, with ``||I||² = R``.

    Densifies the tensor — test/example scale only.
    """
    dense = tensor.to_dense()
    rank = model.rank
    core = dense
    for m, f in enumerate(model.factors):
        pinv = np.linalg.pinv(np.asarray(f))
        core = np.tensordot(pinv, core, axes=(1, m))
        # tensordot moves the contracted mode to the front; after d
        # applications the axes are back in order.
    ideal = np.zeros((rank,) * tensor.ndim)
    idx = np.arange(rank)
    ideal[tuple(idx for _ in range(tensor.ndim))] = model.weights
    denom = float(np.sum(model.weights**2))
    if denom == 0:
        return 0.0
    dev = float(np.sum((core - ideal) ** 2))
    return 100.0 * (1.0 - dev / denom)
