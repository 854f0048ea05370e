"""Kruskal tensors: the output of CP decomposition.

A rank-``R`` Kruskal tensor is ``X = Σ_r λ_r · a_r^(0) ∘ ... ∘ a_r^(d-1)``
— column-normalized factor matrices plus a weight vector ``λ``
(Algorithm 2 stores the column norms there).

Everything needed to *evaluate* a decomposition is here and is computed
sparsely: the model values at the non-zero coordinates, the inner product
``⟨T, X⟩``, and the fit ``1 - ‖T - X‖/‖T‖`` via the identity
``‖T - X‖² = ‖T‖² - 2⟨T, X⟩ + ‖X‖²`` with ``‖X‖²`` from the Gram-matrix
Hadamard chain — no dense reconstruction at any size.
:func:`fit_from_terms` holds that formula for :meth:`KruskalTensor.fit`
and :func:`~repro.cpd.als.cp_als` alike; it and the two residual-based
fits (:meth:`KruskalTensor.fit_estimate`,
:meth:`KruskalTensor.fit_observed`) share one clamp,
:func:`_fit_from_residual`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..ops.hadamard import cp_gram_norm_sq
from ..tensor.coo import CooTensor

__all__ = ["KruskalTensor", "fit_from_terms"]


def _fit_from_residual(t_norm_sq: float, resid_sq: float) -> float:
    """CP fit ``1 - ‖T - X‖ / ‖T‖`` from ``‖T‖²`` and ``‖T - X‖²``.

    A fit of 1 is exact; 0 means no better than the zero model.  An
    all-zero tensor has fit 1, and a residual that rounding drives below
    zero counts as zero.
    """
    if t_norm_sq == 0.0:
        return 1.0
    return 1.0 - float(np.sqrt(max(0.0, resid_sq)) / np.sqrt(t_norm_sq))


def fit_from_terms(t_norm_sq: float, inner: float, model_norm: float) -> float:
    """CP fit from ``‖T‖²``, ``⟨T, X⟩`` and ``‖X‖``, through
    ``‖T - X‖² = ‖T‖² - 2⟨T, X⟩ + ‖X‖²`` (:func:`_fit_from_residual`)."""
    return _fit_from_residual(t_norm_sq, t_norm_sq - 2.0 * inner + model_norm**2)


@dataclass
class KruskalTensor:
    """A CP model: ``weights`` (λ) plus one factor matrix per mode."""

    weights: np.ndarray
    factors: List[np.ndarray]

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.factors = [np.asarray(f, dtype=np.float64) for f in self.factors]
        rank = self.weights.shape[0]
        for m, f in enumerate(self.factors):
            if f.ndim != 2 or f.shape[1] != rank:
                raise ValueError(
                    f"factor {m} has shape {f.shape}, expected (*, {rank})"
                )

    # ------------------------------------------------------------------
    @property
    def rank(self) -> int:
        return int(self.weights.shape[0])

    @property
    def ndim(self) -> int:
        return len(self.factors)

    @property
    def shape(self) -> Tuple[int, ...]:
        return tuple(f.shape[0] for f in self.factors)

    # ------------------------------------------------------------------
    def norm(self) -> float:
        """Frobenius norm ``‖X‖`` via the Gram chain — O(d·N·R²)."""
        return float(np.sqrt(max(0.0, cp_gram_norm_sq(self.factors, self.weights))))

    def values_at(self, indices: np.ndarray) -> np.ndarray:
        """Model values at a ``(ndim, m)`` coordinate matrix — O(m·d·R)."""
        indices = np.asarray(indices)
        acc = np.broadcast_to(self.weights, (indices.shape[1], self.rank)).copy()
        for m, f in enumerate(self.factors):
            acc *= f[indices[m]]
        return acc.sum(axis=1)

    def inner(self, tensor: CooTensor) -> float:
        """Sparse inner product ``⟨T, X⟩``."""
        return float(tensor.values @ self.values_at(tensor.indices))

    def fit(self, tensor: CooTensor) -> float:
        """CP fit ``1 - ‖T - X‖ / ‖T‖`` against a sparse tensor
        (:func:`fit_from_terms`), with ``⟨T, X⟩`` from one pass over the
        non-zeros.

        The reference for the fits :func:`~repro.cpd.als.cp_als` reports.
        """
        t_norm_sq = float(tensor.values @ tensor.values)
        return fit_from_terms(t_norm_sq, self.inner(tensor), self.norm())

    def relative_error(self, tensor: CooTensor) -> float:
        """``‖T - X‖ / ‖T‖`` (1 - fit)."""
        return 1.0 - self.fit(tensor)

    def fit_estimate(
        self, tensor: CooTensor, n_samples: int = 10_000, seed: int = 0
    ) -> Tuple[float, float]:
        """Monte-Carlo fit estimate for huge tensors: ``(fit, stderr)``.

        The exact sparse fit (:meth:`fit`) needs ``‖X‖`` (cheap) and
        ``⟨T, X⟩`` (one pass over nnz) — both scale fine; what does *not*
        scale on real FROSTT tensors is validating against a dense
        reference.  This estimator instead evaluates the residual
        directly: the observed part exactly (over nnz), and the
        zero-region contribution ``Σ_{unobserved} X(i)²`` by uniform
        coordinate sampling with an unbiased rescale.  Returns the fit
        estimate and the standard error contributed by the sampling.

        For tensors whose dense size barely exceeds nnz the variance
        correction can exceed the estimate; intended for the hyper-sparse
        regime (density ≪ 1).
        """
        rng = np.random.default_rng(seed)
        t_norm_sq = float(tensor.values @ tensor.values)
        resid_obs = tensor.values - self.values_at(tensor.indices)
        obs_sq = float(resid_obs @ resid_obs)

        dense_size = float(np.prod([float(s) for s in tensor.shape]))
        n_zero = dense_size - tensor.nnz
        if n_zero <= 0 or n_samples <= 0 or t_norm_sq == 0.0:
            # Nothing to sample, or an all-zero tensor (fit 1 exactly).
            resid_sq = obs_sq
            stderr = 0.0
        else:
            # Uniform coordinates; collisions with observed entries are
            # rare in the hyper-sparse regime and simply re-sampled away
            # by accepting the tiny bias instead of an O(nnz) lookup.
            samples = np.vstack(
                [rng.integers(0, s, n_samples) for s in tensor.shape]
            )
            vals = self.values_at(samples)
            sq = vals**2
            mean = float(sq.mean())
            var = float(sq.var(ddof=1)) if n_samples > 1 else 0.0
            zero_sq = n_zero * mean
            resid_sq = obs_sq + zero_sq
            stderr_zero = n_zero * np.sqrt(var / n_samples)
            # Propagate through fit = 1 - sqrt(resid)/sqrt(‖T‖²).
            stderr = float(
                stderr_zero / (2 * np.sqrt(max(resid_sq, 1e-300)) * np.sqrt(t_norm_sq))
            )
        return _fit_from_residual(t_norm_sq, resid_sq), stderr

    def fit_observed(self, tensor: CooTensor) -> float:
        """Fit restricted to the *observed* (stored) coordinates:
        ``1 - ‖(T - X)|_Ω‖ / ‖T|_Ω‖``.

        Unlike :meth:`fit`, unobserved cells impose no zero penalty —
        the completion-style quality measure appropriate when the stored
        entries are samples rather than the full tensor.
        """
        resid = tensor.values - self.values_at(tensor.indices)
        return _fit_from_residual(
            float(tensor.values @ tensor.values), float(resid @ resid)
        )

    # ------------------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        """Materialize the dense tensor (test oracles; small shapes only)."""
        from ..ops.dense_ref import cp_reconstruct

        return cp_reconstruct(self.factors, self.weights)

    def normalized(self) -> "KruskalTensor":
        """Return a copy with unit-norm factor columns, norms folded into
        ``weights``."""
        from ..ops.hadamard import normalize_columns

        weights = self.weights.copy()
        factors = []
        for f in self.factors:
            nf, lam = normalize_columns(f)
            factors.append(nf)
            weights = weights * lam
        return KruskalTensor(weights, factors)

    def with_factor(self, mode: int, factor: np.ndarray) -> "KruskalTensor":
        """Copy with one factor matrix replaced."""
        factors = list(self.factors)
        factors[mode] = np.asarray(factor)
        return KruskalTensor(self.weights.copy(), factors)

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, path: str) -> None:
        """Persist the model as a compressed ``.npz`` archive
        (``weights`` + one ``factor_<m>`` array per mode)."""
        arrays = {"weights": self.weights}
        for m, f in enumerate(self.factors):
            arrays[f"factor_{m}"] = f
        np.savez_compressed(path, **arrays)

    @classmethod
    def load(cls, path: str) -> "KruskalTensor":
        """Load a model written by :meth:`save`.

        Raises
        ------
        ValueError
            If the archive is missing the expected arrays.
        """
        with np.load(path) as data:
            if "weights" not in data:
                raise ValueError(f"{path}: not a KruskalTensor archive")
            weights = data["weights"]
            factors = []
            m = 0
            while f"factor_{m}" in data:
                factors.append(data[f"factor_{m}"])
                m += 1
            if not factors:
                raise ValueError(f"{path}: no factor matrices found")
        return cls(weights, factors)
