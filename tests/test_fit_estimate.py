"""Tests for the Monte-Carlo fit estimator."""

import numpy as np

from repro.cpd import KruskalTensor
from repro.tensor import random_tensor


def model_for(shape, rank, seed):
    rng = np.random.default_rng(seed)
    return KruskalTensor(
        rng.random(rank) + 0.5,
        [rng.standard_normal((n, rank)) for n in shape],
    )


class TestFitEstimate:
    def test_converges_to_exact_fit(self):
        t = random_tensor((15, 12, 10), nnz=200, seed=1)
        kt = model_for(t.shape, 2, seed=2)
        exact = kt.fit(t)
        est, err = kt.fit_estimate(t, n_samples=60_000, seed=3)
        assert abs(est - exact) < max(5 * err, 0.05)

    def test_stderr_shrinks_with_samples(self):
        t = random_tensor((20, 18, 16), nnz=150, seed=4)
        kt = model_for(t.shape, 2, seed=5)
        _, err_small = kt.fit_estimate(t, n_samples=500, seed=6)
        _, err_big = kt.fit_estimate(t, n_samples=50_000, seed=6)
        assert err_big < err_small

    def test_deterministic_per_seed(self):
        t = random_tensor((10, 9, 8), nnz=100, seed=7)
        kt = model_for(t.shape, 2, seed=8)
        a = kt.fit_estimate(t, n_samples=1000, seed=9)
        b = kt.fit_estimate(t, n_samples=1000, seed=9)
        assert a == b

    def test_zero_tensor(self):
        from repro.tensor import CooTensor

        t = CooTensor.from_arrays(
            np.empty((3, 0), dtype=np.int64), np.empty(0), shape=(5, 5, 5)
        )
        kt = model_for((5, 5, 5), 1, seed=10)
        fit, err = kt.fit_estimate(t)
        assert fit == 1.0 and err == 0.0

    def test_zero_samples_is_observed_only(self):
        t = random_tensor((8, 7, 6), nnz=80, seed=11)
        kt = model_for(t.shape, 2, seed=12)
        fit, err = kt.fit_estimate(t, n_samples=0)
        assert err == 0.0
        assert np.isclose(fit, kt.fit_observed(t))

    def test_hypersparse_regime_finite(self):
        """Large dense size relative to nnz (the estimator's target
        regime) must produce finite fit and error."""
        t = random_tensor((4000, 3000, 2000), nnz=300, seed=13)
        kt = model_for(t.shape, 2, seed=14)
        fit, err = kt.fit_estimate(t, n_samples=5000, seed=15)
        assert np.isfinite(fit) and np.isfinite(err)
        assert err >= 0
