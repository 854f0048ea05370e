"""Unit tests for Kruskal tensors."""

import numpy as np
import pytest

from repro.cpd import KruskalTensor
from repro.tensor import CooTensor, low_rank_tensor


def random_model(shape, rank, seed=0):
    rng = np.random.default_rng(seed)
    return KruskalTensor(
        rng.random(rank) + 0.5,
        [rng.standard_normal((n, rank)) for n in shape],
    )


class TestBasics:
    def test_properties(self):
        kt = random_model((4, 5, 6), 3)
        assert kt.rank == 3
        assert kt.ndim == 3
        assert kt.shape == (4, 5, 6)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            KruskalTensor(np.ones(2), [np.ones((3, 2)), np.ones((4, 3))])

    def test_norm_matches_dense(self):
        kt = random_model((4, 3, 5), 2, seed=1)
        assert np.isclose(kt.norm(), np.linalg.norm(kt.to_dense()))

    def test_values_at_matches_dense(self):
        kt = random_model((5, 4, 3), 2, seed=2)
        dense = kt.to_dense()
        idx = np.array([[0, 4, 2], [1, 3, 0], [2, 0, 1]])
        vals = kt.values_at(idx)
        for p in range(3):
            assert np.isclose(vals[p], dense[tuple(idx[:, p])])

    def test_with_factor(self):
        kt = random_model((4, 4), 2, seed=3)
        new = np.zeros((4, 2))
        kt2 = kt.with_factor(0, new)
        assert np.allclose(kt2.factors[0], 0.0)
        assert np.allclose(kt.factors[1], kt2.factors[1])


class TestFit:
    def test_exact_model_fits_perfectly(self):
        t, factors = low_rank_tensor(
            (8, 7, 6), rank=2, nnz=150, noise=0.0, seed=5, return_factors=True
        )
        kt = KruskalTensor(np.ones(2), factors)
        # The model reproduces the sampled values exactly, but the sparse
        # tensor treats unsampled cells as zero while the model does not,
        # so fit < 1; inner product must still match exactly.
        assert np.isclose(kt.inner(t), float(t.values @ t.values))

    def test_fit_of_zero_model(self, coo3):
        kt = KruskalTensor(np.zeros(2), [np.zeros((n, 2)) for n in coo3.shape])
        assert np.isclose(kt.fit(coo3), 0.0)

    def test_fit_matches_dense_computation(self, coo3):
        kt = random_model(coo3.shape, 3, seed=6)
        dense = coo3.to_dense()
        resid = np.linalg.norm(dense - kt.to_dense())
        expected = 1.0 - resid / np.linalg.norm(dense)
        assert np.isclose(kt.fit(coo3), expected, atol=1e-10)

    def test_relative_error(self, coo3):
        kt = random_model(coo3.shape, 2, seed=7)
        assert np.isclose(kt.relative_error(coo3), 1.0 - kt.fit(coo3))

    def test_empty_tensor_fit_is_one(self):
        t = CooTensor.from_arrays(
            np.empty((2, 0), dtype=np.int64), np.empty(0), shape=(3, 3)
        )
        kt = random_model((3, 3), 2, seed=8)
        assert kt.fit(t) == 1.0


class TestNormalized:
    def test_columns_unit_norm(self):
        kt = random_model((6, 5, 4), 3, seed=9)
        nk = kt.normalized()
        for f in nk.factors:
            assert np.allclose(np.linalg.norm(f, axis=0), 1.0)

    def test_model_unchanged(self):
        kt = random_model((5, 4, 3), 2, seed=10)
        nk = kt.normalized()
        assert np.allclose(kt.to_dense(), nk.to_dense())
