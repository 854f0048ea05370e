"""Unit tests for CP factor initialization."""

import numpy as np

from repro.cpd import hosvd_init, random_init
from repro.tensor import random_tensor


class TestRandomInit:
    def test_shapes(self):
        fac = random_init((4, 5, 6), rank=3, seed=0)
        assert [f.shape for f in fac] == [(4, 3), (5, 3), (6, 3)]

    def test_deterministic(self):
        a = random_init((4, 5), 2, seed=7)
        b = random_init((4, 5), 2, seed=7)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_range(self):
        fac = random_init((100,), 4, seed=1)
        assert np.all(fac[0] >= 0) and np.all(fac[0] < 1)


class TestHosvdInit:
    def test_shapes(self, coo3):
        fac = hosvd_init(coo3, rank=3, seed=0)
        assert [f.shape for f in fac] == [(n, 3) for n in coo3.shape]

    def test_leading_columns_orthonormal(self):
        t = random_tensor((20, 15, 12), nnz=600, seed=2)
        rank = 3
        fac = hosvd_init(t, rank, seed=0)
        for f in fac:
            g = f[:, :rank].T @ f[:, :rank]
            # svds columns are orthonormal (padding may not be).
            assert np.allclose(np.diag(g), 1.0, atol=1e-6)

    def test_small_mode_padded_with_random(self):
        t = random_tensor((3, 40, 40), nnz=200, seed=3)
        fac = hosvd_init(t, rank=8, seed=0)
        assert fac[0].shape == (3, 8)
        assert np.all(np.isfinite(fac[0]))

    def test_better_than_random_start(self):
        """HOSVD warm start should give a first-iteration fit at least as
        good as a random start on genuinely low-rank data."""
        from repro.cpd import cp_als
        from repro.tensor import low_rank_tensor
        from repro.baselines import SplattAll

        t = low_rank_tensor((15, 12, 10), rank=3, nnz=700, noise=0.01, seed=4)
        r_rand = cp_als(
            t, 3, engine=SplattAll(t, 3), max_iters=3, tol=0, init="random", seed=0
        )
        r_hosvd = cp_als(
            t, 3, engine=SplattAll(t, 3), max_iters=3, tol=0, init="hosvd", seed=0
        )
        assert r_hosvd.fits[0] > r_rand.fits[0] - 0.05
