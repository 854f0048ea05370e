"""Edge-case coverage across the stack: tiny tensors, degenerate shapes,
threads backend at the facade level, 128-bit ALTO, 2-D paths."""

import numpy as np
import pytest

from repro.baselines import ALL_BACKENDS, Splatt2
from repro.core import MemoizedMttkrp, Stef, Stef2
from repro.ops import mttkrp_dense
from repro.tensor import AltoTensor, CooTensor, CsfTensor, random_tensor
from tests.conftest import make_factors


class TestTinyTensors:
    def test_single_nonzero(self):
        t = CooTensor.from_arrays(
            np.array([[2], [1], [0]]), np.array([3.5]), shape=(4, 3, 2)
        )
        fac = make_factors(t.shape, 2, seed=0)
        dense = t.to_dense()
        engine = MemoizedMttkrp(CsfTensor.from_coo(t), 2, num_threads=4)
        for mode, res in engine.iteration_results(fac):
            assert np.allclose(res, mttkrp_dense(dense, fac, mode))

    def test_rank_one(self, coo3):
        fac = make_factors(coo3.shape, 1, seed=1)
        engine = MemoizedMttkrp(CsfTensor.from_coo(coo3), 1, num_threads=2)
        dense = coo3.to_dense()
        for mode, res in engine.iteration_results(fac):
            assert np.allclose(res, mttkrp_dense(dense, fac, mode))

    def test_more_threads_than_nonzeros(self):
        t = random_tensor((5, 4, 3), nnz=4, seed=2)
        fac = make_factors(t.shape, 2, seed=3)
        dense = t.to_dense()
        engine = MemoizedMttkrp(CsfTensor.from_coo(t), 2, num_threads=16)
        for mode, res in engine.iteration_results(fac):
            assert np.allclose(res, mttkrp_dense(dense, fac, mode))

    def test_mode_of_length_one(self):
        t = random_tensor((1, 6, 5), nnz=20, seed=4)
        fac = make_factors(t.shape, 2, seed=5)
        dense = t.to_dense()
        s = Stef(t, 2, num_threads=3)
        for mode, res in s.iteration_results(fac):
            assert np.allclose(res, mttkrp_dense(dense, fac, mode))


class TestTwoDimensional:
    """2-D CPD is sparse matrix factorization; the machinery must degrade
    gracefully (no swap decision, single memo-free plan)."""

    def test_stef_on_matrix(self):
        t = random_tensor((12, 9), nnz=40, seed=6)
        fac = make_factors(t.shape, 3, seed=7)
        dense = t.to_dense()
        s = Stef(t, 3, num_threads=2)
        assert s.plan.save_levels == ()
        for mode, res in s.iteration_results(fac):
            assert np.allclose(res, mttkrp_dense(dense, fac, mode))

    def test_als_on_matrix(self):
        from repro.cpd import cp_als

        t = random_tensor((10, 8), nnz=60, seed=8)
        res = cp_als(t, 2, engine=Stef(t, 2), max_iters=4, tol=0)
        assert len(res.fits) == 4


class TestThreadsBackendFacades:
    def test_stef_threads_backend(self, coo4, factors4):
        dense = coo4.to_dense()
        serial = Stef(coo4, 4, num_threads=3, exec_backend="serial")
        threaded = Stef(coo4, 4, num_threads=3, exec_backend="threads")
        rs = serial.iteration_results(factors4)
        rt = threaded.iteration_results(factors4)
        for (m1, a), (m2, b) in zip(rs, rt):
            assert m1 == m2
            assert np.allclose(a, b)
            assert np.allclose(a, mttkrp_dense(dense, factors4, m1))

    def test_stef2_threads_backend(self, coo4, factors4):
        s = Stef2(coo4, 4, num_threads=3, exec_backend="threads")
        dense = coo4.to_dense()
        s.mttkrp_level(factors4, 0)
        for lvl in range(coo4.ndim):
            res = s.mttkrp_level(factors4, lvl)
            assert np.allclose(res, mttkrp_dense(dense, factors4, s.mode_order[lvl]))


class TestWideAlto:
    def test_128bit_tensor_mttkrp(self):
        """Mode lengths forcing >64 linearization bits exercise the
        object-dtype pathway end to end."""
        shape = (2**22, 2**22, 2**22)  # 66 bits total
        rng = np.random.default_rng(9)
        idx = np.vstack([rng.integers(0, s, 30) for s in shape]).astype(np.int64)
        t = CooTensor.from_arrays(idx, rng.standard_normal(30), shape)
        at = AltoTensor.from_coo(t)
        assert at.index_bits == 128
        parts = at.partitions(4)
        assert parts[-1][1] == t.nnz
        # MTTKRP against the COO reference (dense is too large).
        from repro.baselines import AltoBackend
        from repro.ops import mttkrp_coo_reference

        fac = [rng.standard_normal((256, 2)) for _ in shape]
        # Factor matrices only need to cover the appearing indices; remap
        # coordinates into a compact range first.
        compact_idx = np.vstack(
            [np.unique(idx[m], return_inverse=True)[1] for m in range(3)]
        )
        tc = CooTensor.from_arrays(compact_idx, t.values, (256, 256, 256))
        b = AltoBackend(tc, 2, num_threads=2)
        for lvl in range(3):
            assert np.allclose(
                b.mttkrp_level(fac, lvl), mttkrp_coo_reference(tc, fac, lvl)
            )


class TestSplatt2Coverage:
    @pytest.mark.parametrize("fixture", ["coo3", "coo5"])
    def test_other_dims(self, request, fixture):
        t = request.getfixturevalue(fixture)
        fac = make_factors(t.shape, 2, seed=10)
        dense = t.to_dense()
        b = Splatt2(t, 2, num_threads=3)
        for lvl in range(t.ndim):
            assert np.allclose(
                b.mttkrp_level(fac, lvl), mttkrp_dense(dense, fac, lvl)
            )


class TestBackendsOnFiveD:
    @pytest.mark.parametrize("name", sorted(ALL_BACKENDS))
    def test_all_backends_5d(self, coo5, name):
        fac = make_factors(coo5.shape, 2, seed=11)
        dense = coo5.to_dense()
        b = ALL_BACKENDS[name](coo5, 2, num_threads=3)
        for lvl in range(coo5.ndim):
            res = b.mttkrp_level(fac, lvl)
            assert np.allclose(
                res, mttkrp_dense(dense, fac, b.mode_order[lvl])
            ), (name, lvl)
