"""Tests for the Stef.decompose convenience and engine traffic paths."""

import numpy as np
import pytest

from repro.core import MemoPlan, MemoizedMttkrp, Stef
from repro.parallel import TrafficCounter
from repro.tensor import CsfTensor, low_rank_tensor


class TestDecomposeConvenience:
    def test_decompose_runs(self):
        t = low_rank_tensor((10, 9, 8), rank=2, nnz=500, noise=0.1, seed=0)
        s = Stef(t, 2, num_threads=2)
        res = s.decompose(max_iters=4, tol=0, seed=1)
        assert len(res.fits) == 4
        assert res.model.shape == t.shape

    def test_decompose_matches_cp_als(self):
        from repro.cpd import cp_als

        t = low_rank_tensor((10, 9, 8), rank=2, nnz=500, noise=0.1, seed=0)
        r1 = Stef(t, 2, num_threads=2).decompose(max_iters=3, tol=0, seed=5)
        r2 = cp_als(t, 2, engine=Stef(t, 2, num_threads=2), max_iters=3,
                    tol=0, seed=5)
        assert np.allclose(r1.fits, r2.fits)


class TestTrafficPaths:
    """Each mode-u source path charges distinguishable traffic."""

    @pytest.fixture
    def setup(self, coo4, factors4):
        csf = CsfTensor.from_coo(coo4, (0, 1, 2, 3))
        return csf, factors4

    def _mode_traffic(self, csf, factors, plan_levels, u):
        c = TrafficCounter()
        engine = MemoizedMttkrp(
            csf, 4, plan=MemoPlan(plan_levels), num_threads=2, counter=c
        )
        engine.mode0(factors)
        c.reset()
        engine.mode_level(factors, u)
        return c

    def test_direct_memo_read_charges_memo(self, setup):
        csf, factors = setup
        c = self._mode_traffic(csf, factors, (1,), 1)  # Fig. 1b
        assert c.by_category.get("r:memo", 0) > 0

    def test_resumed_contraction_charges_memo_and_factors(self, setup):
        csf, factors = setup
        c = self._mode_traffic(csf, factors, (2,), 1)  # Fig. 1c
        assert c.by_category.get("r:memo", 0) > 0
        assert c.by_category.get("r:factor", 0) > 0

    def test_from_scratch_charges_full_traversal(self, setup):
        csf, factors = setup
        c_scratch = self._mode_traffic(csf, factors, (), 1)  # Fig. 1d
        c_memo = self._mode_traffic(csf, factors, (1,), 1)
        assert c_scratch.by_category.get("r:memo", 0) == 0
        assert (
            c_scratch.by_category["r:structure"]
            > c_memo.by_category["r:structure"]
        )

    def test_leaf_mode_never_reads_memo(self, setup):
        csf, factors = setup
        c = self._mode_traffic(csf, factors, (1, 2), 3)
        assert c.by_category.get("r:memo", 0) == 0
