"""Tests for the CPD-ALS driver (Algorithm 2)."""

import numpy as np
import pytest

from repro.baselines import ALL_BACKENDS, SplattAll
from repro.cpd import cp_als
from repro.engines import create_engine, engine_names
from repro.tensor import low_rank_tensor, random_tensor


@pytest.fixture(scope="module")
def lowrank3():
    # Dense-ish sample (~70% of cells): sparse CPD treats unobserved cells
    # as zeros, so a mostly-observed tensor is needed for high fits.
    return low_rank_tensor((10, 9, 8), rank=3, nnz=650, noise=0.05, seed=0)


class TestConvergence:
    def test_fits_nondecreasing(self, lowrank3):
        res = cp_als(lowrank3, 3, engine=SplattAll(lowrank3, 3), max_iters=10, tol=0)
        fits = np.array(res.fits)
        assert np.all(np.diff(fits) > -1e-9)  # ALS monotone up to fp noise

    def test_recovers_low_rank_structure(self, lowrank3):
        res = cp_als(lowrank3, 3, engine=SplattAll(lowrank3, 3), max_iters=25, tol=0)
        assert res.final_fit > 0.5

    def test_tol_stops_early(self, lowrank3):
        res = cp_als(
            lowrank3, 3, engine=SplattAll(lowrank3, 3), max_iters=100, tol=1e-3
        )
        assert res.converged
        assert res.iterations < 100

    def test_max_iters_respected(self, lowrank3):
        res = cp_als(lowrank3, 2, engine=SplattAll(lowrank3, 2), max_iters=4, tol=0)
        assert res.iterations == 4
        assert not res.converged

    def test_compute_fit_false(self, lowrank3):
        res = cp_als(
            lowrank3, 2, engine=SplattAll(lowrank3, 2), max_iters=3,
            compute_fit=False,
        )
        assert res.fits == []
        assert res.iterations == 3

    def test_callback_invoked(self, lowrank3):
        seen = []
        cp_als(
            lowrank3, 2, engine=SplattAll(lowrank3, 2), max_iters=3, tol=0,
            callback=lambda it, fit: seen.append((it, fit)),
        )
        assert [s[0] for s in seen] == [0, 1, 2]


class TestFitFromLastMttkrp:
    """``cp_als`` takes each fit from the iteration's last MTTKRP; the
    full pass of :meth:`KruskalTensor.fit` on the same model is the
    reference."""

    # Ranks above the shortest mode make the Gram chain rank deficient.
    CASES = (((12, 9, 5), 240, 6), ((8, 6, 5, 3), 200, 4))

    @pytest.mark.parametrize("variant", [{}, {"nonneg": True, "ridge": 1e-3}])
    @pytest.mark.parametrize("name", engine_names())
    def test_fit_matches_full_pass(self, name, variant):
        for shape, nnz, rank in self.CASES:
            tensor = random_tensor(shape, nnz=nnz, seed=len(shape))
            with create_engine(name, tensor, rank, num_threads=2) as engine:
                for k in (1, 2, 3):
                    res = cp_als(tensor, rank, engine=engine, max_iters=k,
                                 tol=0, seed=2, **variant)
                    assert len(res.fits) == k
                    assert abs(res.fits[-1] - res.model.fit(tensor)) <= 1e-12, (
                        shape, k)


class TestBackendEquivalence:
    def test_same_trajectory_within_update_order_group(self):
        """Backends that update modes in the same order must produce
        bit-identical ALS trajectories — they compute the same math."""
        t = random_tensor((12, 10, 8), nnz=300, seed=11)
        groups = {}
        for name, cls in ALL_BACKENDS.items():
            b = cls(t, 3, num_threads=3)
            res = cp_als(t, 3, engine=b, max_iters=4, tol=0, seed=5)
            groups.setdefault(tuple(b.mode_order), {})[name] = res.fits
        assert len(groups) >= 2  # both update orders exercised
        for order, fits in groups.items():
            base = next(iter(fits.values()))
            for name, f in fits.items():
                assert np.allclose(f, base, atol=1e-8), (order, name)

    def test_all_backends_reach_similar_final_fit(self, lowrank3):
        finals = {}
        for name, cls in ALL_BACKENDS.items():
            b = cls(lowrank3, 3, num_threads=2)
            res = cp_als(lowrank3, 3, engine=b, max_iters=10, tol=0, seed=1)
            finals[name] = res.final_fit
        vals = list(finals.values())
        assert max(vals) - min(vals) < 0.15, finals


class TestDefaults:
    def test_default_backend_is_stef(self, lowrank3):
        res = cp_als(lowrank3, 2, max_iters=2, tol=0)
        assert len(res.fits) == 2

    def test_unknown_init_raises(self, lowrank3):
        with pytest.raises(ValueError, match="init"):
            cp_als(lowrank3, 2, init="zeros")

    def test_result_model_shape(self, lowrank3):
        res = cp_als(lowrank3, 3, max_iters=2, tol=0)
        assert res.model.shape == lowrank3.shape
        assert res.model.rank == 3
        assert len(res.seconds_per_iteration) == res.iterations

    def test_hosvd_init_runs(self, lowrank3):
        res = cp_als(lowrank3, 2, max_iters=2, tol=0, init="hosvd")
        assert len(res.fits) == 2
