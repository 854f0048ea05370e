"""Integration tests: end-to-end paper stories on Table-I generators."""

import numpy as np
import pytest

from repro.analysis import (
    measure_method,
    model_vs_measured,
    ranking_agreement,
    relative_performance,
    run_comparison,
)
from repro.core import Stef, Stef2
from repro.cpd import cp_als
from repro.parallel import INTEL_CLX_18
from repro.tensor import (
    TABLE1_SPECS,
    CsfTensor,
    generate,
)


class TestEndToEndCpd:
    @pytest.mark.parametrize("name", ["uber", "nips", "chicago-crime-comm"])
    def test_cpd_on_table1_generators(self, name):
        t = generate(TABLE1_SPECS[name], nnz=1500, seed=0)
        res = cp_als(t, 8, engine=Stef(t, 8, num_threads=4), max_iters=5, tol=0)
        assert len(res.fits) == 5
        assert np.all(np.diff(res.fits) > -1e-6)

    def test_cpd_5d(self):
        t = generate(TABLE1_SPECS["vast-2015-mc1-5d"], nnz=1200, seed=0)
        res = cp_als(t, 4, engine=Stef2(t, 4, num_threads=3), max_iters=3, tol=0)
        assert len(res.fits) == 3

    def test_stef_and_stef2_same_trajectory(self):
        t = generate(TABLE1_SPECS["enron"], nnz=1500, seed=1)
        r1 = cp_als(t, 4, engine=Stef(t, 4, num_threads=2), max_iters=4, tol=0, seed=3)
        r2 = cp_als(t, 4, engine=Stef2(t, 4, num_threads=2), max_iters=4, tol=0, seed=3)
        assert np.allclose(r1.fits, r2.fits, atol=1e-8)


class TestFigureShapes:
    """Qualitative shape claims of Figures 3/4 on scaled tensors."""

    @pytest.fixture(scope="class")
    def vast_grid(self):
        t = generate(TABLE1_SPECS["vast-2015-mc1-3d"], nnz=15_000, seed=0)
        return run_comparison(
            {"vast": t},
            rank=32,
            machine=INTEL_CLX_18,
            methods=("stef", "alto", "splatt-all"),
            num_threads=18,
        )

    def test_stef_beats_slice_methods_on_vast(self, vast_grid):
        """Slice-parallel methods starve on vast's 2-slice root; STeF's
        fine-grained distribution must win by a wide margin."""
        rel = relative_performance(vast_grid)["vast"]
        assert rel["stef"] > 2.0 * rel["splatt-all"]

    def test_alto_competitive_on_vast(self, vast_grid):
        """ALTO's flat balanced layout also avoids the slice trap — the
        one case the paper concedes to ALTO."""
        rel = relative_performance(vast_grid)["vast"]
        assert rel["alto"] > rel["splatt-all"]

    def test_memoization_helps_on_compressing_tensor(self):
        """On flickr-4d-like structure memoization pays; STeF's simulated
        cost must beat splatt-1 (same CSF, no memoization)."""
        t = generate(TABLE1_SPECS["flickr-4d"], nnz=10_000, seed=0)
        grid = run_comparison(
            {"flickr": t},
            rank=32,
            machine=INTEL_CLX_18,
            methods=("stef", "splatt-1", "splatt-all"),
            num_threads=8,
        )
        rel = relative_performance(grid)["flickr"]
        assert rel["stef"] > rel["splatt-1"]


class TestModelValidation:
    def test_model_ranking_agrees_with_counted_traffic(self):
        """Integration-level check of the Section IV model: across all
        plans on a 4-D tensor the predicted and counted traffic must
        rank configurations concordantly."""
        t = generate(TABLE1_SPECS["enron"], nnz=6000, seed=0)
        csf = CsfTensor.from_coo(t)
        entries = model_vs_measured(csf, 32, INTEL_CLX_18, num_threads=4)
        assert ranking_agreement(entries) > 0.3

    def test_model_chosen_plan_close_to_best_measured(self):
        """The model's pick must be within 25% of the best measured
        configuration (it need not be optimal, just good)."""
        t = generate(TABLE1_SPECS["flickr-4d"], nnz=8000, seed=0)
        csf = CsfTensor.from_coo(t)
        entries = model_vs_measured(csf, 32, INTEL_CLX_18, num_threads=4)
        best_measured = min(e.measured for e in entries)
        chosen = min(entries, key=lambda e: e.predicted)
        assert chosen.measured <= 1.25 * best_measured


class TestPreprocessingOverhead:
    def test_planning_cheaper_than_mttkrp_set(self):
        """Fig. 5's claim: Algorithm 9 + model search costs less than one
        full MTTKRP set."""
        t = generate(TABLE1_SPECS["delicious-4d"], nnz=15_000, seed=0)
        s = Stef(t, 32, num_threads=4)
        m = measure_method("stef", t, 32, INTEL_CLX_18, num_threads=4)
        assert s.preprocessing_seconds < m.wall_seconds


class TestSpaceRequirements:
    def test_memo_ratio_bounded(self):
        """Table II: the model-chosen memo footprint stays a modest
        fraction of CSF+factors storage (average 0.35-0.45, max 2.34)."""
        import numpy as np

        for name in ("uber", "enron", "nips"):
            t = generate(TABLE1_SPECS[name], nnz=4000, seed=0)
            s = Stef(t, 32, machine=INTEL_CLX_18, num_threads=4)
            factors_bytes = sum(n * 32 * 8 for n in t.shape)
            denom = s.csf.total_bytes() + factors_bytes
            from repro.cpd import random_init

            s.mttkrp_level(random_init(t.shape, 32, 0), 0)
            ratio = s.memo_bytes() / denom
            assert ratio < 3.0, name
