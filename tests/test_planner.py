"""Tests for the exhaustive configuration planner."""

import numpy as np
import pytest

from repro.core import (
    DataMovementModel,
    MemoPlan,
    SAVE_NONE,
    count_swapped_fibers,
    plan_decomposition,
)
from repro.parallel import INTEL_CLX_18
from repro.tensor import CsfTensor, TABLE1_SPECS, generate


class TestSearchSpace:
    def test_configuration_count_4d(self, csf4):
        decision = plan_decomposition(csf4, rank=4)
        # 2 orders x 2^(d-2) plans.
        assert len(decision.configurations) == 2 * 4

    def test_configuration_count_no_swap(self, csf4):
        decision = plan_decomposition(csf4, rank=4, consider_swap=False)
        assert len(decision.configurations) == 4
        assert all(not c.swap_last_two for c in decision.configurations)

    def test_sorted_ascending(self, csf4):
        decision = plan_decomposition(csf4, rank=4)
        costs = [c.predicted_traffic for c in decision.configurations]
        assert costs == sorted(costs)

    def test_best_is_minimum(self, csf4):
        decision = plan_decomposition(csf4, rank=4, machine=INTEL_CLX_18)
        assert decision.best.predicted_traffic == min(
            c.predicted_traffic for c in decision.configurations
        )

    def test_best_matches_direct_model_evaluation(self, csf4):
        decision = plan_decomposition(csf4, rank=4)
        stats = decision.stats_base
        model = DataMovementModel(stats, 4)
        base_best = decision.best_with_swap(False)
        assert np.isclose(
            base_best.predicted_traffic, model.total(base_best.plan)
        )

    def test_swapped_stats_use_algorithm9(self, csf4):
        decision = plan_decomposition(csf4, rank=4)
        assert decision.stats_swapped is not None
        assert (
            decision.stats_swapped.fiber_counts[-2]
            == count_swapped_fibers(csf4)
        )


class TestRestrictedQueries:
    def test_best_with_swap(self, csf4):
        decision = plan_decomposition(csf4, rank=4)
        for swap in (False, True):
            c = decision.best_with_swap(swap)
            assert c.swap_last_two is swap
            others = [
                x.predicted_traffic
                for x in decision.configurations
                if x.swap_last_two is swap
            ]
            assert c.predicted_traffic == min(others)

    def test_best_with_plan(self, csf4):
        decision = plan_decomposition(csf4, rank=4)
        c = decision.best_with_plan(SAVE_NONE)
        assert c.plan == SAVE_NONE

    def test_best_with_missing_plan_raises(self, csf4):
        decision = plan_decomposition(csf4, rank=4, consider_swap=False)
        with pytest.raises(ValueError):
            decision.best_with_plan(MemoPlan((1, 2, 3)))

    def test_describe(self, csf4):
        decision = plan_decomposition(csf4, rank=4)
        text = decision.best.describe()
        assert "traffic" in text and "save" in text


class TestPaperStories:
    def test_delicious4d_prefers_swap(self):
        """The fiber-length inversion makes the swapped order compress
        more, so the planner should choose it (Section II-E)."""
        t = generate(TABLE1_SPECS["delicious-4d"], nnz=8000, seed=0)
        csf = CsfTensor.from_coo(t)
        decision = plan_decomposition(csf, rank=32)
        assert decision.swap_last_two

    def test_freebase_avoids_memoization(self):
        """Hyper-sparse tensors have partials as large as the tensor; the
        model should save nothing (Table II rows with ratio 0.00)."""
        t = generate(TABLE1_SPECS["freebase_sampled"], nnz=4000, seed=0)
        csf = CsfTensor.from_coo(t)
        decision = plan_decomposition(csf, rank=32, machine=INTEL_CLX_18)
        assert decision.plan.save_levels == ()
