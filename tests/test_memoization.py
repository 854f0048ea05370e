"""Unit tests for memoization plans."""

import pytest

from repro.core import SAVE_ALL, SAVE_NONE, MemoPlan, enumerate_plans


class TestMemoPlan:
    def test_levels_sorted_and_deduped(self):
        plan = MemoPlan((3, 1, 1, 2))
        assert plan.save_levels == (1, 2, 3)

    def test_level_zero_rejected(self):
        with pytest.raises(ValueError):
            MemoPlan((0,))

    def test_validate_against_ndim(self):
        plan = MemoPlan((3,))
        plan.validate(5)  # levels 1..3 are fine for 5-D
        with pytest.raises(ValueError):
            plan.validate(4)  # 4-D allows only 1..2

    def test_saves(self):
        plan = MemoPlan((1, 3))
        assert plan.saves(1) and plan.saves(3)
        assert not plan.saves(2)


class TestSourceLevel:
    def test_saved_level_is_its_own_source(self):
        plan = MemoPlan((1, 2))
        assert plan.source_level(1, 4) == 1
        assert plan.source_level(2, 4) == 2

    def test_shallowest_saved_above(self):
        plan = MemoPlan((2,))
        assert plan.source_level(1, 4) == 2

    def test_falls_back_to_tensor(self):
        assert SAVE_NONE.source_level(1, 4) == 3
        assert SAVE_NONE.source_level(2, 4) == 3

    def test_mode0_rejected(self):
        with pytest.raises(ValueError):
            SAVE_NONE.source_level(0, 4)

    def test_leaf_mode_sources_from_tensor(self):
        plan = MemoPlan((1, 2))
        # Level d-1 is never saved; source_level(d-1) -> d-1 only via
        # fallback since save levels < d-1.
        assert plan.source_level(3, 4) == 3


class TestEnumeration:
    @pytest.mark.parametrize("ndim,count", [(2, 1), (3, 2), (4, 4), (5, 8)])
    def test_plan_counts(self, ndim, count):
        assert len(list(enumerate_plans(ndim))) == count

    def test_first_is_empty_last_is_full(self):
        plans = list(enumerate_plans(4))
        assert plans[0] == SAVE_NONE
        assert plans[-1] == SAVE_ALL(4)

    def test_all_unique(self):
        plans = list(enumerate_plans(5))
        assert len(set(plans)) == len(plans)


class TestSpaceAccounting:
    def test_memo_elements(self, csf4):
        plan = MemoPlan((1, 2))
        rank, threads = 4, 3
        expected = sum(
            (csf4.fiber_counts[i] + threads) * rank for i in (1, 2)
        )
        assert plan.memo_elements(csf4, rank, threads) == expected

    def test_memo_bytes_is_8x_elements(self, csf4):
        plan = MemoPlan((1,))
        assert plan.memo_bytes(csf4, 4, 2) == 8 * plan.memo_elements(csf4, 4, 2)

    def test_empty_plan_zero_space(self, csf4):
        assert SAVE_NONE.memo_elements(csf4, 8, 4) == 0

    def test_out_of_range_plan_raises(self, csf4):
        with pytest.raises(ValueError):
            MemoPlan((3,)).memo_elements(csf4, 4, 1)
