"""Unit tests for the Section IV data-movement model."""

import numpy as np
import pytest

from repro.core import DataMovementModel, MemoPlan, SAVE_NONE, TensorStats
from repro.parallel import MachineSpec

TINY_CACHE = MachineSpec("tiny", 2, cache_bytes=8 * 50)  # 50 elements
HUGE_CACHE = MachineSpec("huge", 2, cache_bytes=8 * 10**9)


def stats4():
    # 4 levels: m = (10, 40, 120, 400); lengths (16, 64, 256, 1024).
    return TensorStats(
        fiber_counts=(10, 40, 120, 400),
        level_lengths=(16, 64, 256, 1024),
        mode_order=(0, 1, 2, 3),
    )


class TestTensorStats:
    def test_from_csf(self, csf4):
        st = TensorStats.from_csf(csf4)
        assert st.fiber_counts == csf4.fiber_counts
        assert st.mode_order == csf4.mode_order
        assert st.ndim == 4

    def test_with_swapped_last_two(self):
        st = stats4()
        sw = st.with_swapped_last_two(77)
        assert sw.fiber_counts == (10, 40, 77, 400)
        assert sw.level_lengths == (16, 64, 1024, 256)
        assert sw.mode_order == (0, 1, 3, 2)


class TestDmFactor:
    def test_streaming_when_exceeds_cache(self):
        model = DataMovementModel(stats4(), rank=8, machine=TINY_CACHE)
        # Level 3 footprint 1024*8 > 50 -> stream x*R.
        assert model.dm_factor(3, 100) == 800

    def test_resident_when_fits(self):
        model = DataMovementModel(stats4(), rank=2, machine=TINY_CACHE)
        # Level 0 footprint 16*2=32 <= 50 -> min(32, x*2).
        assert model.dm_factor(0, 100) == 32
        assert model.dm_factor(0, 4) == 8

    def test_no_machine_streams(self):
        model = DataMovementModel(stats4(), rank=4, machine=None)
        assert model.dm_factor(0, 7) == 28

    def test_invalid_rank(self):
        with pytest.raises(ValueError):
            DataMovementModel(stats4(), rank=0)


class TestReadFormulas:
    def test_no_mem_read(self):
        model = DataMovementModel(stats4(), rank=4, machine=None)
        m = (10, 40, 120, 400)
        expected = sum(2 * mi + mi * 4 for mi in m)
        assert model.dm_no_mem_read() == expected

    def test_mem_k_read(self):
        model = DataMovementModel(stats4(), rank=4, machine=None)
        m = (10, 40, 120, 400)
        k = 2
        expected = sum(2 * m[j] + m[j] * 4 for j in range(k)) + m[k] * 4
        assert model.dm_mem_k_read(k) == expected

    def test_mode_read_uses_memo_when_available(self):
        model = DataMovementModel(stats4(), rank=4, machine=None)
        plan = MemoPlan((2,))
        assert model.mode_read(1, plan) == model.dm_mem_k_read(2)
        assert model.mode_read(2, plan) == model.dm_mem_k_read(2)
        # Leaf mode never has a memo source.
        assert model.mode_read(3, plan) == model.dm_no_mem_read()

    def test_mode_read_no_memo(self):
        model = DataMovementModel(stats4(), rank=4, machine=None)
        for u in range(4):
            assert model.mode_read(u, SAVE_NONE) == model.dm_no_mem_read()


class TestWriteFormulas:
    def test_mode0_write_includes_memos(self):
        model = DataMovementModel(stats4(), rank=4, machine=None)
        plan = MemoPlan((1, 2))
        expected = 16 * 4 + (40 + 120) * 4
        assert model.mode_write(0, plan) == expected

    def test_mode_u_write_is_dm_factor(self):
        model = DataMovementModel(stats4(), rank=4, machine=HUGE_CACHE)
        # Everything resident: min(N_u*R, m_u*R).
        assert model.mode_write(2, SAVE_NONE) == min(256 * 4, 120 * 4)


class TestTotals:
    def test_breakdown_sums(self):
        model = DataMovementModel(stats4(), rank=4, machine=None)
        plan = MemoPlan((1,))
        bd = model.breakdown(plan)
        assert np.isclose(bd.total, bd.total_reads + bd.total_writes)
        assert len(bd.reads_per_mode) == 4

    def test_memoization_saves_on_deep_tensors(self):
        """With long fibers (high compression), saving P^(1) must beat
        recomputing for the model, as in the vast-2015 example."""
        st = TensorStats(
            fiber_counts=(10, 100, 10_000, 1_000_000),
            level_lengths=(16, 128, 16_384, 65_536),
            mode_order=(0, 1, 2, 3),
        )
        model = DataMovementModel(st, rank=8, machine=None)
        assert model.total(MemoPlan((1,))) < model.total(SAVE_NONE)

    def test_memoization_hurts_when_partials_are_huge(self):
        """Barely-compressing partials (m_i ~ nnz) with cache-resident
        factor matrices make saving wasteful: streaming the ``m_k·R``
        partial dwarfs the cheap re-traversal — the uber story of
        Section IV-A (62M/22M reads/writes saving vs 24M/238K not)."""
        st = TensorStats(
            fiber_counts=(24, 4_392, 1_500_000, 3_300_000),
            level_lengths=(24, 183, 1_140, 1_717),
            mode_order=(1, 0, 2, 3),
        )
        model = DataMovementModel(st, rank=32, machine=HUGE_CACHE)
        assert model.total(SAVE_NONE) < model.total(MemoPlan((2,)))
        # ... while the tiny P^(1) is still worth saving.
        assert model.total(MemoPlan((1,))) < model.total(MemoPlan((2,)))

    def test_plan_validated(self):
        model = DataMovementModel(stats4(), rank=4)
        with pytest.raises(ValueError):
            model.breakdown(MemoPlan((3,)))
