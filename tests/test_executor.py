"""Unit tests for the simulated pool and boundary-replicated buffers."""

import numpy as np
import pytest

from repro.parallel import ReplicatedArray, SimulatedPool


class TestSimulatedPool:
    def test_invalid_backend_raises(self):
        with pytest.raises(ValueError):
            SimulatedPool(2, "mpi")

    def test_invalid_threads_raise(self):
        with pytest.raises(ValueError):
            SimulatedPool(0)


class TestReplicatedArray:
    def test_buffer_shape_is_n_plus_t(self):
        rep = ReplicatedArray(10, 4, 3)
        assert rep.buffer.shape == (13, 4)
        assert rep.nbytes == 13 * 4 * 8

    def test_disjoint_writes_merge_exactly(self):
        rep = ReplicatedArray(6, 2, 2)
        rep.view(0, 0, 3)[:] = 1.0
        rep.view(1, 3, 6)[:] = 2.0
        merged = rep.merge()
        assert np.allclose(merged[:3], 1.0)
        assert np.allclose(merged[3:], 2.0)

    def test_shared_boundary_row_sums(self):
        # Both threads contribute to row 3 (the boundary node).
        rep = ReplicatedArray(6, 2, 2)
        rep.view(0, 0, 4)[:] += 1.0  # rows 0..3 from thread 0
        rep.view(1, 3, 6)[:] += 2.0  # rows 3..5 from thread 1
        merged = rep.merge()
        assert np.allclose(merged[3], 3.0)  # 1 + 2
        assert np.allclose(merged[:3], 1.0)
        assert np.allclose(merged[4:], 2.0)

    def test_shifted_slots_never_collide(self):
        # Thread th writes nodes [a_th, b_th] with b_th == a_{th+1}; the
        # underlying buffer slots must all be distinct.
        n, t = 20, 5
        rep = ReplicatedArray(n, 1, t)
        bounds = [0, 4, 9, 13, 17, n]
        slots = set()
        for th in range(t):
            lo, hi = bounds[th], min(bounds[th + 1] + 1, n)
            for node in range(lo, hi):
                slot = node + th
                assert slot not in slots or node == bounds[th]  # boundary only
            rep.view(th, lo, hi)[:] += 1.0
        merged = rep.merge()
        # Interior rows touched once, boundary rows twice.
        expected = np.ones(n)
        for b in bounds[1:-1]:
            expected[b] = 2.0
        assert np.allclose(merged[:, 0], expected)

    def test_view_bounds_checked(self):
        rep = ReplicatedArray(4, 2, 2)
        with pytest.raises(ValueError):
            rep.view(0, 0, 5)
        with pytest.raises(ValueError):
            rep.view(2, 0, 1)

    def test_invalid_dims_raise(self):
        with pytest.raises(ValueError):
            ReplicatedArray(-1, 2, 1)
        with pytest.raises(ValueError):
            ReplicatedArray(4, 0, 1)


class TestReplicatedArrayLifecycle:
    def test_reset_clears_written_stripes(self):
        rep = ReplicatedArray(6, 2, 2)
        rep.view(0, 0, 3)[:] = 1.0
        rep.view(1, 3, 6)[:] = 2.0
        rep.reset()
        assert np.all(rep.buffer == 0.0)
        assert np.allclose(rep.merge(), 0.0)

    def test_reuse_after_reset_matches_fresh(self):
        reused = ReplicatedArray(8, 3, 3)
        reused.view(0, 0, 4)[:] = 5.0
        reused.view(1, 4, 8)[:] = 7.0
        reused.reset()
        fresh = ReplicatedArray(8, 3, 3)
        for rep in (reused, fresh):
            rep.view(0, 0, 3)[:] += 1.0
            rep.view(1, 2, 6)[:] += 2.0  # boundary row 2 shared
            rep.view(2, 6, 8)[:] += 3.0
        assert np.array_equal(reused.merge(), fresh.merge())

    def test_repeat_view_without_reset_rejected(self):
        rep = ReplicatedArray(6, 2, 2)
        rep.view(0, 0, 3)
        with pytest.raises(ValueError, match="reset"):
            rep.view(0, 0, 3)

    def test_partial_overlap_same_thread_rejected(self):
        rep = ReplicatedArray(10, 2, 2)
        rep.view(0, 0, 5)
        with pytest.raises(ValueError, match="overlap"):
            rep.view(0, 4, 8)

    def test_disjoint_same_thread_views_allowed(self):
        # The same thread may take multiple views as long as they are
        # disjoint (e.g. one kernel writing two separate node ranges).
        rep = ReplicatedArray(10, 2, 2)
        rep.view(0, 0, 3)[:] = 1.0
        rep.view(0, 5, 8)[:] = 2.0
        merged = rep.merge()
        assert np.allclose(merged[:3], 1.0)
        assert np.allclose(merged[5:8], 2.0)

    def test_different_threads_may_share_boundary(self):
        # Cross-thread overlap at a boundary node is the whole point of
        # replication; only same-thread overlap is a bug.
        rep = ReplicatedArray(6, 2, 2)
        rep.view(0, 0, 4)[:] = 1.0
        rep.view(1, 3, 6)[:] = 1.0  # row 3 shared with thread 0
        assert np.allclose(rep.merge()[3], 2.0)

    def test_empty_view_needs_no_reset(self):
        rep = ReplicatedArray(6, 2, 3)
        rep.view(1, 2, 2)
        rep.view(1, 2, 2)  # empty ranges record nothing
        rep.view(1, 0, 6)[:] = 1.0
        assert np.allclose(rep.merge(), 1.0)
