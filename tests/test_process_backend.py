"""Unit tests for the ``processes`` backend plumbing.

Covers the executor surface (:class:`SimulatedPool` dispatch rules, the
shared worker-pool registry) and the shared-memory layer
(:class:`SharedArena` / :func:`attach` round-trips, the zero-copy factor
slot update, :class:`ReplicatedArray` external buffers).  The end-to-end
bit-identity of the engine under this backend lives in
``tests/test_threads_stress.py``.
"""

import numpy as np
import pytest

from repro.parallel import (
    EXEC_BACKENDS,
    ReplicatedArray,
    SharedArena,
    ShmToken,
    SimulatedPool,
    attach,
    shutdown_worker_pools,
)
from repro.parallel.shm import attached_segment_count


def _double_task(payload):
    """Module-level task: picklable across the process boundary."""
    th, x = payload
    return (th, x * 2)


def _sum_task(token):
    """Read a shared segment inside the worker and reduce it."""
    return float(attach(token).sum())


class TestSimulatedPool:
    def test_exec_backends_exposes_all_three(self):
        assert EXEC_BACKENDS == ("serial", "threads", "processes")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            SimulatedPool(2, "mpi")

    @pytest.mark.parametrize("backend", EXEC_BACKENDS)
    def test_run_tasks_results_in_payload_order(self, backend):
        pool = SimulatedPool(3, backend)
        payloads = [(th, th + 10) for th in range(3)]
        assert pool.run_tasks(_double_task, payloads) == [
            (0, 20), (1, 22), (2, 24)
        ]

    def test_run_tasks_single_thread_processes_runs_inline(self):
        # num_threads == 1 short-circuits: no pool spawn for serial work.
        pool = SimulatedPool(1, "processes")
        assert pool.run_tasks(_double_task, [(0, 1)]) == [(0, 2)]

    def test_shutdown_worker_pools_idempotent_and_respawns(self):
        pool = SimulatedPool(2, "processes")
        assert pool.run_tasks(_double_task, [(0, 1), (1, 2)]) == [
            (0, 2), (1, 4)
        ]
        shutdown_worker_pools()
        shutdown_worker_pools()  # idempotent
        # A fresh dispatch transparently builds a new shared pool.
        assert pool.run_tasks(_double_task, [(0, 3)]) == [(0, 6)]


class TestSharedArena:
    def test_share_round_trip(self):
        arena = SharedArena()
        try:
            src = np.arange(12, dtype=np.float64).reshape(3, 4)
            token = arena.share(src)
            assert isinstance(token, ShmToken)
            assert token.shape == (3, 4)
            assert np.array_equal(arena.array(token), src)
            assert np.array_equal(attach(token), src)
        finally:
            arena.close()

    def test_updates_visible_through_attach_without_resharing(self):
        """The zero-copy contract: the coordinator writes into the slot,
        every existing attachment sees the new values."""
        arena = SharedArena()
        try:
            token = arena.zeros((4, 2))
            view = attach(token)
            assert view.sum() == 0.0
            arena.array(token)[...] = 7.0
            assert view.sum() == 7.0 * 8
        finally:
            arena.close()

    def test_worker_reads_coordinator_update(self):
        """A forked worker attaches the segment and sees in-place slot
        updates across successive dispatches — no re-pickling."""
        arena = SharedArena()
        pool = SimulatedPool(2, "processes")
        try:
            token = arena.share(np.ones((5, 3)))
            assert pool.run_tasks(_sum_task, [token, token]) == [15.0, 15.0]
            arena.array(token)[...] = 2.0
            assert pool.run_tasks(_sum_task, [token, token]) == [30.0, 30.0]
        finally:
            arena.close()

    def test_len_counts_segments(self):
        arena = SharedArena()
        try:
            assert len(arena) == 0
            arena.zeros((2, 2))
            arena.share(np.ones(3))
            assert len(arena) == 2
        finally:
            arena.close()
        assert len(arena) == 0

    def test_close_idempotent_and_unlinks(self):
        arena = SharedArena()
        token = arena.zeros((2, 2))
        arena.close()
        arena.close()  # idempotent
        # The segment is gone: a fresh (uncached) attach must fail.
        fresh = ShmToken(token.name + "-x", token.shape, token.dtype)
        with pytest.raises(FileNotFoundError):
            attach(fresh)

    def test_attach_cache_reuses_mapping(self):
        arena = SharedArena()
        try:
            token = arena.zeros((3, 3))
            before = attached_segment_count()
            first = attach(token)
            after_first = attached_segment_count()
            second = attach(token)
            assert second is first  # same cached view, no re-mmap
            assert attached_segment_count() == after_first
            assert after_first >= before
        finally:
            arena.close()

    def test_token_nbytes(self):
        token = ShmToken("t", (3, 4), "<f8")
        assert token.nbytes() == 3 * 4 * 8


class TestReplicatedArrayExternalBuffer:
    def test_buffer_shape_validated(self):
        with pytest.raises(ValueError, match="buffer shape"):
            ReplicatedArray(10, 2, 3, buffer=np.zeros((10, 2)))

    def test_external_buffer_zeroed_and_used(self):
        buf = np.full((10 + 3, 2), 99.0)
        rep = ReplicatedArray(10, 2, 3, buffer=buf)
        assert rep.buffer is buf
        assert buf.sum() == 0.0  # init must zero caller storage
        rep.view(0, 0, 4)[...] = 1.0
        rep.view(1, 3, 8)[...] = 1.0
        merged = rep.merge()
        assert merged.shape == (10, 2)
        # Row 3 is the shared boundary node: both stripes contribute.
        assert np.array_equal(merged[3], [2.0, 2.0])

    def test_record_only_view_matches_worker_writes(self):
        """The coordinator-side pattern for the processes backend: the
        worker writes the shifted stripe directly into shared storage and
        the coordinator only *records* the range via view()."""
        buf = np.zeros((8 + 2, 2))
        rep = ReplicatedArray(8, 2, 2, buffer=buf)
        # "Worker" writes thread 1's stripe for nodes [2, 6) at slot +1.
        buf[2 + 1 : 6 + 1] += 5.0
        rep.view(1, 2, 6)  # record only — no coordinator-side write
        merged = rep.merge()
        assert np.array_equal(merged[2:6], np.full((4, 2), 5.0))
        assert merged[:2].sum() == 0.0 and merged[6:].sum() == 0.0
