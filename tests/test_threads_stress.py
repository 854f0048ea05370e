"""Race/stress harness for the ``threads`` and ``processes`` backends.

The paper's conflict-free scheme only earns its name if real concurrency
changes *nothing*: every MTTKRP output must be bit-identical between the
``serial`` backend and both concurrent backends (``threads`` and the
shared-memory ``processes`` pool), and the counted traffic must equal the
serial counter's tallies exactly — not approximately.
This module sweeps (seed, thread-count) combinations (the CI acceptance
floor is 20), hits the boundary-sharing edge cases at every CSF level, and
exercises the :class:`ReplicatedArray` lifecycle across repeated kernel
invocations.

``scripts/stress_threads.py`` runs the same checks standalone at
configurable scale.
"""

import numpy as np
import pytest

from repro.core import MemoPlan, MemoizedMttkrp, SAVE_NONE, enumerate_plans
from repro.ops import mttkrp_dense
from repro.parallel import ReplicatedArray, TrafficCounter, nnz_partition
from repro.tensor import CooTensor, CsfTensor, random_tensor
from tests.conftest import make_factors

SEEDS = range(5)
THREAD_COUNTS = (2, 3, 5, 8)


def _run(csf, factors, rank, threads, backend, plan, iters=1):
    """One engine run: per-level outputs + the counter snapshot."""
    counter = TrafficCounter(cache_elements=4096)
    engine = MemoizedMttkrp(
        csf, rank, plan=plan, num_threads=threads,
        exec_backend=backend, counter=counter,
    )
    try:
        outs = []
        for _ in range(iters):
            outs = [res for _, res in engine.iteration_results(factors)]
        return outs, counter.snapshot()
    finally:
        engine.close()


class TestSerialThreadsEquivalence:
    """The acceptance sweep: ≥ 20 (seed, thread-count) combinations,
    run for both concurrent backends against the serial oracle."""

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("threads", THREAD_COUNTS)
    def test_outputs_bit_identical_and_traffic_exact(
        self, seed, threads, backend
    ):
        tensor = random_tensor((13, 9, 7, 5), nnz=350 + 13 * seed, seed=seed)
        csf = CsfTensor.from_coo(tensor)
        factors = make_factors(tensor.shape, 4, seed=seed)
        plan = MemoPlan((1,)) if seed % 2 else MemoPlan((1, 2))
        serial_out, serial_snap = _run(csf, factors, 4, threads, "serial", plan)
        conc_out, conc_snap = _run(csf, factors, 4, threads, backend, plan)
        for a, b in zip(serial_out, conc_out):
            assert np.array_equal(a, b)  # bit-identical, not allclose
        assert serial_snap == conc_snap  # exact, category by category

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    @pytest.mark.parametrize("threads", THREAD_COUNTS)
    def test_repeated_iterations_stay_identical(self, threads, backend):
        """Buffer reuse across ALS iterations (the ReplicatedArray
        lifecycle) must not leak state between invocations."""
        tensor = random_tensor((11, 8, 6), nnz=300, seed=3)
        csf = CsfTensor.from_coo(tensor)
        factors = make_factors(tensor.shape, 3, seed=3)
        once, _ = _run(csf, factors, 3, threads, backend, MemoPlan((1,)))
        thrice, _ = _run(
            csf, factors, 3, threads, backend, MemoPlan((1,)), iters=3
        )
        for a, b in zip(once, thrice):
            assert np.array_equal(a, b)


class TestReplicatedArrayLifecycle:
    def test_mode0_twice_does_not_grow(self):
        """Satellite regression: without the reset lifecycle, re-running
        mode0 re-merged the stale stripes and the result doubled."""
        tensor = random_tensor((10, 8, 6), nnz=200, seed=7)
        csf = CsfTensor.from_coo(tensor)
        factors = make_factors(tensor.shape, 3, seed=7)
        dense = tensor.to_dense()
        engine = MemoizedMttkrp(csf, 3, plan=MemoPlan((1,)), num_threads=3)
        first = engine.mode0(factors)
        second = engine.mode0(factors)
        assert np.array_equal(first, second)
        assert np.allclose(
            second, mttkrp_dense(dense, factors, csf.mode_order[0])
        )

    def test_memo_not_double_counted_on_reuse(self):
        tensor = random_tensor((10, 8, 6), nnz=200, seed=8)
        csf = CsfTensor.from_coo(tensor)
        factors = make_factors(tensor.shape, 3, seed=8)
        engine = MemoizedMttkrp(csf, 3, plan=MemoPlan((1,)), num_threads=4)
        engine.mode0(factors)
        memo_first = engine.memo[1].copy()
        engine.mode0(factors)
        assert np.array_equal(engine.memo[1], memo_first)


class TestBoundaryConflicts:
    """Boundary-node sharing at every level under real threading."""

    def _chain_tensor(self):
        """A tensor whose nnz partition must cut through nodes at every
        level: a single root slice holding one long run of non-zeros plus
        enough structure at the deeper levels."""
        rng = np.random.default_rng(0)
        n = 240
        i0 = np.zeros(n, dtype=np.int64)          # one root slice
        i1 = np.repeat(np.arange(4), n // 4)      # 4 mid fibers
        i2 = np.tile(np.arange(n // 4), 4)        # long leaf runs
        vals = rng.standard_normal(n)
        return CooTensor.from_arrays(
            np.stack([i0, i1, i2], axis=0), vals, (1, 4, n // 4)
        )

    def test_every_level_has_shared_boundaries(self):
        tensor = self._chain_tensor()
        csf = CsfTensor.from_coo(tensor, (0, 1, 2))
        part = nnz_partition(csf, 6)
        shared = part.shared_boundary_nodes(csf)
        for level, nodes in enumerate(shared):
            assert nodes, f"expected shared boundary nodes at level {level}"

    @pytest.mark.parametrize("backend", ["serial", "threads", "processes"])
    def test_boundary_conflicts_resolved_exactly(self, backend):
        tensor = self._chain_tensor()
        csf = CsfTensor.from_coo(tensor, (0, 1, 2))
        factors = make_factors(tensor.shape, 4, seed=1)
        dense = tensor.to_dense()
        engine = MemoizedMttkrp(
            csf, 4, plan=MemoPlan((1,)), num_threads=6, exec_backend=backend
        )
        try:
            for mode, result in engine.iteration_results(factors):
                assert np.allclose(result, mttkrp_dense(dense, factors, mode))
        finally:
            engine.close()

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_serial_identical_on_boundary_tensor(self, backend):
        tensor = self._chain_tensor()
        csf = CsfTensor.from_coo(tensor, (0, 1, 2))
        factors = make_factors(tensor.shape, 4, seed=2)
        s, snap_s = _run(csf, factors, 4, 6, "serial", MemoPlan((1,)))
        t, snap_t = _run(csf, factors, 4, 6, backend, MemoPlan((1,)))
        for a, b in zip(s, t):
            assert np.array_equal(a, b)
        assert snap_s == snap_t


class TestDegenerateSchedules:
    """threads backend beyond the smoke test: starved and empty ranges."""

    def test_more_threads_than_root_slices(self):
        # 2 root slices, 8 threads: the slice deal idles 6 of them.
        tensor = random_tensor((2, 9, 8), nnz=160, seed=4)
        csf = CsfTensor.from_coo(tensor, (0, 1, 2))
        assert csf.fiber_counts[0] <= 2
        factors = make_factors(tensor.shape, 3, seed=4)
        dense = tensor.to_dense()
        for backend in ("serial", "threads", "processes"):
            engine = MemoizedMttkrp(
                csf, 3, plan=SAVE_NONE, num_threads=8,
                partition="slice", exec_backend=backend,
            )
            try:
                for mode, result in engine.iteration_results(factors):
                    assert np.allclose(
                        result, mttkrp_dense(dense, factors, mode)
                    )
            finally:
                engine.close()

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_more_threads_than_nonzeros(self, backend):
        # 5 non-zeros, 12 threads: most leaf ranges are empty.
        tensor = random_tensor((6, 5, 4), nnz=5, seed=5)
        csf = CsfTensor.from_coo(tensor)
        factors = make_factors(tensor.shape, 2, seed=5)
        dense = tensor.to_dense()
        s, snap_s = _run(csf, factors, 2, 12, "serial", SAVE_NONE)
        t, snap_t = _run(csf, factors, 2, 12, backend, SAVE_NONE)
        for a, b, (mode, _) in zip(
            s, t, MemoizedMttkrp(csf, 2, num_threads=1).iteration_results(factors)
        ):
            assert np.array_equal(a, b)
            assert np.allclose(a, mttkrp_dense(dense, factors, mode))
        assert snap_s == snap_t


class TestRaceSanitizer:
    """REPRO_SANITIZE=1: view() rejects cross-thread overlapping buffer
    slots, extending the always-on same-thread guard."""

    def test_legal_boundary_sharing_passes(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        rep = ReplicatedArray(10, 2, 3)
        # Adjacent threads share exactly one boundary node — the scheme's
        # legal overlap; buffer slots stay disjoint after the +th shift.
        rep.view(0, 0, 4)
        rep.view(1, 3, 8)
        rep.view(2, 7, 10)
        assert rep.merge().shape == (10, 2)

    def test_cross_thread_slot_overlap_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        rep = ReplicatedArray(10, 2, 3)
        rep.view(0, 0, 4)  # buffer slots [0, 4)
        with pytest.raises(ValueError, match="REPRO_SANITIZE"):
            rep.view(1, 2, 8)  # buffer slots [3, 9): slot 3 races

    def test_non_adjacent_thread_overlap_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        rep = ReplicatedArray(12, 2, 4)
        rep.view(0, 0, 5)  # slots [0, 5)
        with pytest.raises(ValueError, match="cross-thread write race"):
            rep.view(3, 1, 4)  # slots [4, 7): slot 4 races

    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        rep = ReplicatedArray(10, 2, 3)
        rep.view(0, 0, 4)
        rep.view(1, 2, 8)  # a real race, but the check costs O(views²)
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        rep0 = ReplicatedArray(10, 2, 3)
        rep0.view(0, 0, 4)
        rep0.view(1, 2, 8)

    def test_same_thread_guard_still_active(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        rep = ReplicatedArray(10, 2, 2)
        rep.view(0, 0, 4)
        with pytest.raises(ValueError, match="overlaps its earlier"):
            rep.view(0, 2, 6)

    def test_reset_rearms_cleanly(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        rep = ReplicatedArray(10, 2, 2)
        rep.view(0, 0, 6)
        rep.reset()
        rep.view(1, 0, 6)  # would race with thread 0's pre-reset view

    @pytest.mark.parametrize("backend", ["serial", "threads", "processes"])
    def test_shipped_kernels_are_race_free_under_sanitizer(
        self, monkeypatch, backend
    ):
        """The whole engine (all plans' mode0 sweeps, buffer reuse across
        iterations) runs clean with the sanitizer armed — the shipped
        partitioning really does produce conflict-free view ranges.
        Under the processes backend the coordinator records exactly the
        ranges the workers wrote, so the sanitizer guards it too."""
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        tensor = random_tensor((13, 9, 7), nnz=400, seed=11)
        csf = CsfTensor.from_coo(tensor)
        factors = make_factors(tensor.shape, 4, seed=11)
        dense = tensor.to_dense()
        engine = MemoizedMttkrp(
            csf, 4, plan=MemoPlan((1,)), num_threads=5, exec_backend=backend
        )
        try:
            for _ in range(2):  # exercises the reset lifecycle too
                for mode, result in engine.iteration_results(factors):
                    assert np.allclose(
                        result, mttkrp_dense(dense, factors, mode)
                    )
        finally:
            engine.close()


class TestAllPlansConcurrently:
    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_all_plans_all_partitions_smoke(self, backend):
        """Cross product of plans × partitions under each concurrent
        backend agrees with the dense oracle (the old suite only smoked
        one)."""
        tensor = random_tensor((7, 6, 5, 4), nnz=180, seed=9)
        dense = tensor.to_dense()
        factors = make_factors(tensor.shape, 2, seed=9)
        csf = CsfTensor.from_coo(tensor)
        for plan in enumerate_plans(tensor.ndim):
            for partition in ("nnz", "slice"):
                engine = MemoizedMttkrp(
                    csf, 2, plan=plan, num_threads=4,
                    partition=partition, exec_backend=backend,
                )
                try:
                    for mode, result in engine.iteration_results(factors):
                        assert np.allclose(
                            result, mttkrp_dense(dense, factors, mode)
                        ), (plan, partition, mode)
                finally:
                    engine.close()
