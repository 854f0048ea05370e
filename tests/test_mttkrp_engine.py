"""Tests for the memoized MTTKRP engine (Algorithms 4-8) against the
dense oracle, across plans, thread counts, partitions and backends."""

import numpy as np
import pytest

from repro.core import MemoPlan, MemoizedMttkrp, SAVE_NONE, enumerate_plans
from repro.ops import mttkrp_dense
from repro.parallel import TrafficCounter
from repro.tensor import CsfTensor
from tests.conftest import make_factors


@pytest.fixture
def setup4(coo4):
    csf = CsfTensor.from_coo(coo4, (0, 1, 2, 3))
    factors = make_factors(coo4.shape, 4, seed=42)
    dense = coo4.to_dense()
    return csf, factors, dense


class TestCorrectness:
    @pytest.mark.parametrize("plan_levels", [(), (1,), (2,), (1, 2)])
    @pytest.mark.parametrize("threads", [1, 3, 6])
    def test_all_modes_all_plans(self, setup4, plan_levels, threads):
        csf, factors, dense = setup4
        engine = MemoizedMttkrp(
            csf, 4, plan=MemoPlan(plan_levels), num_threads=threads
        )
        for mode, result in engine.iteration_results(factors):
            assert np.allclose(result, mttkrp_dense(dense, factors, mode)), mode

    @pytest.mark.parametrize("partition", ["nnz", "slice"])
    def test_partition_strategies_agree(self, setup4, partition):
        csf, factors, dense = setup4
        engine = MemoizedMttkrp(
            csf, 4, plan=MemoPlan((1,)), num_threads=4, partition=partition
        )
        for mode, result in engine.iteration_results(factors):
            assert np.allclose(result, mttkrp_dense(dense, factors, mode))

    def test_threads_backend_matches_serial(self, setup4):
        csf, factors, dense = setup4
        serial = MemoizedMttkrp(csf, 4, plan=MemoPlan((1, 2)), num_threads=4)
        threaded = MemoizedMttkrp(
            csf, 4, plan=MemoPlan((1, 2)), num_threads=4, exec_backend="threads"
        )
        rs = serial.iteration_results(factors)
        rt = threaded.iteration_results(factors)
        for (m1, a), (m2, b) in zip(rs, rt):
            assert m1 == m2
            assert np.allclose(a, b)

    def test_permuted_csf_order(self, coo4):
        factors = make_factors(coo4.shape, 3, seed=1)
        dense = coo4.to_dense()
        csf = CsfTensor.from_coo(coo4, (2, 0, 3, 1))
        engine = MemoizedMttkrp(csf, 3, plan=MemoPlan((2,)), num_threads=2)
        for mode, result in engine.iteration_results(factors):
            assert np.allclose(result, mttkrp_dense(dense, factors, mode))

    def test_3d_and_5d(self, coo3, coo5):
        for coo, rank in ((coo3, 3), (coo5, 2)):
            dense = coo.to_dense()
            factors = make_factors(coo.shape, rank, seed=2)
            for plan in enumerate_plans(coo.ndim):
                engine = MemoizedMttkrp(
                    CsfTensor.from_coo(coo), rank, plan=plan, num_threads=3
                )
                for mode, result in engine.iteration_results(factors):
                    assert np.allclose(
                        result, mttkrp_dense(dense, factors, mode)
                    ), (coo.ndim, plan, mode)


class TestMemoSemantics:
    def test_memo_populated_per_plan(self, setup4):
        csf, factors, _ = setup4
        engine = MemoizedMttkrp(csf, 4, plan=MemoPlan((1,)), num_threads=2)
        engine.mode0(factors)
        assert set(engine.memo) == {1}
        assert engine.memo[1].shape == (csf.fiber_counts[1], 4)

    def test_memo_refreshed_on_mode0(self, setup4):
        csf, factors, dense = setup4
        engine = MemoizedMttkrp(csf, 4, plan=MemoPlan((1,)), num_threads=2)
        engine.mode0(factors)
        first = engine.memo[1].copy()
        factors2 = make_factors(csf.shape, 4, seed=99)
        engine.mode0(factors2)
        assert not np.allclose(engine.memo[1], first)
        res = engine.mode_level(factors2, 1)
        assert np.allclose(res, mttkrp_dense(dense, factors2, csf.mode_order[1]))

    def test_missing_memo_raises(self, setup4):
        csf, factors, _ = setup4
        engine = MemoizedMttkrp(csf, 4, plan=MemoPlan((1,)), num_threads=2)
        with pytest.raises(RuntimeError, match="mode0"):
            engine.mode_level(factors, 1)

    def test_memo_bytes(self, setup4):
        csf, factors, _ = setup4
        engine = MemoizedMttkrp(csf, 4, plan=MemoPlan((1, 2)), num_threads=2)
        assert engine.memo_bytes() == 0
        engine.mode0(factors)
        expected = (csf.fiber_counts[1] + csf.fiber_counts[2]) * 4 * 8
        assert engine.memo_bytes() == expected

    def test_invalid_plan_for_ndim(self, coo3):
        csf = CsfTensor.from_coo(coo3)
        with pytest.raises(ValueError):
            MemoizedMttkrp(csf, 2, plan=MemoPlan((2,)))

    def test_invalid_partition_name(self, setup4):
        csf, _, _ = setup4
        with pytest.raises(ValueError, match="partition"):
            MemoizedMttkrp(csf, 2, partition="hash")

    def test_wrong_factor_count_raises(self, setup4):
        csf, factors, _ = setup4
        engine = MemoizedMttkrp(csf, 4)
        with pytest.raises(ValueError, match="factor matrices"):
            engine.mode0(factors[:2])

    def test_bad_level_raises(self, setup4):
        csf, factors, _ = setup4
        engine = MemoizedMttkrp(csf, 4)
        engine.mode0(factors)
        with pytest.raises(ValueError):
            engine.mode_level(factors, 7)


class TestTrafficCharging:
    def test_memo_plan_changes_traffic(self, setup4):
        csf, factors, _ = setup4
        def run(plan):
            c = TrafficCounter()
            engine = MemoizedMttkrp(csf, 4, plan=plan, num_threads=2, counter=c)
            engine.iteration_results(factors)
            return c

        none = run(SAVE_NONE)
        some = run(MemoPlan((1,)))
        assert none.total != some.total
        assert "w:memo" in some.by_category
        assert "w:memo" not in none.by_category
        assert "r:memo" in some.by_category

    def test_structure_and_factor_categories_present(self, setup4):
        csf, factors, _ = setup4
        c = TrafficCounter()
        engine = MemoizedMttkrp(csf, 4, num_threads=2, counter=c)
        engine.iteration_results(factors)
        assert c.by_category["r:structure"] > 0
        assert c.by_category["r:factor"] > 0
        assert c.writes > 0


class TestPlanTimeOperators:
    """The engine builds its reduction operators once and owns them."""

    # threads runs the process task bodies in this interpreter, so a task
    # that rebuilt its operators would be counted; a process worker's
    # builds would not reach these counters (see the next test).
    @pytest.mark.parametrize("exec_backend", ["serial", "threads"])
    def test_sets_after_the_first_build_no_operator(
        self, monkeypatch, coo4, exec_backend
    ):
        from repro.core import csf_kernels, mttkrp
        from repro.engines import create_engine

        calls = {"plan": 0, "scatter": 0, "leaf_ttm": 0, "leaf_scatter": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        # The engine's plan builder (gathers, counts, sweep operators).
        monkeypatch.setattr(mttkrp, "block_plan", counted("plan", mttkrp.block_plan))
        monkeypatch.setattr(
            mttkrp, "scatter_operator", counted("scatter", mttkrp.scatter_operator)
        )
        # The value-weighted leaf operators: W inside every leaf plan's
        # build, M beside the scatter operators.
        monkeypatch.setattr(
            csf_kernels, "leaf_ttm_operator",
            counted("leaf_ttm", csf_kernels.leaf_ttm_operator),
        )
        monkeypatch.setattr(
            mttkrp, "leaf_scatter_operator",
            counted("leaf_scatter", mttkrp.leaf_scatter_operator),
        )
        factors = make_factors(coo4.shape, 4, seed=3)
        # P^(2) saved: a memo-direct level, a recompute from the memo and
        # the leaf kernel all run, so every kind of operator is exercised.
        with create_engine(
            "stef", coo4, 4, num_threads=3, plan=MemoPlan((2,)),
            swap_last_two=False, exec_backend=exec_backend,
        ) as engine:
            first = engine.iteration_results(factors)
            built = dict(calls)
            assert all(n > 0 for n in built.values()), built
            # One W and one M per block: without a machine model each of
            # the 3 threads is its own block.
            assert built["leaf_ttm"] == built["leaf_scatter"] == 3
            for _ in range(3):
                again = engine.iteration_results(factors)
            assert calls == built
            for (mode_a, a), (mode_b, b) in zip(first, again):
                assert mode_a == mode_b and np.array_equal(a, b)

    def test_process_tasks_wrap_the_shared_operator_arrays(self, coo4):
        """Under processes a task's plan is the engine's, re-wrapped: its
        gathers and counts are views of one shared segment per dtype, its
        operators wrap the shared row pointers and basis, equal to the
        in-process ones, with no index work.  The leaf TTM operator W
        (level d-2 of the leaf plan) views the shared CSF values and its
        packed columns instead of the basis."""
        from repro.core.proc_tasks import Packed, resolve_plan
        from repro.parallel.shm import attach

        csf = CsfTensor.from_coo(coo4, (0, 1, 2, 3))
        kwargs = dict(plan=MemoPlan((2,)), num_threads=3)
        local = MemoizedMttkrp(csf, 4, **kwargs)
        leaf = csf.ndim - 1
        with MemoizedMttkrp(csf, 4, exec_backend="processes", **kwargs) as shared:
            assert len(shared._plans) == len(local._plans) == 3
            wrapped_w = 0
            basis, segments = set(), set()
            for spec, expected in zip(shared._plans, local._plans):
                assert spec.keys() == expected.keys()
                for r, family in spec.items():
                    got = resolve_plan(family)
                    for key in ("gather", "counts"):
                        for packed, a, b in zip(family[key], got[key], expected[r][key]):
                            assert isinstance(packed, Packed)
                            assert np.shares_memory(a, attach(packed.token))
                            assert np.array_equal(a, b)
                            segments.add(packed.token.name)
                    assert got["ops"].keys() == expected[r]["ops"].keys()
                    for level, op in got["ops"].items():
                        packed = family["ops"][level]
                        assert np.shares_memory(op.indptr, attach(packed.indptr.token))
                        if r == leaf and level == leaf - 1:
                            values = attach(packed.data.token)
                            assert np.array_equal(values, csf.values)
                            assert np.shares_memory(op.data, values)
                            assert np.shares_memory(
                                op.indices, attach(packed.indices.token)
                            )
                            wrapped_w += 1
                        else:
                            assert np.shares_memory(op.data, attach(packed.data.token))
                            basis.add((packed.data.token, packed.indices.token))
                        want = expected[r]["ops"][level]
                        assert np.array_equal(op.indptr, want.indptr)
                        assert np.array_equal(op.indices, want.indices)
                        assert np.array_equal(op.data, want.data)
                        assert op.shape == want.shape
            assert wrapped_w == 3
            # Every indicator views one basis; the int64 gathers and
            # counts of every block share one segment.
            assert len(basis) == 1
            assert len(segments) == 1

    def test_leaf_scatter_weights_each_leaf_into_its_parents_row(self, coo4):
        """Thread ``th``'s leaf scatter matrix M applied to ``k_{d-2}``
        over its level-(d-2) window adds ``v_p · k[parent(p)]`` into row
        ``idx[p]`` for every leaf it owns, ranges cut mid-fiber included.
        Without a machine model each thread is its own block, so its
        block's stage-1 operator is M itself."""
        from tests.test_kernels import add_at_weighted

        csf = CsfTensor.from_coo(coo4, (0, 1, 2, 3))
        d = csf.ndim
        # 11 threads: two of the nnz partition's cuts fall mid-fiber.
        threads = 11
        engine = MemoizedMttkrp(csf, 4, num_threads=threads)
        assert len(engine.blocks) == threads
        rng = np.random.default_rng(7)
        n = csf.level_shape(d - 1)
        ptr = csf.ptr[d - 2]
        cut = 0
        for th in range(threads):
            lo, hi = engine.partition.leaf_range(th)
            first = np.searchsorted(ptr, lo, side="right") - 1
            parents = np.searchsorted(ptr, np.arange(lo, hi), side="right") - 1 - first
            cut += ptr[first] < lo
            op = engine._scatter_operators(d - 1).blocks[th]
            targets = np.unique(csf.idx[d - 1][lo:hi])
            x = rng.standard_normal((int(parents[-1]) + 1, 4))
            assert op.shape == (targets.size, x.shape[0])
            got = np.zeros((n, 4))
            got[targets] += op @ x
            idx, values = csf.idx[d - 1][lo:hi], csf.values[lo:hi]
            assert np.array_equal(got, add_at_weighted(n, idx, values, parents, x))
        assert cut > 0

    def test_close_drops_the_operators(self, coo4):
        import gc
        import weakref

        engine = MemoizedMttkrp(
            CsfTensor.from_coo(coo4, (0, 1, 2, 3)), 4,
            plan=MemoPlan((2,)), num_threads=3,
        )
        engine.iteration_results(make_factors(coo4.shape, 4, seed=3))
        # M (the leaf scatter operator), W (the leaf plan's level-2
        # operator) and the indicators beside them.
        leaf_scatter = engine._scatter_ops[3].blocks[0]
        leaf_ttm = engine._plans[0][3]["ops"][2]
        assert np.shares_memory(leaf_ttm.data, engine.csf.values)
        assert not np.array_equal(leaf_scatter.data, np.ones(leaf_scatter.nnz))
        refs = [weakref.ref(leaf_scatter), weakref.ref(engine._scatter_ops[2].blocks[0])] + [
            weakref.ref(op)
            for family in engine._plans[0].values()
            for op in family["ops"].values()
        ]
        del leaf_scatter, leaf_ttm
        assert len(refs) > 3
        engine.close()
        gc.collect()
        assert all(ref() is None for ref in refs)
        with pytest.raises(RuntimeError, match="engine is closed"):
            engine.mode0(make_factors(coo4.shape, 4, seed=3))

    def test_shared_plans_are_freed_without_the_cycle_collector(self, coo4):
        """Packing plans for process workers leaves no reference cycle:
        an engine that shared them, ran a set and closed is freed as soon
        as its last reference goes, heap copies included, not at the
        collector's next pass."""
        import gc

        csf = CsfTensor.from_coo(coo4, (0, 1, 2, 3))
        factors = make_factors(coo4.shape, 4, seed=3)
        gc.collect()
        with MemoizedMttkrp(
            csf, 4, plan=MemoPlan((2,)), num_threads=3, exec_backend="processes"
        ) as engine:
            engine.iteration_results(factors)
        del engine
        assert gc.collect() == 0


class TestExecutionBlocks:
    """Whatever the machine model makes of the block count — one block,
    a few, one per thread — every output has the machine-less engine's
    bits (one block per thread), on every backend."""

    THREADS = 4
    RANK = 3

    @classmethod
    def machine_for(cls, blocks, nnz):
        """intel-clx-18 with its cache scaled so a kernel over ``nnz``
        non-zeros runs as ``blocks`` execution blocks."""
        from repro.parallel import INTEL_CLX_18
        from repro.parallel.machine import BLOCK_CACHE_DIVISOR

        per_block = nnz * cls.RANK * INTEL_CLX_18.element_bytes / (blocks - 0.5)
        cache = per_block * INTEL_CLX_18.num_threads * BLOCK_CACHE_DIVISOR
        return INTEL_CLX_18.with_cache_scale(cache / INTEL_CLX_18.cache_bytes)

    @pytest.mark.parametrize("exec_backend", ["serial", "threads", "processes"])
    @pytest.mark.parametrize("save", ["none", "one", "all"])
    @pytest.mark.parametrize("partition", ["nnz", "slice"])
    @pytest.mark.parametrize("shape", [(30, 20, 14), (12, 10, 9, 7)], ids=["3d", "4d"])
    def test_every_block_count_gives_the_machine_less_bits(
        self, monkeypatch, exec_backend, save, partition, shape
    ):
        from repro.core import csf_kernels, mttkrp
        from repro.engines import create_engine
        from repro.tensor import random_tensor
        from repro.trace import Tracer

        builds = {"n": 0}

        def counted(fn):
            def wrapper(*args, **kwargs):
                builds["n"] += 1
                return fn(*args, **kwargs)

            return wrapper

        for module, name in (
            (mttkrp, "block_plan"),
            (mttkrp, "scatter_operator"),
            (mttkrp, "leaf_scatter_operator"),
            (csf_kernels, "segment_operator"),
            (csf_kernels, "leaf_ttm_operator"),
        ):
            monkeypatch.setattr(module, name, counted(getattr(module, name)))
        tensor = random_tensor(shape, nnz=500, seed=5)
        d = tensor.ndim
        levels = {"none": (), "one": (1,), "all": tuple(range(1, d - 1))}[save]
        factors = make_factors(shape, self.RANK, seed=6)
        opts = dict(
            plan=MemoPlan(levels), swap_last_two=False, partition=partition,
            num_threads=self.THREADS, exec_backend=exec_backend,
        )
        with create_engine("stef", tensor, self.RANK, **opts) as reference:
            assert len(reference.trees[0].blocks) == self.THREADS
            want = reference.iteration_results(factors)
        for blocks in (1, 2, self.THREADS):
            tracer = Tracer()
            machine = self.machine_for(blocks, tensor.nnz)
            with create_engine(
                "stef", tensor, self.RANK, machine=machine, tracer=tracer, **opts
            ) as engine:
                assert len(engine.trees[0].blocks) == blocks
                first = engine.iteration_results(factors)
                built = builds["n"]
                again = engine.iteration_results(factors)
                assert builds["n"] == built, "built after the first set"
            for got in (first, again):
                for (mode_a, a), (mode_b, b) in zip(got, want):
                    assert mode_a == mode_b and np.array_equal(a, b), (blocks, mode_a)
            dispatches = tracer.spans("executor.run_tasks")
            assert len(dispatches) == 2 * d
            for dispatch in dispatches:
                tasks = [
                    r for r in tracer.spans("executor.task")
                    if r.parent_id == dispatch.span_id
                ]
                assert len(tasks) == blocks
