"""Unit tests for the vectorized CSF sweep primitives."""

import numpy as np
import pytest

from repro.core import (
    ancestor_windows,
    scatter_add_rows,
    serial_upward_sweep,
    thread_downward_k,
    thread_level_ranges,
    thread_upward_sweep,
)
from repro.core.csf_kernels import child_counts, sweep_operators
from repro.kernels import leaf_scatter_operator, scatter_operator
from repro.ops import krp_rows, mttkrp_dense
from repro.parallel import ReplicatedArray, nnz_partition
from repro.tensor import CsfTensor
from tests.test_kernels import add_at_weighted, left_to_right_weighted


def level_factors(csf, factors):
    return [factors[m] for m in csf.mode_order]


def mid_fiber_range(csf):
    """A leaf range that starts and ends strictly inside level-(d-2)
    fibers, with at least one whole fiber between."""
    ptr = csf.ptr[csf.ndim - 2]
    long = np.flatnonzero(np.diff(ptr) >= 2)
    first, last = long[0], long[-1]
    assert last > first + 1
    return int(ptr[first]) + 1, int(ptr[last]) + 1


def parents_in_window(csf, lo, hi):
    """Each leaf's parent at level d-2, as a row of the thread's window."""
    d = csf.ndim
    window = ancestor_windows(csf, d - 1, lo, hi)[d - 2]
    parents = np.searchsorted(csf.ptr[d - 2], np.arange(lo, hi), side="right") - 1
    return parents - window.lo, window


class TestScatterAddRows:
    def test_duplicates_accumulate(self):
        out = np.zeros((3, 2))
        scatter_add_rows(out, scatter_operator(np.array([0, 0, 2])), np.ones((3, 2)))
        assert np.allclose(out, [[2, 2], [0, 0], [1, 1]])

    def test_empty_noop(self):
        out = np.ones((2, 2))
        scatter_add_rows(
            out, scatter_operator(np.empty(0, dtype=np.int64)), np.empty((0, 2))
        )
        assert np.allclose(out, 1.0)

    def test_matches_add_at(self):
        rng = np.random.default_rng(0)
        out_a = np.zeros((10, 5))
        out_b = np.zeros((10, 5))
        idx = rng.integers(0, 10, 50)
        rows = rng.standard_normal((50, 5))
        scatter_add_rows(out_a, scatter_operator(idx), rows)
        np.add.at(out_b, idx, rows)
        assert np.allclose(out_a, out_b)


class TestWindows:
    def test_leaf_windows_cover_ancestors(self, csf4):
        windows = thread_level_ranges(csf4, 5, 40)
        assert windows[-1].lo == 5 and windows[-1].hi == 40
        for lvl in range(csf4.ndim - 1):
            w = windows[lvl]
            assert 0 <= w.lo < w.hi <= csf4.fiber_counts[lvl]

    def test_empty_range(self, csf4):
        windows = thread_level_ranges(csf4, 7, 7)
        assert all(w.count == 0 for w in windows)

    def test_ancestor_windows_compose(self, csf4):
        # Ancestors computed from an intermediate level agree with those
        # computed from the leaves.
        from_leaves = thread_level_ranges(csf4, 10, 60)
        lvl = 2
        w = from_leaves[lvl]
        from_mid = ancestor_windows(csf4, lvl, w.lo, w.hi)
        for i in range(lvl + 1):
            assert from_mid[i] == from_leaves[i]


class TestUpwardSweep:
    def test_serial_t0_is_mode0_mttkrp(self, coo4, factors4):
        csf = CsfTensor.from_coo(coo4, (0, 1, 2, 3))
        ts = serial_upward_sweep(csf, level_factors(csf, factors4))
        out = np.zeros((coo4.shape[0], 4))
        out[csf.idx[0]] = ts[0]
        assert np.allclose(out, mttkrp_dense(coo4.to_dense(), factors4, 0))

    def test_serial_intermediate_levels_match_dense_partials(self, coo4, factors4):
        from repro.ops import partial_mttkrp_dense

        csf = CsfTensor.from_coo(coo4, (0, 1, 2, 3))
        ts = serial_upward_sweep(csf, level_factors(csf, factors4))
        dense = coo4.to_dense()
        for lvl in (1, 2):
            ref = partial_mttkrp_dense(dense, factors4, lvl)
            got = np.zeros_like(ref)
            coords = tuple(
                csf.expand_to_level(i, lvl, csf.idx[i]) for i in range(lvl + 1)
            )
            got[coords] = ts[lvl]
            assert np.allclose(got, ref)

    @pytest.mark.parametrize("threads", [2, 3, 7])
    def test_threaded_partials_merge_to_serial(self, coo4, factors4, threads):
        csf = CsfTensor.from_coo(coo4, (0, 1, 2, 3))
        lf = level_factors(csf, factors4)
        serial = serial_upward_sweep(csf, lf)
        part = nnz_partition(csf, threads)
        reps = {
            lvl: ReplicatedArray(csf.fiber_counts[lvl], 4, threads)
            for lvl in range(csf.ndim - 1)
        }
        for th in range(threads):
            lo, hi = part.leaf_range(th)
            res = thread_upward_sweep(csf, lf, lo, hi)
            for lvl, (nlo, tp) in res.items():
                reps[lvl].view(th, nlo, nlo + tp.shape[0])[:] += tp
        for lvl in range(csf.ndim - 1):
            assert np.allclose(reps[lvl].merge(), serial[lvl])

    def test_resume_from_memo_matches_full(self, coo4, factors4):
        csf = CsfTensor.from_coo(coo4, (0, 1, 2, 3))
        lf = level_factors(csf, factors4)
        full = serial_upward_sweep(csf, lf)
        resumed = serial_upward_sweep(csf, lf, start_level=2, init=full[2])
        assert np.allclose(resumed[0], full[0])
        assert np.allclose(resumed[1], full[1])

    def test_resume_requires_init(self, coo4, factors4):
        csf = CsfTensor.from_coo(coo4, (0, 1, 2, 3))
        with pytest.raises(ValueError, match="init"):
            thread_upward_sweep(
                csf, level_factors(csf, factors4), 0, 10, start_level=2
            )

    def test_empty_thread_range(self, coo4, factors4):
        csf = CsfTensor.from_coo(coo4, (0, 1, 2, 3))
        res = thread_upward_sweep(csf, level_factors(csf, factors4), 5, 5)
        for lvl, (_nlo, tp) in res.items():
            assert tp.shape == (0, 4)

    def test_stop_level_limits_output(self, coo4, factors4):
        csf = CsfTensor.from_coo(coo4, (0, 1, 2, 3))
        res = thread_upward_sweep(
            csf, level_factors(csf, factors4), 0, csf.nnz, stop_level=2
        )
        assert set(res) == {2}

    def test_serial_sweep_charges_like_threaded_path(self, coo4, factors4):
        """Regression: ``serial_upward_sweep(counter=...)`` charges the
        same structure/sweep legs ``mttkrp.charge_sweep`` does with a
        single thread owning every node (the serial path used to be
        unaccountable)."""
        from repro.parallel import TrafficCounter

        csf = CsfTensor.from_coo(coo4, (0, 1, 2, 3))
        counter = TrafficCounter()
        result = serial_upward_sweep(
            csf, level_factors(csf, factors4), counter=counter
        )
        owned = [csf.fiber_counts[lvl] for lvl in range(csf.ndim - 1)]
        owned.append(csf.nnz)
        assert counter.reads == 2.0 * sum(owned)
        assert counter.flops == 2.0 * 4 * sum(owned[1:])
        assert counter.writes == 0
        assert set(counter.by_category) == {"r:structure", "f:sweep"}
        # The accounting must not perturb the arithmetic.
        silent = serial_upward_sweep(csf, level_factors(csf, factors4))
        for lvl in silent:
            assert np.allclose(result[lvl], silent[lvl])


class TestDownwardK:
    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_k_rows_match_explicit_krp(self, coo4, factors4, level):
        csf = CsfTensor.from_coo(coo4, (0, 1, 2, 3))
        lf = level_factors(csf, factors4)
        k = thread_downward_k(csf, lf, level, 0, csf.fiber_counts[level])
        paths = [csf.expand_to_level(i, level, csf.idx[i]) for i in range(level)]
        ref = krp_rows(lf[:level], paths)
        assert np.allclose(k, ref)

    def test_multiply_last_includes_own_factor(self, coo4, factors4):
        csf = CsfTensor.from_coo(coo4, (0, 1, 2, 3))
        lf = level_factors(csf, factors4)
        level = 2
        k_excl = thread_downward_k(csf, lf, level, 0, csf.fiber_counts[level])
        k_incl = thread_downward_k(
            csf, lf, level, 0, csf.fiber_counts[level], multiply_last=True
        )
        own = np.asarray(lf[level])[csf.idx[level]]
        assert np.allclose(k_incl, k_excl * own)

    def test_level0_without_last_is_ones(self, coo4, factors4):
        csf = CsfTensor.from_coo(coo4, (0, 1, 2, 3))
        lf = level_factors(csf, factors4)
        k = thread_downward_k(csf, lf, 0, 0, csf.fiber_counts[0])
        assert np.allclose(k, 1.0)

    def test_partial_ranges_concatenate(self, coo4, factors4):
        csf = CsfTensor.from_coo(coo4, (0, 1, 2, 3))
        lf = level_factors(csf, factors4)
        level = 2
        n = csf.fiber_counts[level]
        whole = thread_downward_k(csf, lf, level, 0, n)
        mid = n // 2
        a = thread_downward_k(csf, lf, level, 0, mid)
        b = thread_downward_k(csf, lf, level, mid, n)
        assert np.allclose(np.vstack([a, b]), whole)

    def test_empty_range(self, coo4, factors4):
        csf = CsfTensor.from_coo(coo4, (0, 1, 2, 3))
        k = thread_downward_k(csf, level_factors(csf, factors4), 2, 4, 4)
        assert k.shape == (0, 4)


class TestChildCounts:
    @staticmethod
    def clipped(csf, level, window, child):
        """The per-call formula the counts replace: both ends of every
        node's child span clipped to the child window."""
        ptr = csf.ptr[level]
        starts = np.clip(ptr[window.lo : window.hi], child.lo, child.hi)
        ends = np.clip(ptr[window.lo + 1 : window.hi + 1], child.lo, child.hi)
        return ends - starts

    def test_equal_the_clip_formula(self, csf4):
        lo, hi = mid_fiber_range(csf4)
        d = csf4.ndim
        ranges = [(lo, hi), (lo, lo + 1), (hi - 1, hi), (0, csf4.nnz), (lo, lo)]
        for a, b in ranges:
            windows = ancestor_windows(csf4, d - 1, a, b)
            for level in range(d - 1):
                got = child_counts(csf4, level, windows[level], windows[level + 1])
                want = self.clipped(csf4, level, windows[level], windows[level + 1])
                assert np.array_equal(got, want), (a, b, level)
        # The first range really straddles fibers at both ends.
        w = ancestor_windows(csf4, d - 1, lo, hi)[d - 2]
        assert csf4.ptr[d - 2][w.lo] < lo and csf4.ptr[d - 2][w.hi] > hi

    def test_node_ranges_mid_fiber(self, csf4):
        # A node range at level 2, cutting level-1 fibers at both ends.
        ptr = csf4.ptr[1]
        long = np.flatnonzero(np.diff(ptr) >= 2)
        a, b = int(ptr[long[0]]) + 1, int(ptr[long[-1]]) + 1
        windows = ancestor_windows(csf4, 2, a, b)
        for level in range(2):
            got = child_counts(csf4, level, windows[level], windows[level + 1])
            want = self.clipped(csf4, level, windows[level], windows[level + 1])
            assert np.array_equal(got, want), level


class TestLeafOperatorsOnCsf:
    """A thread range that starts and ends mid-fiber: its leaf TTM
    operator and its leaf scatter match their definitions."""

    def test_leaf_ttm_operator(self, csf4, factors4):
        lf = level_factors(csf4, factors4)
        d = csf4.ndim
        lo, hi = mid_fiber_range(csf4)
        parents, window = parents_in_window(csf4, lo, hi)
        op = sweep_operators(csf4, lo, hi)[d - 2]
        assert np.shares_memory(op.data, csf4.values)
        bounds = np.searchsorted(parents, np.arange(window.count + 1))
        want = left_to_right_weighted(
            lf[d - 1], bounds, csf4.values[lo:hi], csf4.idx[d - 1][lo:hi]
        )
        assert np.array_equal(op @ lf[d - 1], want)
        # The sweep starts from it.
        nlo, t = thread_upward_sweep(csf4, lf, lo, hi, stop_level=d - 2)[d - 2]
        assert nlo == window.lo and np.array_equal(t, want)

    def test_leaf_scatter_operator(self, csf4, factors4):
        lf = level_factors(csf4, factors4)
        d = csf4.ndim
        lo, hi = mid_fiber_range(csf4)
        parents, window = parents_in_window(csf4, lo, hi)
        k = thread_downward_k(
            csf4, lf, d - 2, window.lo, window.hi, multiply_last=True
        )
        idx, values = csf4.idx[d - 1][lo:hi], csf4.values[lo:hi]
        op = leaf_scatter_operator(idx, values, parents, window.count)
        n = csf4.level_shape(d - 1)
        out = np.zeros((n, k.shape[1]))
        scatter_add_rows(out, op, k)
        assert np.array_equal(out, add_at_weighted(n, idx, values, parents, k))
