"""Tests for the flat-array kernel ABI (:mod:`repro.kernels`): every
entry point matches the obvious NumPy formula it abstracts, and the two
reductions match their exact definitions — each segment and each scatter
target accumulates its rows left to right, in position order."""

import numpy as np
import pytest

from repro import kernels


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def left_to_right_segments(rows, bounds):
    """The segment sums by definition: ``0 + r_lo + ... + r_{hi-1}``."""
    out = np.zeros((len(bounds) - 1, rows.shape[1]))
    for s in range(len(bounds) - 1):
        acc = np.zeros(rows.shape[1])
        for p in range(bounds[s], bounds[s + 1]):
            acc = acc + rows[p]
        out[s] = acc
    return out


class TestReductionOperators:
    """The plan-time reduction operators on their edge cases."""

    def test_segment_sums_of_long_segments(self, rng):
        # Long enough that a pairwise summation would round differently.
        rows = rng.standard_normal((400, 3)) * np.logspace(0, 12, 400)[:, None]
        bounds = np.array([0, 1, 150, 150, 399, 400], dtype=np.int32)
        got = kernels.segment_reduce_rows(rows, kernels.segment_operator(bounds))
        assert np.array_equal(got, left_to_right_segments(rows, bounds))

    def test_length_one_segments_copy_rows(self, rng):
        rows = rng.standard_normal((7, 5))
        bounds = np.arange(8, dtype=np.int32)
        got = kernels.segment_reduce_rows(rows, kernels.segment_operator(bounds))
        assert np.array_equal(got, rows)

    def test_empty_input(self):
        rows = np.zeros((0, 4))
        empty = kernels.segment_operator(np.zeros(1, dtype=np.int32))
        assert kernels.segment_reduce_rows(rows, empty).shape == (0, 4)
        two_empty = kernels.segment_operator(np.zeros(3, dtype=np.int32))
        got = kernels.segment_reduce_rows(rows, two_empty)
        assert np.array_equal(got, np.zeros((2, 4)))
        out = np.ones((3, 4))
        op = kernels.scatter_operator(np.zeros(0, dtype=np.int64))
        kernels.scatter_rows_add(out, op, rows)
        assert np.array_equal(out, np.ones((3, 4)))

    def test_all_duplicate_indices(self, rng):
        rows = rng.standard_normal((50, 3)) * np.logspace(0, 9, 50)[:, None]
        idx = np.full(50, 2)
        got = np.zeros((4, 3))
        kernels.scatter_rows_add(got, kernels.scatter_operator(idx), rows)
        want = np.zeros((4, 3))
        np.add.at(want, idx, rows)
        assert np.array_equal(got, want)
        assert np.array_equal(got[2], left_to_right_segments(rows, [0, 50])[0])

    def test_scatter_accumulates_in_position_order(self, rng):
        rows = rng.standard_normal((300, 4)) * np.logspace(0, 10, 300)[:, None]
        idx = rng.integers(0, 6, 300)
        op = kernels.scatter_operator(idx)
        assert np.array_equal(op.targets, np.unique(idx))
        got = np.zeros((8, 4))
        kernels.scatter_rows_add(got, op, rows)
        want = np.zeros((8, 4))
        np.add.at(want, idx, rows)
        assert np.array_equal(got, want)

    def test_operators_view_one_basis(self):
        basis = kernels.operator_basis(10)
        seg = kernels.segment_operator(np.array([0, 4, 6], dtype=np.int32), basis)
        scat = kernels.scatter_operator(np.array([3, 1, 3]), basis)
        for op in (seg, scat.matrix):
            assert np.shares_memory(op.data, basis.ones)
            assert op.indices.dtype == np.int32
        assert np.shares_memory(seg.indices, basis.cols)


class TestKernelAbi:
    """Each ABI entry point against the NumPy formula it abstracts."""

    def test_segment_reduce_rows(self, rng):
        rows = rng.standard_normal((12, 4))
        bounds = np.array([0, 3, 3, 7, 10, 12], dtype=np.int32)
        got = kernels.segment_reduce_rows(rows, kernels.segment_operator(bounds))
        assert np.array_equal(got, left_to_right_segments(rows, bounds))

    def test_segment_sum_rows(self, rng):
        data = rng.standard_normal((10, 3))
        seg = np.array([0, 0, 2, 2, 2, 3, 5, 5, 5, 5])
        got = kernels.segment_sum_rows(data, seg, 6)
        want = np.zeros((6, 3))
        np.add.at(want, seg, data)
        assert got.shape == want.shape
        assert np.allclose(got, want)

    def test_scatter_rows_add(self, rng):
        rows = rng.standard_normal((9, 4))
        idx = np.array([4, 0, 4, 2, 0, 4, 1, 1, 3])
        got = np.zeros((5, 4))
        kernels.scatter_rows_add(got, kernels.scatter_operator(idx), rows)
        want = np.zeros((5, 4))
        np.add.at(want, idx, rows)
        assert np.array_equal(got, want)

    def test_gather_multiply_rows(self, rng):
        rows = rng.standard_normal((4, 3))
        factor = rng.standard_normal((6, 3))
        idx = np.array([5, 0, 3, 3, 1, 2])
        got = kernels.gather_multiply_rows(rows, factor, idx, 1, 5)
        assert np.array_equal(got, rows * factor[idx[1:5]])

    def test_value_gather_rows(self, rng):
        values = rng.standard_normal(6)
        factor = rng.standard_normal((4, 3))
        idx = np.array([3, 1, 0, 2, 1, 3])
        got = kernels.value_gather_rows(values, factor, idx, 0, 6)
        assert np.array_equal(got, values[:, None] * factor[idx])

    def test_scale_rows_by_values(self, rng):
        values = rng.standard_normal(8)
        rows = rng.standard_normal((5, 2))
        got = kernels.scale_rows_by_values(values, rows, 2, 7)
        assert np.array_equal(got, values[2:7, None] * rows)

    def test_take_factor_rows(self, rng):
        factor = rng.standard_normal((7, 2))
        idx = np.array([6, 2, 2, 0, 5])
        got = kernels.take_factor_rows(factor, idx, 1, 4)
        assert np.array_equal(got, factor[idx[1:4]])

    def test_repeat_rows(self, rng):
        rows = rng.standard_normal((4, 3))
        counts = np.array([2, 0, 3, 1])
        got = kernels.repeat_rows(rows, counts)
        assert np.array_equal(got, np.repeat(rows, counts, axis=0))

    def test_parent_of(self):
        ptr = np.array([0, 3, 3, 7, 10])
        # node i owns children [ptr[i], ptr[i+1]); empty node 1 is skipped
        assert kernels.parent_of(ptr, 0) == 0
        assert kernels.parent_of(ptr, 2) == 0
        assert kernels.parent_of(ptr, 3) == 2
        assert kernels.parent_of(ptr, 9) == 3
