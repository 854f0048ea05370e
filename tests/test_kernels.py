"""Tests for the flat-array kernel ABI (:mod:`repro.kernels`): every
entry point matches the obvious NumPy formula it abstracts."""

import numpy as np
import pytest

from repro import kernels


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class TestKernelAbi:
    """Each ABI entry point against the NumPy formula it abstracts."""

    def test_segment_reduce_rows(self, rng):
        rows = rng.standard_normal((12, 4))
        starts = np.array([0, 3, 3, 7, 10])
        got = kernels.segment_reduce_rows(rows, starts)
        assert np.array_equal(got, np.add.reduceat(rows, starts, axis=0))

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
        kernels.scatter_rows_add(got, idx, rows)
        want = np.zeros((5, 4))
        np.add.at(want, idx, rows)
        assert np.allclose(got, want)

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
