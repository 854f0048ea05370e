"""Unit tests for the COO tensor substrate."""

import numpy as np
import pytest

from repro.tensor import CooTensor


class TestConstruction:
    def test_from_arrays_basic(self):
        idx = np.array([[0, 1, 2], [1, 0, 2]])
        t = CooTensor.from_arrays(idx, np.array([1.0, 2.0, 3.0]))
        assert t.shape == (3, 3)
        assert t.nnz == 3
        assert t.ndim == 2

    def test_explicit_shape(self):
        idx = np.array([[0], [1]])
        t = CooTensor.from_arrays(idx, np.array([5.0]), shape=(4, 7))
        assert t.shape == (4, 7)

    def test_shape_too_small_raises(self):
        idx = np.array([[3], [0]])
        with pytest.raises(ValueError, match="out of bounds"):
            CooTensor.from_arrays(idx, np.array([1.0]), shape=(2, 2))

    def test_negative_index_raises(self):
        idx = np.array([[-1], [0]])
        with pytest.raises(ValueError, match="negative"):
            CooTensor.from_arrays(idx, np.array([1.0]))

    def test_mismatched_values_raises(self):
        idx = np.array([[0, 1], [0, 1]])
        with pytest.raises(ValueError, match="nnz"):
            CooTensor.from_arrays(idx, np.array([1.0]))

    def test_wrong_ndim_raises(self):
        with pytest.raises(ValueError, match="2-D"):
            CooTensor.from_arrays(np.array([0, 1, 2]), np.ones(3))

    def test_shape_mode_count_mismatch_raises(self):
        idx = np.array([[0], [0]])
        with pytest.raises(ValueError, match="modes"):
            CooTensor.from_arrays(idx, np.ones(1), shape=(2, 2, 2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_value_raises(self, bad):
        idx = np.array([[0, 1, 2, 3], [0, 1, 2, 3]])
        values = np.array([1.0, bad, 2.0, bad])
        with pytest.raises(
            ValueError, match=r"2 of 4 values are not finite .*at position 1\)"
        ):
            CooTensor.from_arrays(idx, values)

    def test_duplicates_are_summed(self):
        idx = np.array([[0, 0, 1], [1, 1, 0]])
        t = CooTensor.from_arrays(idx, np.array([1.0, 2.0, 5.0]))
        assert t.nnz == 2
        dense = t.to_dense()
        assert dense[0, 1] == 3.0
        assert dense[1, 0] == 5.0

    def test_entries_sorted_lexicographically(self):
        idx = np.array([[2, 0, 1], [0, 1, 2]])
        t = CooTensor.from_arrays(idx, np.array([1.0, 2.0, 3.0]))
        assert list(t.indices[0]) == [0, 1, 2]

    def test_empty_tensor(self):
        t = CooTensor.from_arrays(
            np.empty((3, 0), dtype=np.int64), np.empty(0), shape=(2, 2, 2)
        )
        assert t.nnz == 0
        assert np.all(t.to_dense() == 0)


class TestDenseRoundTrip:
    def test_roundtrip(self, coo4):
        dense = coo4.to_dense()
        back = CooTensor.from_dense(dense)
        assert np.allclose(back.to_dense(), dense)

    def test_from_dense_tolerance(self):
        arr = np.array([[0.5, 1e-9], [0.0, 2.0]])
        t = CooTensor.from_dense(arr, tol=1e-6)
        assert t.nnz == 2

    def test_to_dense_refuses_huge(self):
        t = CooTensor.from_arrays(
            np.array([[0], [0], [0]]), np.ones(1), shape=(10**3, 10**3, 10**3)
        )
        with pytest.raises(MemoryError):
            t.to_dense()


class TestTransforms:
    def test_permute_modes_matches_transpose(self, coo4):
        perm = [2, 0, 3, 1]
        permuted = coo4.permute_modes(perm)
        assert np.allclose(
            permuted.to_dense(), np.transpose(coo4.to_dense(), perm)
        )

    def test_permute_invalid_raises(self, coo4):
        with pytest.raises(ValueError, match="permutation"):
            coo4.permute_modes([0, 0, 1, 2])

    def test_sorted_by_keeps_content(self, coo4):
        s = coo4.sorted_by([3, 1, 0, 2])
        assert np.allclose(s.to_dense(), coo4.to_dense())

    def test_sorted_by_primary_key(self, coo4):
        s = coo4.sorted_by([2, 0, 1, 3])
        assert np.all(np.diff(s.indices[2]) >= 0)

    def test_sorted_by_invalid_raises(self, coo4):
        with pytest.raises(ValueError, match="permutation"):
            coo4.sorted_by([0, 1])

    def test_scale_and_norm(self, coo3):
        doubled = coo3.scale(2.0)
        assert np.isclose(doubled.norm(), 2.0 * coo3.norm())

    def test_astype(self, coo3):
        t32 = coo3.astype(np.float32)
        assert t32.values.dtype == np.float32


class TestStatistics:
    def test_nonzero_slices(self):
        idx = np.array([[0, 0, 2], [0, 1, 0]])
        t = CooTensor.from_arrays(idx, np.ones(3), shape=(3, 2))
        assert t.nonzero_slices(0) == 2
        assert t.nonzero_slices(1) == 2

    def test_fiber_count_leaf_equals_nnz(self, coo4):
        assert coo4.fiber_count([0, 1, 2, 3], 3) == coo4.nnz

    def test_fiber_count_monotone_in_level(self, coo4):
        order = [0, 1, 2, 3]
        counts = [coo4.fiber_count(order, lv) for lv in range(4)]
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_fiber_count_level0_is_distinct_roots(self, coo4):
        assert coo4.fiber_count([1, 0, 2, 3], 0) == coo4.nonzero_slices(1)

    def test_fiber_count_bad_level_raises(self, coo3):
        with pytest.raises(ValueError, match="level"):
            coo3.fiber_count([0, 1, 2], 5)

    def test_average_fiber_length(self, coo4):
        order = [0, 1, 2, 3]
        af = coo4.average_fiber_length(order, 3)
        assert af == coo4.nnz / coo4.fiber_count(order, 2)

    def test_density(self):
        t = CooTensor.from_arrays(
            np.array([[0], [0]]), np.ones(1), shape=(2, 5)
        )
        assert np.isclose(t.density, 0.1)

    def test_iter_entries(self):
        idx = np.array([[0, 1], [1, 0]])
        t = CooTensor.from_arrays(idx, np.array([2.0, 3.0]))
        entries = dict(t.iter_entries())
        assert entries[(0, 1)] == 2.0
        assert entries[(1, 0)] == 3.0
