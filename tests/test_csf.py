"""Unit tests for the CSF tree structure."""

import numpy as np
import pytest

from repro.tensor import (
    CooTensor,
    CsfTensor,
    default_mode_order,
    random_tensor,
    root_order,
)


class TestDefaultModeOrder:
    def test_sorted_by_length(self):
        assert default_mode_order((10, 2, 5)) == (1, 2, 0)

    def test_ties_break_by_mode_number(self):
        assert default_mode_order((4, 4, 4)) == (0, 1, 2)

    def test_root_order_keeps_the_rest_by_length(self):
        assert root_order((5, 3, 9, 3), 2) == (2, 1, 3, 0)
        assert root_order((5, 3, 9, 3), 1) == (1, 3, 0, 2)


class TestConstruction:
    def test_roundtrip_identity_order(self, coo4):
        csf = CsfTensor.from_coo(coo4, (0, 1, 2, 3))
        assert np.allclose(csf.to_coo().to_dense(), coo4.to_dense())

    @pytest.mark.parametrize("order", [(1, 0, 3, 2), (3, 2, 1, 0), (2, 3, 0, 1)])
    def test_roundtrip_any_order(self, coo4, order):
        csf = CsfTensor.from_coo(coo4, order)
        assert np.allclose(csf.to_coo().to_dense(), coo4.to_dense())

    def test_default_order_used(self, coo4):
        csf = CsfTensor.from_coo(coo4)
        assert csf.mode_order == default_mode_order(coo4.shape)

    def test_invalid_order_raises(self, coo4):
        with pytest.raises(ValueError, match="permutation"):
            CsfTensor.from_coo(coo4, (0, 1, 2, 2))

    def test_leaf_count_is_nnz(self, coo4):
        csf = CsfTensor.from_coo(coo4)
        assert csf.fiber_counts[-1] == coo4.nnz
        assert csf.nnz == coo4.nnz

    def test_fiber_counts_match_coo(self, coo4):
        order = (1, 3, 0, 2)
        csf = CsfTensor.from_coo(coo4, order)
        for lvl in range(4):
            assert csf.fiber_counts[lvl] == coo4.fiber_count(list(order), lvl)

    def test_fiber_counts_nondecreasing(self, coo_any):
        csf = CsfTensor.from_coo(coo_any)
        fc = csf.fiber_counts
        assert all(a <= b for a, b in zip(fc, fc[1:]))

    def test_ptr_arrays_cover_children(self, csf4):
        for lvl in range(csf4.ndim - 1):
            ptr = csf4.ptr[lvl]
            assert ptr[0] == 0
            assert ptr[-1] == csf4.fiber_counts[lvl + 1]
            assert np.all(np.diff(ptr) >= 1)  # every node has >=1 child

    def test_empty_tensor(self):
        t = CooTensor.from_arrays(
            np.empty((3, 0), dtype=np.int64), np.empty(0), shape=(4, 4, 4)
        )
        csf = CsfTensor.from_coo(t)
        assert csf.nnz == 0
        assert csf.fiber_counts == (0, 0, 0)

    def test_2d_tensor(self):
        t = random_tensor((6, 8), nnz=20, seed=4)
        csf = CsfTensor.from_coo(t, (0, 1))
        assert np.allclose(csf.to_coo().to_dense(), t.to_dense())


class TestNavigation:
    def test_find_parent_basic(self, csf4):
        # Every child position maps to the node whose ptr range contains it.
        for lvl in range(csf4.ndim - 1):
            ptr = csf4.ptr[lvl]
            positions = np.arange(csf4.fiber_counts[lvl + 1])
            parents = csf4.find_parent(lvl, positions)
            assert np.all(ptr[parents] <= positions)
            assert np.all(positions < ptr[parents + 1])

    def test_find_parent_past_end(self, csf4):
        lvl = 0
        end = csf4.fiber_counts[1]
        parent = csf4.find_parent(lvl, np.array([end]))
        assert parent[0] == csf4.fiber_counts[0]

    def test_find_parent_bad_level_raises(self, csf4):
        with pytest.raises(ValueError, match="child"):
            csf4.find_parent(csf4.ndim - 1, np.array([0]))

    def test_leaf_span_covers_all(self, csf4):
        total = sum(
            csf4.leaf_span(0, n)[1] - csf4.leaf_span(0, n)[0]
            for n in range(csf4.fiber_counts[0])
        )
        assert total == csf4.nnz

    def test_leaf_span_consistent_with_expand(self, csf4):
        root_ids = np.arange(csf4.fiber_counts[0])
        expanded = csf4.expand_to_level(0, csf4.ndim - 1, root_ids)
        for n in range(csf4.fiber_counts[0]):
            lo, hi = csf4.leaf_span(0, n)
            assert np.all(expanded[lo:hi] == n)

    def test_expand_to_level_identity(self, csf4):
        arr = np.arange(csf4.fiber_counts[2])
        assert np.array_equal(csf4.expand_to_level(2, 2, arr), arr)

    def test_expand_bad_levels_raises(self, csf4):
        with pytest.raises(ValueError, match="dst_level"):
            csf4.expand_to_level(2, 1, np.arange(csf4.fiber_counts[2]))


class TestAccounting:
    def test_total_bytes_sums_parts(self, csf4):
        assert csf4.total_bytes() == csf4.index_bytes() + csf4.value_bytes()

    def test_value_bytes(self, csf4):
        assert csf4.value_bytes() == csf4.nnz * 8

    def test_index_bytes_positive(self, csf4):
        assert csf4.index_bytes() > 0


class TestReorderedViews:
    def test_with_mode_order_roundtrip(self, coo4):
        csf = CsfTensor.from_coo(coo4, (0, 1, 2, 3))
        re = csf.with_mode_order((2, 0, 1, 3))
        assert re.mode_order == (2, 0, 1, 3)
        assert np.allclose(re.to_coo().to_dense(), coo4.to_dense())

    def test_swapped_last_two(self, coo4):
        csf = CsfTensor.from_coo(coo4, (0, 1, 2, 3))
        sw = csf.swapped_last_two()
        assert sw.mode_order == (0, 1, 3, 2)
        assert np.allclose(sw.to_coo().to_dense(), coo4.to_dense())

    def test_swap_changes_level_d2_fibers_only_below(self, coo4):
        csf = CsfTensor.from_coo(coo4, (0, 1, 2, 3))
        sw = csf.swapped_last_two()
        # Levels above d-2 keep their fiber counts.
        assert sw.fiber_counts[:-2] == csf.fiber_counts[:-2]
        assert sw.fiber_counts[-1] == csf.fiber_counts[-1]

    def test_level_shape(self, coo4):
        csf = CsfTensor.from_coo(coo4, (2, 0, 3, 1))
        for lvl, mode in enumerate(csf.mode_order):
            assert csf.level_shape(lvl) == coo4.shape[mode]
