"""Failure-injection tests for the structural validators."""

import dataclasses

import numpy as np
import pytest

from repro.tensor import (
    AltoTensor,
    CooTensor,
    HicooTensor,
    ValidationError,
    check_alto,
    check_coo,
    check_csf,
    check_hicoo,
    validate_coo,
    validate_csf,
    validate_hicoo,
)


def _mutate(obj, **changes):
    """Frozen-dataclass field surgery for corruption injection."""
    return dataclasses.replace(obj, **changes)


class TestCooValidation:
    def test_valid_passes(self, coo4):
        assert validate_coo(coo4) == []
        check_coo(coo4)

    def test_out_of_range_detected(self, coo3):
        idx = coo3.indices.copy()
        idx[0, 0] = coo3.shape[0] + 5
        bad = CooTensor(idx, coo3.values, coo3.shape)
        assert any("out of" in p for p in validate_coo(bad))
        with pytest.raises(ValidationError):
            check_coo(bad)

    def test_unsorted_detected(self, coo3):
        idx = coo3.indices[:, ::-1].copy()
        bad = CooTensor(idx, coo3.values[::-1].copy(), coo3.shape)
        assert any("sorted" in p for p in validate_coo(bad))

    def test_duplicates_detected(self):
        idx = np.array([[0, 0], [1, 1]])
        bad = CooTensor(idx, np.ones(2), (2, 2))
        assert any("duplicate" in p for p in validate_coo(bad))

    def test_nonfinite_value_detected(self, coo3):
        values = coo3.values.copy()
        values[[2, 5]] = [np.inf, np.nan]
        bad = CooTensor(coo3.indices, values, coo3.shape)
        problem = f"2 of {coo3.nnz} values are not finite (first: inf at position 2)"
        assert problem in validate_coo(bad)
        with pytest.raises(ValidationError, match="not finite"):
            check_coo(bad)

    def test_value_length_mismatch(self, coo3):
        bad = CooTensor(coo3.indices, coo3.values[:-1], coo3.shape)
        assert any("values" in p for p in validate_coo(bad))


class TestCsfValidation:
    def test_valid_passes(self, csf4):
        assert validate_csf(csf4) == []
        check_csf(csf4)

    def test_corrupt_ptr_monotonicity(self, csf4):
        ptr = [p.copy() for p in csf4.ptr]
        if ptr[0].shape[0] > 2:
            ptr[0][1] = ptr[0][2]  # create an empty node
        bad = _mutate(csf4, ptr=ptr)
        assert any("increasing" in p or "empty" in p for p in validate_csf(bad))

    def test_corrupt_ptr_coverage(self, csf4):
        ptr = [p.copy() for p in csf4.ptr]
        ptr[0][-1] += 1
        bad = _mutate(csf4, ptr=ptr)
        assert any("cover" in p for p in validate_csf(bad))
        with pytest.raises(ValidationError):
            check_csf(bad)

    def test_out_of_range_index(self, csf4):
        idx = [a.copy() for a in csf4.idx]
        idx[1][0] = csf4.level_shape(1) + 10
        bad = _mutate(csf4, idx=idx)
        assert any("out of" in p for p in validate_csf(bad))

    def test_unsorted_children(self, csf4):
        idx = [a.copy() for a in csf4.idx]
        # Find a node at level 0 with >= 2 children and swap them.
        counts = np.diff(csf4.ptr[0])
        node = int(np.argmax(counts))
        if counts[node] >= 2:
            s = int(csf4.ptr[0][node])
            idx[1][s], idx[1][s + 1] = idx[1][s + 1], idx[1][s]
            bad = _mutate(csf4, idx=idx)
            assert any("sorted within" in p for p in validate_csf(bad))

    def test_misaligned_values(self, csf4):
        bad = _mutate(csf4, values=csf4.values[:-1])
        assert any("aligned" in p for p in validate_csf(bad))

    def test_bad_mode_order(self, csf4):
        bad = _mutate(csf4, mode_order=(0, 0, 1, 2))
        assert any("permutation" in p for p in validate_csf(bad))


class TestAltoValidation:
    def test_valid_passes(self, coo4):
        check_alto(AltoTensor.from_coo(coo4))

    def test_unsorted_linear_detected(self, coo4):
        at = AltoTensor.from_coo(coo4)
        bad = _mutate(at, linear=at.linear[::-1].copy())
        with pytest.raises(ValidationError):
            check_alto(bad)

    def test_misaligned_values(self, coo4):
        at = AltoTensor.from_coo(coo4)
        bad = _mutate(at, values=at.values[:-1])
        with pytest.raises(ValidationError):
            check_alto(bad)


class TestHicooValidation:
    def test_valid_passes(self, coo4):
        check_hicoo(HicooTensor.from_coo(coo4, 3))

    def test_offset_overflow_detected(self, coo4):
        h = HicooTensor.from_coo(coo4, 2)
        off = h.offsets.copy()
        off[0, 0] = 99
        bad = _mutate(h, offsets=off)
        assert any("block width" in p for p in validate_hicoo(bad))

    def test_ptr_coverage_detected(self, coo4):
        h = HicooTensor.from_coo(coo4, 3)
        ptr = h.block_ptr.copy()
        ptr[-1] -= 1
        bad = _mutate(h, block_ptr=ptr)
        with pytest.raises(ValidationError):
            check_hicoo(bad)

    def test_block_coord_range(self, coo4):
        h = HicooTensor.from_coo(coo4, 3)
        bc = h.block_coords.copy()
        bc[0, 0] = 10**6
        bad = _mutate(h, block_coords=bc)
        assert any("block coordinates" in p for p in validate_hicoo(bad))
