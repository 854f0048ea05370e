"""Unit tests for the ALTO linearized format."""

import numpy as np
import pytest

from repro.tensor import AltoMask, AltoTensor, bits_for_mode


class TestBits:
    @pytest.mark.parametrize(
        "length,expected",
        [(1, 1), (2, 1), (3, 2), (4, 2), (5, 3), (1024, 10), (1025, 11)],
    )
    def test_bits_for_mode(self, length, expected):
        assert bits_for_mode(length) == expected


class TestMask:
    def test_total_bits(self):
        mask = AltoMask.for_shape((8, 4, 2))
        assert mask.total_bits == 3 + 2 + 1

    def test_positions_disjoint_and_dense(self):
        mask = AltoMask.for_shape((100, 50, 7, 3))
        all_bits = sorted(b for pos in mask.positions for b in pos)
        assert all_bits == list(range(mask.total_bits))

    def test_encode_decode_roundtrip(self):
        rng = np.random.default_rng(0)
        shape = (37, 12, 90)
        idx = np.vstack([rng.integers(0, n, 500) for n in shape]).astype(np.int64)
        mask = AltoMask.for_shape(shape)
        lin = mask.encode(idx)
        assert np.array_equal(mask.decode(lin), idx)

    def test_encode_is_injective(self):
        shape = (5, 6, 7)
        mask = AltoMask.for_shape(shape)
        grid = np.array(
            [[i, j, k] for i in range(5) for j in range(6) for k in range(7)]
        ).T
        lin = mask.encode(grid)
        assert np.unique(lin).size == grid.shape[1]

    def test_wide_layout_uses_object_ints(self):
        # Five huge modes exceed 64 bits total.
        shape = (2**20, 2**20, 2**20, 2**20, 2**20)
        mask = AltoMask.for_shape(shape)
        assert mask.total_bits == 100
        idx = np.array([[2**19], [3], [2**18], [1], [2**20 - 1]], dtype=np.int64)
        lin = mask.encode(idx)
        assert lin.dtype == object
        assert np.array_equal(mask.decode(lin), idx)


class TestAltoTensor:
    def test_roundtrip(self, coo4):
        at = AltoTensor.from_coo(coo4)
        assert np.allclose(at.to_coo().to_dense(), coo4.to_dense())

    def test_sorted_linear_order(self, coo4):
        at = AltoTensor.from_coo(coo4)
        assert np.all(np.diff(at.linear.astype(np.int64)) >= 0)

    def test_index_bits_reporting(self, coo4):
        at = AltoTensor.from_coo(coo4)
        assert at.index_bits == 64

    def test_mode_indices_match_coo(self, coo3):
        at = AltoTensor.from_coo(coo3)
        back = at.to_coo()
        for m in range(coo3.ndim):
            assert np.array_equal(at.mode_indices(m), back.indices[m])

    def test_partitions_cover_exactly(self, coo4):
        at = AltoTensor.from_coo(coo4)
        parts = at.partitions(7)
        assert parts[0][0] == 0
        assert parts[-1][1] == at.nnz
        for (a, b), (c, _) in zip(parts, parts[1:]):
            assert b == c

    def test_partitions_balanced(self, coo4):
        at = AltoTensor.from_coo(coo4)
        sizes = [hi - lo for lo, hi in at.partitions(6)]
        assert max(sizes) - min(sizes) <= 1

    def test_partitions_invalid_raises(self, coo4):
        at = AltoTensor.from_coo(coo4)
        with pytest.raises(ValueError):
            at.partitions(0)

    def test_footprint(self, coo4):
        at = AltoTensor.from_coo(coo4)
        assert at.footprint_bytes() == coo4.nnz * 16  # 8B index + 8B value

    def test_shape_and_ndim(self, coo5):
        at = AltoTensor.from_coo(coo5)
        assert at.shape == coo5.shape
        assert at.ndim == coo5.ndim
        assert at.nnz == coo5.nnz
