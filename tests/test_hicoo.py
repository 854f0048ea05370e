"""Unit tests for HiCOO blocked storage."""

import numpy as np
import pytest

from repro.tensor import CooTensor, HicooTensor


class TestRoundTrip:
    @pytest.mark.parametrize("bits", [1, 3, 7, 8])
    def test_roundtrip(self, coo4, bits):
        h = HicooTensor.from_coo(coo4, block_bits=bits)
        assert np.allclose(h.to_coo().to_dense(), coo4.to_dense())

    def test_roundtrip_3d_5d(self, coo3, coo5):
        for t in (coo3, coo5):
            h = HicooTensor.from_coo(t, block_bits=4)
            assert np.allclose(h.to_coo().to_dense(), t.to_dense())

    def test_empty(self):
        t = CooTensor.from_arrays(
            np.empty((3, 0), dtype=np.int64), np.empty(0), shape=(8, 8, 8)
        )
        h = HicooTensor.from_coo(t)
        assert h.n_blocks == 0
        assert h.nnz == 0
        assert h.to_coo().nnz == 0

    def test_invalid_bits(self, coo3):
        with pytest.raises(ValueError):
            HicooTensor.from_coo(coo3, block_bits=0)
        with pytest.raises(ValueError):
            HicooTensor.from_coo(coo3, block_bits=9)


class TestStructure:
    def test_offsets_within_block(self, coo4):
        h = HicooTensor.from_coo(coo4, block_bits=3)
        assert h.offsets.max() < 8
        assert h.offsets.dtype == np.uint8

    def test_block_ptr_covers(self, coo4):
        h = HicooTensor.from_coo(coo4, block_bits=3)
        assert h.block_ptr[0] == 0
        assert h.block_ptr[-1] == coo4.nnz
        assert np.all(np.diff(h.block_ptr) >= 1)

    def test_block_count_bounds(self, coo4):
        h = HicooTensor.from_coo(coo4, block_bits=2)
        assert 1 <= h.n_blocks <= coo4.nnz

    def test_bigger_blocks_fewer(self, coo4):
        small = HicooTensor.from_coo(coo4, block_bits=1)
        large = HicooTensor.from_coo(coo4, block_bits=6)
        assert large.n_blocks <= small.n_blocks

    def test_occupancy(self, coo4):
        h = HicooTensor.from_coo(coo4, block_bits=4)
        assert np.isclose(h.average_block_occupancy, coo4.nnz / h.n_blocks)
        assert h.block_histogram().sum() == coo4.nnz

    def test_footprint_smaller_than_coo_for_clustered(self):
        """A fully clustered tensor must compress well: offsets are 1 byte
        vs 8 for raw COO indices."""
        rng = np.random.default_rng(0)
        idx = rng.integers(0, 16, size=(3, 2000)).astype(np.int64)
        t = CooTensor.from_arrays(idx, rng.random(2000), shape=(4096,) * 3)
        h = HicooTensor.from_coo(t, block_bits=4)
        coo_bytes = t.indices.nbytes + t.values.nbytes
        assert h.footprint_bytes() < coo_bytes
