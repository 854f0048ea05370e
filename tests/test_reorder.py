"""Tests for Lexi-Order index relabeling."""

import numpy as np
import pytest

from repro.reorder import lexi_order, random_relabel
from repro.tensor import CsfTensor, HicooTensor, TABLE1_SPECS, generate
from repro.ops import mttkrp_coo_reference
from tests.conftest import make_factors


class TestPermutations:
    def test_perms_are_bijections(self, coo4):
        rel = lexi_order(coo4)
        for m, p in enumerate(rel.perms):
            assert sorted(p.tolist()) == list(range(coo4.shape[m]))

    def test_apply_then_invert_identity(self, coo4):
        rel = lexi_order(coo4)
        back = rel.invert().apply(rel.apply(coo4))
        assert np.allclose(back.to_dense(), coo4.to_dense())

    def test_values_preserved(self, coo3):
        rel = lexi_order(coo3)
        rt = rel.apply(coo3)
        assert np.allclose(np.sort(rt.values), np.sort(coo3.values))
        assert rt.nnz == coo3.nnz

    def test_relabeled_dense_is_permutation(self, coo3):
        rel = lexi_order(coo3)
        rt = rel.apply(coo3)
        dense = coo3.to_dense()
        permuted = dense.copy()
        for m, p in enumerate(rel.perms):
            permuted = np.take(permuted, np.argsort(p), axis=m)
        # permuted[new coords] == dense[old coords]
        assert np.allclose(rt.to_dense(), permuted)

    def test_arity_mismatch_raises(self, coo3, coo4):
        rel = lexi_order(coo3)
        with pytest.raises(ValueError):
            rel.apply(coo4)

    def test_iterations_validated(self, coo3):
        with pytest.raises(ValueError):
            lexi_order(coo3, iterations=0)


class TestInvariants:
    def test_fiber_counts_invariant(self, coo4):
        """Relabeling permutes indices within modes: fiber counts (distinct
        prefixes) cannot change — which is why Lexi-Order is complementary
        to STeF's fiber-count-driven decisions (Section V)."""
        rel = lexi_order(coo4)
        rt = rel.apply(coo4)
        order = (0, 1, 2, 3)
        assert (
            CsfTensor.from_coo(rt, order).fiber_counts
            == CsfTensor.from_coo(coo4, order).fiber_counts
        )

    def test_mttkrp_equivalent_after_unrelabel(self, coo4):
        """MTTKRP on the relabeled tensor with relabeled factors equals
        the original MTTKRP with rows permuted."""
        rel = lexi_order(coo4)
        rt = rel.apply(coo4)
        factors = make_factors(coo4.shape, 3, seed=5)
        relabeled_factors = rel.invert().unrelabel_factors(factors)
        # relabeled_factors[m][new_id] == factors[m][old_id]
        for u in range(coo4.ndim):
            orig = mttkrp_coo_reference(coo4, factors, u)
            new = mttkrp_coo_reference(rt, relabeled_factors, u)
            assert np.allclose(new[rel.perms[u]], orig)

    def test_unrelabel_factor_arity(self, coo3):
        rel = lexi_order(coo3)
        with pytest.raises(ValueError):
            rel.unrelabel_factors([np.ones((4, 2))])


class TestLocalityEffect:
    def test_lexi_reduces_blocks_on_clustered_data(self):
        t = generate(TABLE1_SPECS["nell-2"], nnz=3000, seed=0)
        base = HicooTensor.from_coo(t, 4).n_blocks
        lexi = HicooTensor.from_coo(lexi_order(t).apply(t), 4).n_blocks
        rand = HicooTensor.from_coo(random_relabel(t, 3).apply(t), 4).n_blocks
        assert lexi < base
        assert lexi < rand

    def test_random_relabel_deterministic(self, coo3):
        a = random_relabel(coo3, seed=9)
        b = random_relabel(coo3, seed=9)
        for pa, pb in zip(a.perms, b.perms):
            assert np.array_equal(pa, pb)

    def test_empty_tensor(self):
        from repro.tensor import CooTensor

        t = CooTensor.from_arrays(
            np.empty((3, 0), dtype=np.int64), np.empty(0), shape=(4, 4, 4)
        )
        rel = lexi_order(t)
        assert rel.apply(t).nnz == 0
