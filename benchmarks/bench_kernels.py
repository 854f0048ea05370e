"""Kernel microbenchmarks — the performance-regression suite.

Wall-times the primitives everything else is built from: CSF
construction, the upward/downward sweeps and the leaf-mode scatter as
the engines run them (over operators built beforehand), Algorithm 9,
ALTO encode/decode, partition construction, and the full memoized
MTTKRP set.  Useful for catching performance regressions in the
vectorized kernels (the paper's wall-clock story lives or dies on
these loops being level-vectorized rather than per-node).
"""

import numpy as np
import pytest

from common import bench_tensor
from repro.core import (
    MemoPlan,
    MemoizedMttkrp,
    ancestor_windows,
    block_downward_k,
    block_plan,
    block_upward_sweep,
    count_swapped_fibers,
    plan_decomposition,
)
from repro.core.csf_kernels import scatter_add_rows
from repro.cpd import random_init
from repro.kernels import leaf_scatter_operator
from repro.parallel import nnz_partition, slice_partition
from repro.tensor import AltoTensor, CsfTensor, random_tensor

TENSOR = "flickr-4d"
RANK = 32


@pytest.fixture(scope="module")
def setup():
    tensor = bench_tensor(TENSOR, nnz=20_000)
    csf = CsfTensor.from_coo(tensor)
    factors = random_init(tensor.shape, RANK, 0)
    lf = [factors[m] for m in csf.mode_order]
    return tensor, csf, factors, lf


def whole_plan(csf):
    """The plan of one execution block owning every leaf, built outside
    the timed calls as engines build theirs at construction."""
    d = csf.ndim
    return block_plan(csf, [ancestor_windows(csf, d - 1, 0, csf.nnz)], stop_level=0)


def test_csf_construction(benchmark, setup):
    tensor, _, _, _ = setup
    benchmark(CsfTensor.from_coo, tensor)


def test_upward_sweep(benchmark, setup):
    """The leaf sweep up to the root over operators built outside the
    timed call, as engines build theirs at construction."""
    _, csf, _, lf = setup
    d = csf.ndim
    benchmark(
        block_upward_sweep, whole_plan(csf), lf, start_level=d - 1, stop_level=0,
        keep=(0,),
    )


def test_downward_k_full(benchmark, setup):
    """``k_{d-2}`` with level d-2's own factor rows folded in, over every
    level-(d-2) node: what the leaf-mode kernel computes."""
    _, csf, _, lf = setup
    benchmark(block_downward_k, whole_plan(csf), lf, csf.ndim - 2, multiply_last=True)


def test_scatter_add(benchmark, setup):
    """The leaf-mode scatter ``out[targets] += M @ k_{d-2}`` through the
    leaf scatter operator, built once outside the timed call as engines
    build theirs at construction."""
    _, csf, _, lf = setup
    d = csf.ndim
    m = csf.fiber_counts[d - 2]
    k = block_downward_k(whole_plan(csf), lf, d - 2, multiply_last=True)
    parents = np.repeat(np.arange(m), np.diff(csf.ptr[d - 2]))
    op = leaf_scatter_operator(csf.idx[d - 1], csf.values, parents, m)
    n = csf.level_shape(d - 1)

    def run():
        out = np.zeros((n, RANK))
        scatter_add_rows(out, op, k)
        return out

    benchmark(run)


def test_algorithm9(benchmark, setup):
    _, csf, _, _ = setup
    benchmark(count_swapped_fibers, csf)


def test_planner_search(benchmark, setup):
    _, csf, _, _ = setup
    benchmark(plan_decomposition, csf, RANK)


def test_alto_encode(benchmark, setup):
    tensor, _, _, _ = setup
    benchmark(AltoTensor.from_coo, tensor)


def test_alto_decode_mode(benchmark, setup):
    tensor, _, _, _ = setup
    alto = AltoTensor.from_coo(tensor)
    benchmark(alto.mode_indices, 1)


@pytest.mark.parametrize("strategy", ["nnz", "slice"])
def test_partition_construction(benchmark, setup, strategy):
    _, csf, _, _ = setup
    fn = nnz_partition if strategy == "nnz" else slice_partition
    benchmark(fn, csf, 64)


def test_coo_to_dense(benchmark):
    # flickr-4d is far too large to densify; use a dense-able cube that
    # still stresses the bincount scatter with duplicate indices.
    tensor = random_tensor((60, 50, 40), nnz=50_000, seed=0)
    benchmark(tensor.to_dense)


def test_scatter_guard_flat_bincount_vs_add_at():
    """Regression guard for the densification scatter.

    ``CooTensor.to_dense`` and ``PartialTensor.to_dense`` used to scatter
    with a multi-index ``np.add.at``; they now flatten with
    ``ravel_multi_index`` and reduce with ``np.bincount`` / segmented
    reduction.  Recent NumPy gave ``add.at`` a fast path, so the win is
    modest on this host — the guard therefore asserts the vectorized path
    never becomes a *pessimization* (within 1.3x of the add.at baseline,
    measured best-of-5).  If it trips, the to_dense rewrites should be
    revisited rather than papered over.
    """
    import time

    rng = np.random.default_rng(0)
    shape = (200, 300, 150)
    nnz = 200_000
    idx = tuple(rng.integers(0, s, size=nnz) for s in shape)
    vals = rng.standard_normal(nnz)

    def add_at_multi():
        out = np.zeros(shape)
        np.add.at(out, idx, vals)
        return out

    def flat_bincount():
        flat = np.ravel_multi_index(idx, shape)
        size = int(np.prod(shape))
        return np.bincount(flat, weights=vals, minlength=size).reshape(shape)

    def best_of(fn, rounds=5):
        best = float("inf")
        for _ in range(rounds):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    assert np.allclose(add_at_multi(), flat_bincount())
    t_add_at = best_of(add_at_multi)
    t_bincount = best_of(flat_bincount)
    assert t_bincount <= 1.3 * t_add_at, (
        f"flat bincount scatter ({t_bincount * 1e3:.2f} ms) is a "
        f"pessimization vs np.add.at ({t_add_at * 1e3:.2f} ms) — revisit "
        "the to_dense scatter idiom"
    )


@pytest.mark.parametrize("plan_levels", [(), (1, 2)])
def test_full_mttkrp_set(benchmark, setup, plan_levels):
    _, csf, factors, _ = setup
    engine = MemoizedMttkrp(
        csf, RANK, plan=MemoPlan(plan_levels), num_threads=8
    )
    benchmark.pedantic(
        engine.iteration_results, args=(factors,), rounds=3, iterations=1,
        warmup_rounds=1,
    )
