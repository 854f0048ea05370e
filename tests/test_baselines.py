"""Tests for the baseline reimplementations (SPLATT/AdaTM/ALTO/TACO)."""

import numpy as np
import pytest

from repro.baselines import (
    ALL_BACKENDS,
    AdaTm,
    AltoBackend,
    Splatt1,
    Splatt2,
    SplattAll,
    TacoBackend,
    flop_count,
    flop_minimal_plan,
)
from repro.core import SAVE_NONE, MemoPlan
from repro.ops import mttkrp_dense
from repro.parallel import INTEL_CLX_18, TrafficCounter
from repro.tensor import TABLE1_SPECS, generate, random_tensor
from tests.conftest import make_factors


@pytest.fixture(scope="module")
def workload():
    t = random_tensor((9, 7, 6, 5), nnz=200, seed=7)
    return t, t.to_dense(), make_factors(t.shape, 4, seed=8)


class TestRegistry:
    def test_contains_all_paper_methods(self):
        paper_methods = {
            "stef", "stef2", "adatm", "alto",
            "splatt-1", "splatt-2", "splatt-all", "taco",
        }
        assert paper_methods <= set(ALL_BACKENDS)
        # Plus the dimension-tree extension (Section V's missing baseline).
        assert "dimtree" in ALL_BACKENDS

    @pytest.mark.parametrize("name", sorted(ALL_BACKENDS))
    def test_backend_protocol(self, workload, name):
        t, dense, factors = workload
        b = ALL_BACKENDS[name](t, 4, num_threads=3)
        assert len(b.mode_order) == t.ndim
        assert sorted(b.mode_order) == list(range(t.ndim))
        assert hasattr(b, "describe")
        for lvl in range(t.ndim):
            assert b.level_load_factor(lvl) >= 1.0

    @pytest.mark.parametrize("name", sorted(ALL_BACKENDS))
    def test_every_mode_matches_oracle(self, workload, name):
        t, dense, factors = workload
        b = ALL_BACKENDS[name](t, 4, num_threads=3)
        for lvl in range(t.ndim):
            res = b.mttkrp_level(factors, lvl)
            assert np.allclose(res, mttkrp_dense(dense, factors, b.mode_order[lvl]))

    @pytest.mark.parametrize("name", sorted(ALL_BACKENDS))
    def test_machine_default_threads(self, workload, name):
        t, _, _ = workload
        b = ALL_BACKENDS[name](t, 2, machine=INTEL_CLX_18)
        assert b.num_threads == 18
        # CSF engines run every tree with the machine's threads.
        for tree in getattr(b, "trees", ()):
            assert tree.num_threads == 18


class TestSplattVariants:
    def test_splatt1_one_copy(self, workload):
        t, _, _ = workload
        b1 = Splatt1(t, 4)
        ball = SplattAll(t, 4)
        assert b1.tensor_bytes() < ball.tensor_bytes()
        assert ball.tensor_bytes() > 3 * b1.tensor_bytes() * 0.8

    def test_splatt2_two_copies(self, workload):
        t, _, _ = workload
        b2 = Splatt2(t, 4)
        a, b = (tree.csf.mode_order for tree in b2.trees)
        assert a != b
        assert b[0] == a[-1]

    def test_splatt2_dispatch_prefers_shallow(self, workload):
        t, _, _ = workload
        b2 = Splatt2(t, 4)
        for level, mode in enumerate(b2.mode_order):
            tree, lvl = b2.route(level)
            assert tree.csf.mode_order[lvl] == mode
            for other in b2.trees:
                assert lvl <= other.csf.mode_order.index(mode)

    def test_no_memoization(self, workload):
        t, _, factors = workload
        b1 = Splatt1(t, 4)
        b1.mttkrp_level(factors, 0)
        assert b1.trees[0].memo == {}


class TestAdaTm:
    def test_flop_count_decreases_with_memo(self):
        fibers = (10, 100, 5_000, 100_000)
        none = flop_count(fibers, 16, SAVE_NONE)
        full = flop_count(fibers, 16, MemoPlan((1, 2)))
        assert full < none

    def test_flop_minimal_plan_memoizes_compressing_tensors(self):
        fibers = (10, 100, 5_000, 100_000)
        plan = flop_minimal_plan(fibers, 16)
        assert len(plan.save_levels) > 0

    def test_adatm_ignores_data_movement(self):
        """On an uber-like tensor AdaTM memoizes where STeF's model would
        not — the decision gap the paper attributes to AdaTM."""
        t = generate(TABLE1_SPECS["uber"], nnz=4000, seed=0)
        adatm = AdaTm(t, 32)
        from repro.core import Stef

        stef = Stef(t, 32, machine=INTEL_CLX_18)
        assert len(adatm.plan.save_levels) >= len(stef.plan.save_levels)

    def test_uses_slice_partition(self, workload):
        t, _, _ = workload
        adatm = AdaTm(t, 4, num_threads=3)
        assert adatm.trees[0].partition.strategy == "slice"


class TestAlto:
    def test_perfect_balance(self, workload):
        t, _, _ = workload
        b = AltoBackend(t, 4, num_threads=7)
        assert b.level_load_factor(0) < 1.2

    def test_footprint_single_copy(self, workload):
        t, _, _ = workload
        b = AltoBackend(t, 4)
        assert b.tensor_bytes() == t.nnz * 16

    def test_traffic_higher_than_csf_sweep(self, workload):
        """ALTO recomputes from scratch per mode with no tree compression;
        its counted traffic must exceed splatt-all's."""
        t, _, factors = workload
        ca, cs = TrafficCounter(), TrafficCounter()
        alto = AltoBackend(t, 4, num_threads=2, counter=ca)
        splatt = SplattAll(t, 4, num_threads=2, counter=cs)
        for lvl in range(t.ndim):
            alto.mttkrp_level(factors, lvl)
            splatt.mttkrp_level(factors, lvl)
        assert ca.total > cs.total


class TestTaco:
    def test_autotune_selects_from_grid(self, workload):
        t, _, _ = workload
        b = TacoBackend(t, 4, num_threads=2)
        from repro.baselines.taco import CHUNK_GRID

        assert b.chunk_slices in CHUNK_GRID
        assert b.tuning_seconds > 0

    def test_autotune_off(self, workload):
        t, _, _ = workload
        b = TacoBackend(t, 4, num_threads=2, autotune=False)
        assert b.tuning_seconds == 0.0

    def test_autotune_releases_the_probes_it_drops(self, workload):
        """Under processes the tuner's unchosen chunk sizes leave no
        segment behind: after one MTTKRP set a tuned engine holds as
        many as an untuned one (a spec's segment count does not depend
        on its chunk size)."""
        t, _, factors = workload
        segments = {}
        for autotune in (True, False):
            with TacoBackend(
                t, 4, num_threads=3, exec_backend="processes",
                autotune=autotune,
            ) as b:
                b.iteration_results(factors)
                segments[autotune] = len(b._ctx.arena)
        assert segments[True] == segments[False]

    def test_correct_for_every_chunk_size(self, workload):
        t, dense, factors = workload
        from repro.baselines.taco import CHUNK_GRID

        for chunk in CHUNK_GRID:
            b = TacoBackend(t, 4, num_threads=3, autotune=False)
            b.chunk_slices = chunk
            res = b.mttkrp_level(factors, 1)
            assert np.allclose(res, mttkrp_dense(dense, factors, 1)), chunk
