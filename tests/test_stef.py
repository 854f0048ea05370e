"""Tests for the CSF engines: the STeF and STeF2 facades and the one
routing rule every CSF comparator shares."""

import numpy as np
import pytest

from repro.baselines import ALL_BACKENDS, AdaTm
from repro.core import CsfEngine, MemoPlan, SAVE_NONE, Stef, Stef2
from repro.engines import create_engine
from repro.ops import mttkrp_dense
from repro.parallel import AMD_TR_64, INTEL_CLX_18, TrafficCounter
from repro.tensor import TABLE1_SPECS, CooTensor, generate, random_tensor
from repro.trace import Tracer
from tests.conftest import make_factors

#: Every engine that is a list of CSF trees behind one routing rule.
CSF_ENGINES = sorted(
    name for name, cls in ALL_BACKENDS.items() if issubclass(cls, CsfEngine)
)


def running_tree(engine, level):
    """The tree that must run update position ``level``, and its CSF
    level: the shallowest holder of the mode, the first on a tie."""
    mode = engine.mode_order[level]
    depths = [tree.csf.mode_order.index(mode) for tree in engine.trees]
    first = depths.index(min(depths))
    return engine.trees[first], depths[first]


@pytest.fixture(scope="module")
def workload():
    t = random_tensor((9, 7, 6, 5), nnz=220, seed=17)
    return t, t.to_dense(), make_factors(t.shape, 4, seed=18)


class TestStefConstruction:
    def test_planner_ran(self, workload):
        t, _, _ = workload
        s = Stef(t, 4)
        assert s.decision is not None
        assert s.preprocessing_seconds > 0
        assert len(s.decision.configurations) == 8  # 2 orders x 4 plans

    def test_machine_sets_threads(self, workload):
        t, _, _ = workload
        assert Stef(t, 4, machine=INTEL_CLX_18).num_threads == 18
        assert Stef(t, 4, machine=AMD_TR_64).num_threads == 64
        assert Stef(t, 4, machine=AMD_TR_64, num_threads=4).num_threads == 4

    def test_forced_plan_respected(self, workload):
        t, _, _ = workload
        s = Stef(t, 4, plan=MemoPlan((2,)))
        assert s.plan == MemoPlan((2,))

    def test_forced_swap_respected(self, workload):
        t, _, _ = workload
        for swap in (True, False):
            s = Stef(t, 4, swap_last_two=swap)
            assert s.swap_last_two is swap

    def test_swap_changes_csf_layout(self, workload):
        t, _, _ = workload
        a = Stef(t, 4, swap_last_two=False)
        b = Stef(t, 4, swap_last_two=True)
        assert a.mode_order[-2:] == b.mode_order[::-1][:2]

    def test_both_forced_skips_planner(self, workload):
        """Regression: forcing plan AND swap leaves nothing to search, so
        the enumeration must not run (benches were paying it anyway)."""
        t, dense, factors = workload
        s = Stef(t, 4, plan=MemoPlan((1,)), swap_last_two=False)
        assert s.decision is None
        assert s.preprocessing_seconds == 0.0
        assert s.plan == MemoPlan((1,))
        assert s.swap_last_two is False
        for level in range(t.ndim):
            assert np.allclose(
                s.mttkrp_level(factors, level),
                mttkrp_dense(dense, factors, s.mode_order[level]),
            )

    def test_single_forced_knob_still_plans(self, workload):
        t, _, _ = workload
        assert Stef(t, 4, plan=MemoPlan((1,))).decision is not None
        assert Stef(t, 4, swap_last_two=True).decision is not None

    def test_describe(self, workload):
        t, _, _ = workload
        s = Stef(t, 4)
        text = s.describe()
        assert "stef" in text and "save=" in text


class TestStefCorrectness:
    @pytest.mark.parametrize("swap", [False, True])
    @pytest.mark.parametrize("threads", [1, 4])
    def test_full_iteration(self, workload, swap, threads):
        t, dense, factors = workload
        s = Stef(t, 4, num_threads=threads, swap_last_two=swap)
        for mode, res in s.iteration_results(factors):
            assert np.allclose(res, mttkrp_dense(dense, factors, mode))

    def test_mttkrp_level_api(self, workload):
        t, dense, factors = workload
        s = Stef(t, 4, num_threads=2)
        s.mttkrp_level(factors, 0)
        for lvl in range(1, t.ndim):
            res = s.mttkrp_level(factors, lvl)
            mode = s.mode_order[lvl]
            assert np.allclose(res, mttkrp_dense(dense, factors, mode))

    def test_memo_bytes_after_mode0(self, workload):
        t, _, factors = workload
        s = Stef(t, 4, plan=MemoPlan((1,)), num_threads=2)
        s.mttkrp_level(factors, 0)
        assert s.memo_bytes() > 0
        s2 = Stef(t, 4, plan=SAVE_NONE)
        s2.mttkrp_level(factors, 0)
        assert s2.memo_bytes() == 0


class TestStef2:
    def test_second_csf_rooted_at_leaf_mode(self, workload):
        t, _, _ = workload
        s = Stef2(t, 4)
        assert s.trees[1].csf.mode_order[0] == s.csf.mode_order[-1]

    def test_full_iteration_matches_oracle(self, workload):
        t, dense, factors = workload
        s = Stef2(t, 4, num_threads=3)
        s.mttkrp_level(factors, 0)
        for lvl in range(1, t.ndim):
            res = s.mttkrp_level(factors, lvl)
            mode = s.mode_order[lvl]
            assert np.allclose(res, mttkrp_dense(dense, factors, mode))

    def test_extra_csf_bytes_positive(self, workload):
        t, _, _ = workload
        s = Stef2(t, 4)
        assert s.extra_csf_bytes() > 0

    def test_leaf_mode_avoids_leaf_kernel_traffic(self):
        """On a compressing tensor (nell-2's pathology) STeF2's leaf-mode
        sweep on the second CSF must generate less counted traffic than
        STeF's per-leaf scatter kernel — the gap the paper says STeF2
        closes on nell-2."""
        t = generate(TABLE1_SPECS["nell-2"], nnz=6000, seed=0)
        factors = make_factors(t.shape, 16, seed=3)
        c1, c2 = TrafficCounter(), TrafficCounter()
        s1 = Stef(t, 16, num_threads=2, counter=c1, plan=SAVE_NONE)
        s2 = Stef2(t, 16, num_threads=2, counter=c2, plan=SAVE_NONE)
        leaf = t.ndim - 1
        s1.mttkrp_level(factors, 0)
        s2.mttkrp_level(factors, 0)
        c1.reset(), c2.reset()
        s1.mttkrp_level(factors, leaf)
        s2.mttkrp_level(factors, leaf)
        # STeF's leaf kernel scatters one accumulation per *non-zero* into
        # the output (atomics or privatization, read+write); STeF2's sweep
        # writes each output row exactly once with no conflicted reads.
        out1 = c1.by_category.get("w:output", 0) + c1.by_category.get("r:output", 0)
        out2 = c2.by_category.get("w:output", 0) + c2.by_category.get("r:output", 0)
        assert out2 < 0.5 * out1


class TestModelDecisionsOnTable1:
    def test_vast_saving_beats_not_saving(self):
        """vast-2015-mc1-3d: within the base layout, heavy fiber
        compression makes saving clearly profitable (Section IV-A: 2.5B
        vs 3.4B total elements)."""
        t = generate(TABLE1_SPECS["vast-2015-mc1-3d"], nnz=15_000, seed=0)
        s = Stef(t, 32, machine=INTEL_CLX_18, num_threads=4)
        base_best = s.decision.best_with_swap(False)
        assert len(base_best.plan.save_levels) > 0

    def test_uber_avoids_biggest_partial(self):
        """uber: the model must not save the barely-compressing deepest
        partial (Section IV-A)."""
        t = generate(TABLE1_SPECS["uber"], nnz=6000, seed=0)
        s = Stef(t, 32, machine=INTEL_CLX_18, num_threads=4)
        assert (t.ndim - 2) not in s.plan.save_levels


class TestLevelLoadFactor:
    """Regression: ``level_load_factor(level)`` used to ignore ``level``
    and always return the leaf-count stretch."""

    @staticmethod
    def _skewed_coo():
        # Thread 0's half of the leaves sits in ONE level-1 fiber while
        # thread 1's half spreads over 50: leaf balance is perfect (1.0)
        # but the level-1 node deal is maximally skewed.
        n = 50
        idx = np.concatenate(
            [
                np.stack([np.zeros(n), np.zeros(n), np.arange(n)]),
                np.stack([np.ones(n), np.arange(n), np.zeros(n)]),
            ],
            axis=1,
        ).astype(np.int64)
        return CooTensor.from_arrays(idx, np.ones(2 * n), (2, n, n))

    def _skewed_engine(self):
        from repro.core import MemoizedMttkrp
        from repro.tensor import CsfTensor

        csf = CsfTensor.from_coo(self._skewed_coo(), (0, 1, 2))
        return MemoizedMttkrp(csf, 4, plan=MemoPlan((1,)), num_threads=2)

    def test_memo_fed_level_uses_source_level_balance(self):
        engine = self._skewed_engine()
        leaf_stretch = engine.level_load_factor(0)
        memo_stretch = engine.level_load_factor(1)
        assert leaf_stretch == pytest.approx(1.0)
        # Level 1 is memo-fed from the saved level-1 partials: 1 node vs
        # 50 nodes -> stretch 50 / 25.5.
        assert memo_stretch == pytest.approx(50 / 25.5)
        assert engine.level_load_factor(2) == leaf_stretch

    def test_out_of_range_level_raises(self, workload):
        tensor, _, _ = workload
        s = Stef(tensor, 4, machine=INTEL_CLX_18, num_threads=2)
        for level in (tensor.ndim, -1):
            with pytest.raises(ValueError):
                s.trees[0].level_load_factor(level)
            with pytest.raises(ValueError):
                s.level_load_factor(level)

    def test_stef_delegates_to_engine(self, workload):
        tensor, _, _ = workload
        s = Stef(tensor, 4, machine=INTEL_CLX_18, num_threads=3)
        for level in range(tensor.ndim):
            assert s.level_load_factor(level) == s.trees[0].level_load_factor(
                level
            )

    def test_stef2_leaf_level_uses_second_engine(self, workload):
        tensor, _, _ = workload
        s2 = Stef2(tensor, 4, machine=INTEL_CLX_18, num_threads=3)
        d = tensor.ndim
        assert s2.level_load_factor(d - 1) == s2.trees[1].level_load_factor(0)
        for level in range(d - 1):
            assert s2.level_load_factor(level) == s2.trees[0].level_load_factor(
                level
            )

    @pytest.mark.parametrize("name", CSF_ENGINES)
    def test_csf_engines_report_the_running_trees_stretch(self, name, workload):
        tensor, _, _ = workload
        with create_engine(
            name, tensor, 4, machine=INTEL_CLX_18, num_threads=3
        ) as engine:
            for level in range(tensor.ndim):
                tree, depth = running_tree(engine, level)
                assert engine.level_load_factor(level) == tree.level_load_factor(
                    depth
                )

    def test_adatm_memo_fed_level_uses_source_level_balance(self):
        """adatm used to report the leaf stretch at every level.  Its
        FLOP-minimal plan saves P^(1) here, and the slice deal gives one
        thread 1 level-1 node and the other 50."""
        adatm = AdaTm(self._skewed_coo(), 4, num_threads=2)
        assert adatm.plan == MemoPlan((1,))
        assert adatm.level_load_factor(0) == pytest.approx(1.0)
        assert adatm.level_load_factor(1) == pytest.approx(50 / 25.5)
        assert adatm.level_load_factor(2) == pytest.approx(1.0)


class TestCsfEngineRouting:
    """Every CSF engine runs each update position on one tree: the
    shallowest holder of its mode, the first such tree on a tie."""

    @pytest.fixture(scope="class")
    def workload3(self):
        t = random_tensor((30, 20, 10), nnz=500, seed=0)
        return t, make_factors(t.shape, 4, seed=1)

    def test_the_six_csf_engines(self):
        assert CSF_ENGINES == [
            "adatm", "splatt-1", "splatt-2", "splatt-all", "stef", "stef2",
        ]

    @pytest.mark.parametrize("name", CSF_ENGINES)
    def test_route_is_the_shallowest_tree(self, name, workload3):
        t, _ = workload3
        with create_engine(name, t, 4, num_threads=3) as engine:
            for level in range(t.ndim):
                tree, depth = engine.route(level)
                assert (tree, depth) == running_tree(engine, level)
                assert tree.csf.mode_order[depth] == engine.mode_order[level]
            with pytest.raises(ValueError, match="out of range"):
                engine.route(t.ndim)

    def test_stef2_runs_the_leaf_mode_on_the_second_tree(self, workload3):
        t, _ = workload3
        with create_engine("stef2", t, 4, num_threads=3) as engine:
            assert engine.route(t.ndim - 1) == (engine.trees[1], 0)
            for level in range(t.ndim - 1):
                assert engine.route(level) == (engine.trees[0], level)

    @pytest.mark.parametrize("name", CSF_ENGINES)
    def test_iteration_results_is_the_level_loop(self, name, workload3):
        """stef2's iteration_results used to run its leaf mode on the
        base CSF: other traffic, and no second ``mttkrp.mode0``."""
        t, factors = workload3
        runs = []
        for whole_iteration in (False, True):
            counter, tracer = TrafficCounter(), Tracer()
            with create_engine(
                name, t, 4, num_threads=3, counter=counter, tracer=tracer
            ) as engine:
                if whole_iteration:
                    results = engine.iteration_results(factors)
                else:
                    results = [
                        (engine.mode_order[level], engine.mttkrp_level(factors, level))
                        for level in range(t.ndim)
                    ]
            kernels = [
                (rec.name, rec.attrs) for rec in tracer.spans()
                if rec.name.startswith("mttkrp.")
            ]
            runs.append((results, dict(counter.by_category), kernels))
        (loop, loop_traffic, loop_spans), (it, it_traffic, it_spans) = runs
        assert it_traffic == loop_traffic
        assert it_spans == loop_spans
        for (mode_a, res_a), (mode_b, res_b) in zip(loop, it):
            assert mode_a == mode_b
            assert np.array_equal(res_a, res_b)

    @pytest.mark.parametrize("name", CSF_ENGINES)
    def test_trees_build_the_scatter_operators_of_their_routed_levels(
        self, name, workload3, monkeypatch
    ):
        """A tree builds level ``u``'s scatter operators, once, when
        ``u > 0`` is routed to it, and no others (splatt-all used to
        build them for every level of every tree and run none); a closed
        engine builds nothing."""
        from repro.core import mttkrp

        t, factors = workload3
        built = {}
        build = mttkrp.MemoizedMttkrp._build_scatter

        def counted(tree, u):
            built[id(tree), u] = built.get((id(tree), u), 0) + 1
            return build(tree, u)

        monkeypatch.setattr(mttkrp.MemoizedMttkrp, "_build_scatter", counted)
        closed = create_engine(name, t, 4, num_threads=3)
        closed.close()
        for level in range(t.ndim):
            with pytest.raises(RuntimeError):
                closed.mttkrp_level(factors, level)
        assert built == {}
        with create_engine(name, t, 4, num_threads=3) as engine:
            engine.iteration_results(factors)
            routed = [engine.route(level) for level in range(t.ndim)]
            engine.iteration_results(factors)
            assert built == {
                (id(tree), depth): 1 for tree, depth in routed if depth > 0
            }
