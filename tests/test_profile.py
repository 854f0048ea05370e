"""Tests for the per-mode profiling layer."""

import numpy as np
import pytest

from repro.analysis import profile_method
from repro.engines import EngineBase
from repro.parallel import INTEL_CLX_18
from repro.tensor import TABLE1_SPECS, generate


@pytest.fixture(scope="module")
def nell2():
    return generate(TABLE1_SPECS["nell-2"], nnz=3000, seed=0)


class TestProfileMethod:
    def test_levels_cover_all_modes(self, nell2):
        p = profile_method(
            "stef", nell2, 16, INTEL_CLX_18, num_threads=4, tensor_name="nell-2"
        )
        assert sorted(lv.mode for lv in p.levels) == list(range(nell2.ndim))
        assert all(lv.traffic > 0 for lv in p.levels)
        assert all(lv.seconds > 0 for lv in p.levels)

    def test_category_deltas_sum_to_totals(self, nell2):
        p = profile_method(
            "stef", nell2, 16, INTEL_CLX_18, num_threads=4, tensor_name="nell-2"
        )
        for lv in p.levels:
            traffic_cats = sum(
                v for k, v in lv.categories.items() if not k.startswith("f:")
            )
            assert np.isclose(traffic_cats, lv.traffic)
            flop_cats = sum(
                v for k, v in lv.categories.items() if k.startswith("f:")
            )
            assert np.isclose(flop_cats, lv.flops)

    def test_bottleneck_is_max(self, nell2):
        p = profile_method(
            "stef", nell2, 16, INTEL_CLX_18, num_threads=4, tensor_name="nell-2"
        )
        assert p.bottleneck_level().seconds == max(lv.seconds for lv in p.levels)

    def test_nell2_leaf_mode_is_stefs_bottleneck(self, nell2):
        """The paper's diagnosis: STeF's weak kernel on nell-2 is the
        leaf-mode MTTV; the profile must name that level the bottleneck,
        dominated by output scatter."""
        p = profile_method(
            "stef", nell2, 32, INTEL_CLX_18, num_threads=8, tensor_name="nell-2"
        )
        bott = p.bottleneck_level()
        assert bott.level == nell2.ndim - 1
        assert bott.dominant_category() in ("w:output", "r:output")

    def test_stef2_moves_the_bottleneck(self, nell2):
        """STeF2's second CSF removes the leaf-mode scatter."""
        p1 = profile_method(
            "stef", nell2, 32, INTEL_CLX_18, num_threads=8, tensor_name="nell-2"
        )
        p2 = profile_method(
            "stef2", nell2, 32, INTEL_CLX_18, num_threads=8, tensor_name="nell-2"
        )
        leaf = nell2.ndim - 1
        assert p2.levels[leaf].seconds < p1.levels[leaf].seconds

    def test_format_output(self, nell2):
        p = profile_method(
            "alto", nell2, 8, INTEL_CLX_18, num_threads=2, tensor_name="nell-2"
        )
        text = p.format()
        assert "bottleneck" in text
        assert "alto" in text

    def test_every_backend_profiles(self, nell2):
        from repro.baselines import ALL_BACKENDS

        for method in ALL_BACKENDS:
            p = profile_method(
                method, nell2, 8, INTEL_CLX_18, num_threads=2,
                tensor_name="nell-2",
            )
            assert len(p.levels) == nell2.ndim, method


class TestCliProfile:
    def test_profile_subcommand(self):
        import io

        from repro.cli import main

        out = io.StringIO()
        code = main(
            ["profile", "uber", "--nnz", "600", "--rank", "8",
             "--threads", "2", "--backend", "stef2"],
            out=out,
        )
        assert code == 0
        assert "bottleneck" in out.getvalue()


class TestCounterCorruptionDetection:
    """``profile_method`` must refuse to silently drop shrinking tallies
    (it previously skipped negative per-category deltas, masking counter
    corruption such as lost concurrent updates or stray resets)."""

    class _CorruptingBackend(EngineBase):
        name = "corrupt"
        levels_before_reset = 1

        def __init__(self, tensor, rank, *, machine=None, num_threads=None,
                     counter=None, **opts):
            self.counter = counter
            self.mode_order = tuple(range(tensor.ndim))

        def mttkrp_level(self, factors, level):
            if level < self.levels_before_reset:
                self.counter.read(50, "structure")
                self.counter.flop(10, "sweep")
            else:
                # Simulates lost updates: tallies go backwards.
                self.counter.reset()
                self.counter.read(1, "structure")
            return np.zeros((len(factors[self.mode_order[level]]), 1))

        def level_load_factor(self, level):
            return 1.0

    def test_negative_category_delta_raises(self, nell2, monkeypatch):
        from repro.baselines import ALL_BACKENDS

        monkeypatch.setitem(ALL_BACKENDS, "corrupt", self._CorruptingBackend)
        with pytest.raises(RuntimeError, match="counter corruption"):
            profile_method("corrupt", nell2, 4, INTEL_CLX_18, num_threads=2)

    def test_healthy_backend_unaffected(self, nell2):
        p = profile_method(
            "stef", nell2, 8, INTEL_CLX_18, num_threads=2,
            tensor_name="nell-2", exec_backend="threads",
        )
        assert len(p.levels) == nell2.ndim

    def test_threads_profile_matches_serial(self, nell2):
        serial = profile_method(
            "stef", nell2, 8, INTEL_CLX_18, num_threads=4,
            tensor_name="nell-2", exec_backend="serial",
        )
        threaded = profile_method(
            "stef", nell2, 8, INTEL_CLX_18, num_threads=4,
            tensor_name="nell-2", exec_backend="threads",
        )
        for a, b in zip(serial.levels, threaded.levels):
            assert a.categories == b.categories
            assert a.traffic == b.traffic
            assert a.flops == b.flops
