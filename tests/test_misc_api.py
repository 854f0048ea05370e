"""Coverage for small public APIs not exercised elsewhere."""

import numpy as np

from repro.parallel import SimulatedPool, TrafficCounter


class TestCounterMergeFlops:
    def test_flops_merge(self):
        a, b = TrafficCounter(), TrafficCounter()
        a.flop(100, "x")
        b.flop(50, "x")
        b.flop(25, "y")
        a.merge(b)
        assert a.flops == 175
        assert a.by_category["f:x"] == 150
        assert a.by_category["f:y"] == 25

    def test_reset_clears_flops(self):
        c = TrafficCounter()
        c.flop(10)
        c.reset()
        assert c.flops == 0

    def test_snapshot_includes_flops(self):
        c = TrafficCounter()
        c.flop(7)
        assert c.snapshot()["flops"] == 7


class TestCsfSmallApis:
    def test_num_children(self, csf4):
        for lvl in range(csf4.ndim - 1):
            counts = csf4.num_children(lvl)
            assert counts.sum() == csf4.fiber_counts[lvl + 1]
            assert np.all(counts >= 1)

    def test_repr(self, csf4, coo4):
        assert "CsfTensor" in repr(csf4)
        assert "CooTensor" in repr(coo4)

    def test_hicoo_repr(self, coo4):
        from repro.tensor import HicooTensor

        assert "HicooTensor" in repr(HicooTensor.from_coo(coo4))


class TestPoolRepr:
    def test_repr(self):
        assert "SimulatedPool" in repr(SimulatedPool(2))


class TestStefDescribeVariants:
    def test_stef2_describe_mentions_second_csf(self, coo4):
        from repro.core import Stef2

        s = Stef2(coo4, 3, num_threads=2)
        assert "csf2" in s.describe()

    def test_splatt_describes(self, coo4):
        from repro.baselines import Splatt1, Splatt2, SplattAll

        assert "splatt-1" in Splatt1(coo4, 2).describe()
        assert "splatt-2" in Splatt2(coo4, 2).describe()
        assert "CSF copies" in SplattAll(coo4, 2).describe()


class TestPartialTensorToDense:
    def test_to_dense_shape(self, coo4):
        from repro.ops import ttm_last_mode
        from tests.conftest import make_factors

        fac = make_factors(coo4.shape, 2, seed=0)
        p = ttm_last_mode(coo4, fac[3], [0, 1, 2, 3])
        assert p.to_dense().shape == coo4.shape[:3] + (2,)


class TestModelBreakdownProperties:
    def test_totals(self):
        from repro.core import DataMovementModel, SAVE_NONE, TensorStats

        st = TensorStats((5, 20, 50), (8, 32, 64), (0, 1, 2))
        model = DataMovementModel(st, 4)
        bd = model.breakdown(SAVE_NONE)
        assert bd.total == bd.total_reads + bd.total_writes
        assert len(bd.writes_per_mode) == 3


class TestConfigurationDescribe:
    def test_describe_fields(self, csf4):
        from repro.core import plan_decomposition

        d = plan_decomposition(csf4, 4)
        text = d.configurations[-1].describe()
        assert "order=" in text and "traffic=" in text
