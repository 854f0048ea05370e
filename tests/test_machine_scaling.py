"""Tests for the roofline machine model's resource-scaling behaviour."""

import pytest

from repro.parallel import AMD_TR_64, INTEL_CLX_18, MachineSpec


class TestEffectiveResources:
    def test_bandwidth_saturates(self):
        m = AMD_TR_64
        # Saturation at a quarter of the cores.
        assert m.effective_bandwidth_gbps(16) == m.dram_gbps
        assert m.effective_bandwidth_gbps(64) == m.dram_gbps
        assert m.effective_bandwidth_gbps(8) == pytest.approx(m.dram_gbps / 2)
        assert m.effective_bandwidth_gbps(1) < m.dram_gbps / 10

    def test_bandwidth_default_full(self):
        assert INTEL_CLX_18.effective_bandwidth_gbps() == INTEL_CLX_18.dram_gbps

    def test_gflops_linear(self):
        m = INTEL_CLX_18
        assert m.effective_gflops(9) == pytest.approx(m.gflops / 2)
        assert m.effective_gflops(18) == m.gflops
        assert m.effective_gflops(100) == m.gflops  # capped

    def test_roofline_picks_binding_resource(self):
        m = MachineSpec("toy", 4, 1024, dram_gbps=8.0, gflops=1.0)
        # 1e9 elements = 8 GB -> 1s at 8 GB/s; 1e9 flops -> 1s at 1 GF/s.
        assert m.roofline_seconds(1e9, 0) == pytest.approx(1.0)
        assert m.roofline_seconds(0, 1e9) == pytest.approx(1.0)
        assert m.roofline_seconds(1e9, 2e9) == pytest.approx(2.0)

    def test_roofline_with_threads(self):
        m = MachineSpec("toy", 8, 1024, dram_gbps=8.0, gflops=8.0)
        # 1 of 8 threads: bandwidth 8*(1/2)=4 GB/s, compute 1 GF/s.
        t_full = m.roofline_seconds(1e9, 1e9)
        t_one = m.roofline_seconds(1e9, 1e9, active_threads=1)
        assert t_one > t_full

    def test_with_cache_scale(self):
        m = INTEL_CLX_18.with_cache_scale(0.5)
        assert m.cache_bytes == INTEL_CLX_18.cache_bytes // 2
        assert m.dram_gbps == INTEL_CLX_18.dram_gbps
        assert "~c" in m.name

    def test_with_cache_scale_identity_keeps_name(self):
        assert INTEL_CLX_18.with_cache_scale(1.0).name == INTEL_CLX_18.name

    def test_with_cache_scale_invalid(self):
        with pytest.raises(ValueError):
            INTEL_CLX_18.with_cache_scale(0)


class TestScatterCharging:
    def test_atomic_path_small_stream(self):
        from repro.parallel import TrafficCounter

        c = TrafficCounter(cache_elements=None)
        # 10 updates x 4 cols into 1000x4 with 2 threads: atomic total =
        # footprint 4000 + rmw 40; privatized = 5*4000.  Atomic wins.
        c.scatter_update(10, 1000, 4, 2)
        assert c.writes == 4000
        assert c.reads == 40
        assert c.flops == 8 * 40

    def test_privatized_path_heavy_contention(self):
        from repro.parallel import TrafficCounter

        c = TrafficCounter(cache_elements=None)
        # 1e6 updates into a tiny 4x4 output with 2 threads: privatization
        # (2*2+1)*16 = 80 beats footprint+stream = 16 + 4e6.
        c.scatter_update(1_000_000, 4, 4, 2)
        assert c.writes == (2 + 1) * 16
        assert c.reads == 2 * 16

    def test_cache_absorbs_rmw_reads(self):
        from repro.parallel import TrafficCounter

        c = TrafficCounter(cache_elements=10_000)
        # Resident output: rmw reads capped at footprint.
        c.scatter_update(5_000, 100, 4, 1)
        assert c.reads == 400  # min(footprint=400, stream=20000)
        assert c.writes == 400

    def test_single_thread_never_privatizes(self):
        from repro.parallel import TrafficCounter

        c = TrafficCounter(cache_elements=None)
        c.scatter_update(10_000, 2, 2, 1)
        assert c.writes == 4  # footprint
        assert c.reads == 20_000 * 1  # stream rmw reads... (2 cols x 1e4)


class TestScaleForTensor:
    def test_known_tensor_scales(self):
        from repro.analysis import scale_for_tensor
        from repro.tensor import TABLE1_SPECS, generate

        t = generate(TABLE1_SPECS["uber"], nnz=3000, seed=0)
        s = scale_for_tensor(t, "uber")
        expected = (t.nnz / TABLE1_SPECS["uber"].paper_nnz) ** 0.25
        assert s == pytest.approx(expected)

    def test_unknown_tensor_scale_one(self):
        from repro.analysis import scale_for_tensor
        from repro.tensor import random_tensor

        t = random_tensor((5, 5, 5), nnz=20, seed=0)
        assert scale_for_tensor(t, "mystery") == 1.0
