"""Unit tests for machine specs."""

import numpy as np
import pytest

from repro.parallel import AMD_TR_64, INTEL_CLX_18, MACHINES, MachineSpec


class TestPresets:
    def test_paper_machines_present(self):
        assert "intel-clx-18" in MACHINES
        assert "amd-tr-64" in MACHINES

    def test_thread_counts_match_paper(self):
        assert INTEL_CLX_18.num_threads == 18
        assert AMD_TR_64.num_threads == 64

    def test_amd_cache_larger(self):
        # 256 MB vs 24.75 MB L3 — the property behind the machines making
        # different caching decisions for the same tensor.
        assert AMD_TR_64.cache_bytes > 5 * INTEL_CLX_18.cache_bytes

    def test_cache_elements(self):
        assert INTEL_CLX_18.cache_elements == INTEL_CLX_18.cache_bytes // 8


class TestBehaviour:
    def test_traffic_seconds_linear(self):
        m = MachineSpec("toy", 4, 1024, dram_gbps=10.0)
        assert np.isclose(m.traffic_seconds(2e9), 2e9 * 8 / 1e10)
        assert m.traffic_seconds(0) == 0.0

    def test_with_threads(self):
        m = INTEL_CLX_18.with_threads(4)
        assert m.num_threads == 4
        assert m.cache_bytes == INTEL_CLX_18.cache_bytes
        assert "4t" in m.name

    def test_frozen(self):
        with pytest.raises(Exception):
            INTEL_CLX_18.num_threads = 2


class TestExecutionBlocks:
    def test_rule_on_uber_sizes(self):
        # Rank 16 on intel-clx-18: a block's rows x R fit one eighth of
        # a core's cache share (171,875 bytes).
        blocks = [INTEL_CLX_18.execution_blocks(n, 16, 18) for n in (2_000, 20_000, 200_000)]
        assert blocks == [2, 15, 18]

    def test_at_least_one_at_most_one_per_thread(self):
        assert INTEL_CLX_18.execution_blocks(0, 16, 18) == 1
        assert INTEL_CLX_18.execution_blocks(10**9, 16, 18) == 18
        assert INTEL_CLX_18.execution_blocks(10**9, 16, 5) == 5
        tiny = INTEL_CLX_18.with_cache_scale(1e-9)
        assert tiny.execution_blocks(100, 4, 7) == 7

    def test_more_cache_fewer_blocks(self):
        small = INTEL_CLX_18.execution_blocks(200_000, 16, 64)
        large = AMD_TR_64.execution_blocks(200_000, 16, 64)
        assert large < small
