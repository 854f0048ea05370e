"""Unit tests for traffic counters (incl. the DM_factor cache rule)."""

from repro.parallel import NULL_COUNTER, TrafficCounter


class TestBasicCharges:
    def test_read_write_totals(self):
        c = TrafficCounter()
        c.read(100, "structure")
        c.write(40, "output")
        assert c.reads == 100
        assert c.writes == 40
        assert c.total == 140

    def test_categories_tracked(self):
        c = TrafficCounter()
        c.read(10, "a")
        c.read(5, "a")
        c.write(7, "b")
        assert c.by_category["r:a"] == 15
        assert c.by_category["w:b"] == 7

    def test_negative_or_zero_ignored(self):
        c = TrafficCounter()
        c.read(0)
        c.read(-5)
        assert c.total == 0

    def test_reset(self):
        c = TrafficCounter(cache_elements=100)
        c.read(10)
        c.reset()
        assert c.total == 0
        assert c.cache_elements == 100

    def test_merge(self):
        a, b = TrafficCounter(), TrafficCounter()
        a.read(5, "x")
        b.read(3, "x")
        b.write(2, "y")
        a.merge(b)
        assert a.reads == 8
        assert a.writes == 2
        assert a.by_category["r:x"] == 8

    def test_snapshot(self):
        c = TrafficCounter()
        c.read(4, "z")
        snap = c.snapshot()
        assert snap["reads"] == 4
        assert snap["total"] == 4
        assert snap["r:z"] == 4


class TestCacheRule:
    def test_resident_matrix_charged_once(self):
        # Matrix footprint 10*4=40 <= cache 100: min(40, 1000*4) = 40.
        c = TrafficCounter(cache_elements=100)
        c.read_factor_rows(accesses=1000, n_rows=10, rank=4)
        assert c.reads == 40

    def test_resident_matrix_few_accesses(self):
        # Fewer accesses than rows: min(footprint, stream) = stream.
        c = TrafficCounter(cache_elements=100)
        c.read_factor_rows(accesses=3, n_rows=10, rank=4)
        assert c.reads == 12

    def test_streaming_matrix_charged_per_access(self):
        # Footprint 1000*4 > cache 100: full stream.
        c = TrafficCounter(cache_elements=100)
        c.read_factor_rows(accesses=50, n_rows=1000, rank=4)
        assert c.reads == 200

    def test_no_cache_means_streaming(self):
        c = TrafficCounter(cache_elements=None)
        c.read_factor_rows(accesses=5, n_rows=2, rank=4)
        assert c.reads == 20

    def test_write_side_rule(self):
        c = TrafficCounter(cache_elements=100)
        c.write_factor_rows(accesses=1000, n_rows=10, rank=4)
        assert c.writes == 40


class TestNullCounter:
    def test_ignores_everything(self):
        NULL_COUNTER.read(10)
        NULL_COUNTER.write(10)
        NULL_COUNTER.read_factor_rows(10, 10, 10)
        assert NULL_COUNTER.total == 0
