"""Unit tests for the metrics registry (repro.obs.metrics)."""

import math

import pytest

from repro.obs import (DEFAULT_BOUNDS, Counter, Gauge, Histogram,
                       MetricsError, MetricsRegistry)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("x")
        assert c.value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_negative_increment(self):
        c = Counter("x")
        with pytest.raises(MetricsError, match="cannot decrease"):
            c.inc(-1.0)

    def test_rejects_non_finite_increment(self):
        c = Counter("x")
        with pytest.raises(MetricsError, match="finite"):
            c.inc(math.inf)

    def test_rejects_bad_name(self):
        with pytest.raises(MetricsError):
            Counter("")
        with pytest.raises(MetricsError):
            Counter("has space")


class TestGauge:
    def test_set_moves_both_ways(self):
        g = Gauge("t")
        g.set(5.0)
        assert g.value == 5.0
        g.set(-2.0)
        assert g.value == -2.0

    def test_rejects_non_finite(self):
        g = Gauge("t")
        with pytest.raises(MetricsError, match="finite"):
            g.set(float("nan"))


class TestHistogram:
    def test_default_bounds_are_geometric(self):
        h = Histogram("h")
        assert h.bounds == DEFAULT_BOUNDS
        assert len(h.bucket_counts) == len(DEFAULT_BOUNDS) + 1

    def test_observe_buckets_and_stats(self):
        h = Histogram("h", bounds=[1.0, 10.0])
        for v in (0.5, 0.7, 5.0, 100.0):
            h.observe(v)
        assert h.bucket_counts == [2, 1, 1]  # <=1, <=10, overflow
        assert h.count == 4
        assert h.sum == pytest.approx(106.2)
        assert h.min == 0.5
        assert h.max == 100.0
        assert h.mean == pytest.approx(106.2 / 4)

    def test_empty_histogram_serializes_null_extrema(self):
        d = Histogram("h", bounds=[1.0]).as_dict()
        assert d["count"] == 0
        assert d["min"] is None and d["max"] is None

    def test_rejects_non_increasing_bounds(self):
        with pytest.raises(MetricsError, match="strictly"):
            Histogram("h", bounds=[1.0, 1.0])
        with pytest.raises(MetricsError, match=">= 1 bound"):
            Histogram("h", bounds=[])


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("g") is reg.gauge("g")
        assert reg.histogram("h") is reg.histogram("h")

    def test_cross_kind_collision_rejected(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(MetricsError, match="already registered"):
            reg.gauge("a")
        with pytest.raises(MetricsError, match="already registered"):
            reg.histogram("a")

    def test_histogram_bounds_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.histogram("h", bounds=[1.0])
        reg.histogram("h")  # no bounds: reuse is fine
        with pytest.raises(MetricsError, match="different bounds"):
            reg.histogram("h", bounds=[2.0])

    def test_as_dict_shape(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        reg.gauge("g").set(1.5)
        reg.histogram("h", bounds=[1.0]).observe(0.2)
        d = reg.as_dict()
        assert d["counters"] == {"c": 3.0}
        assert d["gauges"] == {"g": 1.5}
        assert d["histograms"]["h"]["count"] == 1
