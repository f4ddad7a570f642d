"""Metrics registry: counters, gauges, histograms, snapshots."""

import threading

import pytest

from repro.obs.metrics import DEFAULT_BUCKETS, Histogram, MetricsRegistry


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        reg = MetricsRegistry()
        c = reg.counter("requests_total")
        assert c.value == 0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_negative_increment(self):
        c = MetricsRegistry().counter("requests_total")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_concurrent_increments_are_exact(self):
        c = MetricsRegistry().counter("requests_total")

        def hammer():
            for _ in range(1000):
                c.inc()

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 8000


class TestGauge:
    def test_set_inc_dec(self):
        g = MetricsRegistry().gauge("depth")
        g.set(5)
        g.inc()
        g.dec(3)
        assert g.value == 3


class TestHistogram:
    def test_observations_land_in_correct_buckets(self):
        h = Histogram("wait", (), buckets=(0.01, 0.1, 1.0))
        for value in (0.005, 0.05, 0.5, 5.0):
            h.observe(value)
        sample = h.sample()
        assert sample["count"] == 4
        assert sample["sum"] == pytest.approx(5.555)
        assert sample["buckets"] == {"0.01": 1, "0.1": 1, "1.0": 1}
        assert sample["inf"] == 1

    def test_boundary_value_goes_to_lower_bucket(self):
        h = Histogram("wait", (), buckets=(1.0, 2.0))
        h.observe(1.0)
        assert h.sample()["buckets"]["1.0"] == 1

    def test_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram("wait", (), buckets=(1.0, 0.5))

    def test_default_buckets_are_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class TestRegistry:
    def test_get_or_create_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a", vp=1) is reg.counter("a", vp=1)
        assert reg.counter("a", vp=1) is not reg.counter("a", vp=2)
        assert reg.counter("a", vp=1) is not reg.counter("b", vp=1)

    def test_label_order_is_normalised(self):
        reg = MetricsRegistry()
        assert reg.counter("a", x=1, y=2) is reg.counter("a", y=2, x=1)

    def test_snapshot_keys_carry_labels(self):
        reg = MetricsRegistry()
        reg.counter("hits_total", vp=3).inc()
        reg.gauge("depth").set(7)
        snap = reg.snapshot()
        assert snap['hits_total{vp="3"}'] == 1
        assert snap["depth"] == 7
