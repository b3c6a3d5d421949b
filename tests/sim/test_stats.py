"""Counters, latency reservoirs and histograms."""

import math

import pytest

from repro.sim import Counter, LatencyReservoir


class TestCounter:
    def test_add_accumulates(self):
        c = Counter()
        c.add()
        c.add(4)
        assert c.total == 5

    def test_window_counts_from_mark(self):
        c = Counter()
        c.add(10)
        c.mark_window()
        c.add(3)
        assert c.in_window == 3
        assert c.total == 13


class TestLatencyReservoir:
    def test_mean_over_all_samples(self):
        r = LatencyReservoir()
        for v in (1.0, 2.0, 3.0):
            r.record(v)
        assert r.mean == pytest.approx(2.0)
        assert r.count == 3

    def test_percentiles_on_known_distribution(self):
        r = LatencyReservoir()
        for v in range(1, 101):
            r.record(float(v))
        assert r.percentile(50) == pytest.approx(50.5)
        assert r.percentile(99) == pytest.approx(99.01, rel=0.01)
        assert r.percentile(0) == 1.0
        assert r.percentile(100) == 100.0

    def test_empty_reservoir_returns_nan(self):
        r = LatencyReservoir()
        assert math.isnan(r.mean)
        assert math.isnan(r.percentile(99))

    def test_out_of_range_percentile_rejected(self):
        r = LatencyReservoir()
        r.record(1.0)
        with pytest.raises(ValueError):
            r.percentile(101)

    def test_decimation_preserves_mean_and_approx_percentiles(self):
        r = LatencyReservoir(max_samples=1000)
        n = 10_000
        for v in range(n):
            r.record(float(v))
        assert r.count == n
        assert r.mean == pytest.approx((n - 1) / 2)
        # decimated percentile stays within 2% of the true one
        assert r.percentile(99) == pytest.approx(0.99 * n, rel=0.02)

    def test_reset_clears_everything(self):
        r = LatencyReservoir()
        r.record(5.0)
        r.reset()
        assert r.count == 0
        assert math.isnan(r.mean)

    def test_summary_keys(self):
        r = LatencyReservoir()
        r.record(1.0)
        s = r.summary()
        assert set(s) == {"mean", "p99", "p999", "count"}

    def test_tiny_max_samples_rejected(self):
        with pytest.raises(ValueError):
            LatencyReservoir(max_samples=10)


class TestLatencyHistogram:
    def make(self):
        from repro.sim.stats import LatencyHistogram

        return LatencyHistogram()

    def test_mean_is_exact(self):
        h = self.make()
        for v in (1e-6, 2e-6, 3e-6):
            h.record(v)
        assert h.mean == pytest.approx(2e-6)
        assert h.count == 3

    def test_percentiles_within_bucket_resolution(self):
        h = self.make()
        for i in range(1, 1001):
            h.record(i * 1e-6)  # 1 us .. 1 ms uniform
        # log buckets at 40/decade: ~6% upper-bound error
        assert h.percentile(50) == pytest.approx(500e-6, rel=0.08)
        assert h.percentile(99) == pytest.approx(990e-6, rel=0.08)

    def test_tail_resolution_does_not_degrade_with_volume(self):
        h = self.make()
        for _ in range(100_000):
            h.record(10e-6)
        for _ in range(100):
            h.record(5e-3)  # 0.1% outliers in 100k samples
        assert h.percentile(99.95) == pytest.approx(5e-3, rel=0.08)
        assert h.percentile(100) == pytest.approx(5e-3, rel=0.08)

    def test_under_and_overflow_clamped(self):
        h = self.make()
        h.record(1e-12)
        h.record(100.0)
        assert h.percentile(25) == h.min_latency
        assert h.percentile(99) == h.max_latency

    def test_empty_is_nan(self):
        h = self.make()
        assert math.isnan(h.mean)
        assert math.isnan(h.percentile(99))

    def test_summary_matches_reservoir_shape(self):
        h = self.make()
        h.record(1e-5)
        assert set(h.summary()) == {"mean", "p99", "p999", "count"}

    def test_reset(self):
        h = self.make()
        h.record(1e-5)
        h.reset()
        assert h.count == 0

    def test_validation(self):
        from repro.sim.stats import LatencyHistogram

        with pytest.raises(ValueError):
            LatencyHistogram(min_latency=1.0, max_latency=0.5)
        with pytest.raises(ValueError):
            LatencyHistogram(buckets_per_decade=0)
        h = self.make()
        h.record(1e-5)
        with pytest.raises(ValueError):
            h.percentile(150)
