"""Tests for the observability registry (counters / histograms)."""

import os
import random

import numpy as np
import pytest

from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    get_metrics,
    process_stats,
)


class TestCounter:
    def test_inc_and_reset(self):
        registry = MetricsRegistry()
        counter = registry.counter("x")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        counter.reset()
        assert counter.value == 0

    def test_same_object_per_name(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.counter("a") is not registry.counter("b")


class TestHistogram:
    def test_streaming_summary(self):
        registry = MetricsRegistry()
        hist = registry.histogram("service.query")
        for value in (1.0, 2.0, 3.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.total == pytest.approx(6.0)
        assert hist.mean() == pytest.approx(2.0)
        assert hist.min == 1.0
        assert hist.max == 3.0

    def test_percentile_scale_and_validation(self):
        hist = MetricsRegistry().histogram("h")
        for value in range(1, 101):
            hist.observe(float(value))
        assert hist.percentile(50) == pytest.approx(50.5)
        assert hist.percentile(100) == 100.0
        with pytest.raises(ValueError):
            hist.percentile(0.99)  # fraction misuse
        with pytest.raises(ValueError):
            hist.percentile(101)
        with pytest.raises(ValueError):
            hist.percentile(-1)

    def test_percentile_is_numpys_without_numpy(self):
        """The front door keeps histograms and loads no numpy; the pure
        Python interpolation must be ``np.percentile``'s default rule."""
        rng = random.Random(20261003)
        lengths = [1, 2] + [rng.randint(3, 400) for _ in range(198)]
        for length in lengths:
            samples = [rng.lognormvariate(-6.0, 2.0) for _ in range(length)]
            hist = Histogram("h")
            for value in samples:
                hist.observe(value)
            for q in (0, 1, 50, 95, 99, 100):
                assert hist.percentile(q) == pytest.approx(
                    float(np.percentile(samples, q)), rel=0.0, abs=1e-12
                ), (length, q)

    def test_empty_percentile_is_zero(self):
        assert MetricsRegistry().histogram("h").percentile(99) == 0.0

    def test_bounded_samples_keep_exact_totals(self):
        hist = Histogram("h", max_samples=10)
        for value in range(100):
            hist.observe(float(value))
        assert hist.count == 100
        assert hist.total == pytest.approx(sum(range(100)))


class TestRegistry:
    def test_time_context_manager(self):
        registry = MetricsRegistry()
        with registry.time("op"):
            pass
        hist = registry.histogram("op")
        assert hist.count == 1
        assert hist.total >= 0.0

    def test_reset_keeps_registered_objects_live(self):
        """Components hold direct Counter references; reset must zero
        them in place, not replace them."""
        registry = MetricsRegistry()
        counter = registry.counter("x")
        counter.inc(3)
        registry.reset()
        assert counter.value == 0
        counter.inc()
        assert registry.counter("x").value == 1

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.histogram("h").observe(1.5)
        snap = registry.snapshot()
        assert snap["counters"] == {"c": 2}
        assert snap["histograms"]["h"]["count"] == 1.0
        assert snap["histograms"]["h"]["mean"] == pytest.approx(1.5)

    def test_global_registry_is_shared(self):
        assert get_metrics() is get_metrics()


def test_process_stats_separates_private_memory():
    """``rss_anon_mb`` is the private part of ``rss_mb``: without the
    pages of mapped files and shared libraries."""
    stats = process_stats()
    assert stats["pid"] == os.getpid()
    if not os.path.exists("/proc/self/status"):
        assert stats["rss_mb"] == stats["rss_anon_mb"] == 0.0
        return
    assert 0.0 < stats["rss_anon_mb"] < stats["rss_mb"]
