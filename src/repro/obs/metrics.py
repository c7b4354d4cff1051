"""Lightweight counters, timers and service-time histograms.

The paper attributes end-to-end time to sub-processes (Table I) and
calibrates its cost model against measured per-operation service times.
This module is the repository-wide substrate for that accounting: a
:class:`MetricsRegistry` hands out named :class:`Counter` and
:class:`Histogram` objects that the CSR maintenance layer, the serving
loop (:class:`~repro.core.system.QuotaSystem`), the calibration harness
and the benchmarks all share.

Design constraints (this sits on hot paths):

* ``Counter.inc`` and ``Histogram.observe`` are a few attribute ops —
  no locking, no allocation beyond the bounded sample buffer.
* Histograms keep exact ``count``/``total``/``min``/``max`` plus a
  bounded tail of recent samples for percentile estimates, so memory
  stays O(1) per metric over arbitrarily long replays.

The module-level registry returned by :func:`get_metrics` is the
default sink; components accept an explicit registry for isolated
measurements (tests, paired benchmark cells).
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from collections.abc import Iterator
from contextlib import contextmanager

#: samples retained per histogram for percentile estimates
DEFAULT_MAX_SAMPLES = 4096


class Counter:
    """A monotonically increasing named count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A point-in-time level (e.g. admission-queue depth).

    Unlike :class:`Counter` it moves in both directions; the high-water
    mark is retained so reports can state the worst level a replay
    reached without sampling.
    """

    __slots__ = ("name", "value", "high_water")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.high_water = 0.0

    def set(self, value: float) -> None:
        value = float(value)
        self.value = value
        if value > self.high_water:
            self.high_water = value

    def reset(self) -> None:
        self.value = 0.0
        self.high_water = 0.0

    def __repr__(self) -> str:
        return (
            f"Gauge({self.name}={self.value}, high_water={self.high_water})"
        )


class Histogram:
    """Streaming summary of an observed quantity (e.g. service seconds).

    Exact ``count``, ``total``, ``min``/``max``; percentiles are
    estimated from a bounded buffer of the most recent observations.
    """

    __slots__ = ("name", "count", "total", "min", "max", "_samples")

    def __init__(self, name: str, max_samples: int = DEFAULT_MAX_SAMPLES) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._samples: deque[float] = deque(maxlen=max_samples)

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self._samples.append(value)

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Percentile estimate over the retained samples.

        ``q`` is on the 0-100 scale (``percentile(99)`` is p99); values
        in the open interval (0, 1) raise to catch fraction misuse.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"q must be in [0, 100], got {q}")
        if 0.0 < q < 1.0:
            raise ValueError(
                f"q={q} looks like a fraction; percentiles are on the "
                f"0-100 scale (use {q * 100:g} for the p{q * 100:g})"
            )
        if not self._samples:
            return 0.0
        # numpy's default ("linear") rule, in its operation order, without
        # numpy: the front door keeps histograms and must not load it
        ordered = sorted(self._samples)
        rank = (len(ordered) - 1) * (q / 100.0)
        below = int(rank)
        if below + 1 == len(ordered):
            return ordered[below]
        low, high, weight = ordered[below], ordered[below + 1], rank - below
        if weight >= 0.5:
            return high - (high - low) * (1.0 - weight)
        return low + (high - low) * weight

    def reset(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._samples.clear()

    def summary(self) -> dict[str, float]:
        """Count/total/mean/min/max snapshot (no percentiles)."""
        return {
            "count": float(self.count),
            "total": self.total,
            "mean": self.mean(),
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
        }

    def __repr__(self) -> str:
        return (
            f"Histogram({self.name}: n={self.count}, mean={self.mean():.3g})"
        )


class MetricsRegistry:
    """Named counters and histograms, created on first access."""

    __slots__ = ("_counters", "_histograms", "_gauges")

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}
        self._gauges: dict[str, Gauge] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def histogram(self, name: str) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name)
        return histogram

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    @contextmanager
    def time(self, name: str) -> Iterator[None]:
        """Context manager recording elapsed wall seconds into ``name``."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.histogram(name).observe(time.perf_counter() - started)

    # ------------------------------------------------------------------
    def counters(self) -> dict[str, int]:
        """{name: value} for every counter."""
        return {name: c.value for name, c in sorted(self._counters.items())}

    def snapshot(self) -> dict[str, dict]:
        """Full copy of the registry state (counters + histogram summaries)."""
        return {
            "counters": self.counters(),
            "histograms": {
                name: h.summary()
                for name, h in sorted(self._histograms.items())
            },
            "gauges": {
                name: {"value": g.value, "high_water": g.high_water}
                for name, g in sorted(self._gauges.items())
            },
        }

    def reset(self) -> None:
        """Zero every metric (objects stay registered — references held
        by instrumented components remain live)."""
        for counter in self._counters.values():
            counter.reset()
        for histogram in self._histograms.values():
            histogram.reset()
        for gauge in self._gauges.values():
            gauge.reset()

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"histograms={len(self._histograms)}, "
            f"gauges={len(self._gauges)})"
        )


_global_registry = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-wide default registry."""
    return _global_registry


def process_stats() -> dict[str, float | int]:
    """This process's ``pid``, memory in MB and Python thread count.

    ``rss_mb`` is ``VmRSS`` of ``/proc/self/status``, the number an
    outside ``/proc`` scan would read for this pid; ``rss_anon_mb`` is
    its ``RssAnon`` part, the private memory, without the pages of
    mapped files and shared libraries.  0.0 where there is no procfs.
    ``python_threads`` is :func:`threading.active_count` (a shard
    worker runs one).
    """
    kb = {"VmRSS": 0, "RssAnon": 0}
    try:
        with open("/proc/self/status", encoding="latin-1") as handle:
            for line in handle:
                name, _, value = line.partition(":")
                if name in kb:
                    kb[name] = int(value.split()[0])
    except OSError:
        pass
    return {
        "pid": os.getpid(),
        "rss_mb": kb["VmRSS"] / 1024.0,
        "rss_anon_mb": kb["RssAnon"] / 1024.0,
        "python_threads": threading.active_count(),
    }
