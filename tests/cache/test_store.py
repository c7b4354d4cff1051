"""Unit tests for the PPR result cache store."""

import threading

import pytest

from repro.cache.store import (
    PPRCache,
    beta_signature,
    make_key,
    EVICTION_SAMPLE,
)
from repro.obs.metrics import MetricsRegistry


def key(source, algo="fora", beta=None):
    return make_key(source, algo, beta or {})


class TestKeys:
    def test_beta_signature_order_independent(self):
        a = beta_signature({"rmax": 0.1, "walks": 100.0})
        b = beta_signature({"walks": 100, "rmax": 0.1})
        assert a == b

    def test_distinct_beta_distinct_key(self):
        assert key(1, beta={"rmax": 0.1}) != key(1, beta={"rmax": 0.2})

    def test_key_is_hashable_and_frozen(self):
        k = key(1)
        assert isinstance(hash(k), int)
        with pytest.raises(AttributeError):
            k.source = 2


class TestLookupInsert:
    def test_miss_then_hit(self):
        cache = PPRCache(capacity=4, epsilon_c=1.0, metrics=MetricsRegistry())
        assert cache.lookup(key(1)) is None
        cache.insert(key(1), "result", version=7)
        entry = cache.lookup(key(1))
        assert entry is not None
        assert entry.value == "result"
        assert entry.version == 7

    def test_hit_rate_counts_lookups(self):
        cache = PPRCache(capacity=4, epsilon_c=1.0, metrics=MetricsRegistry())
        cache.lookup(key(1))
        cache.insert(key(1), "r", version=0)
        cache.lookup(key(1))
        assert cache.hit_rate() == pytest.approx(0.5)

    def test_reinsert_keeps_hits_resets_staleness(self):
        cache = PPRCache(capacity=4, epsilon_c=1.0, metrics=MetricsRegistry())
        cache.insert(key(1), "old", version=0)
        cache.lookup(key(1))
        cache.charge_staleness(lambda entry: 0.5)
        cache.insert(key(1), "new", version=3)
        entry = cache.lookup(key(1))
        assert entry.value == "new"
        assert entry.staleness == 0.0
        assert entry.version == 3
        assert entry.hits == 2  # 1 before re-insert + this lookup

    def test_metrics_counters_flow(self):
        metrics = MetricsRegistry()
        cache = PPRCache(capacity=4, epsilon_c=1.0, metrics=metrics)
        cache.lookup(key(1))
        cache.insert(key(1), "r", version=0)
        cache.lookup(key(1))
        assert metrics.counter("cache.misses").value == 1
        assert metrics.counter("cache.hits").value == 1
        assert metrics.counter("cache.insertions").value == 1
        assert metrics.gauge("cache.size").value == 1.0
        assert metrics.gauge("cache.hit_rate").value == pytest.approx(0.5)


class TestCapacityEviction:
    def test_capacity_is_respected(self):
        metrics = MetricsRegistry()
        cache = PPRCache(capacity=3, epsilon_c=1.0, metrics=metrics)
        for s in range(5):
            cache.insert(key(s), s, version=0)
        assert len(cache) == 3
        assert metrics.counter("cache.evictions_capacity").value == 2

    def test_hybrid_prefers_evicting_cold_entries(self):
        """Within the LRU-front sample, the least-hit entry goes first."""
        cache = PPRCache(
            capacity=EVICTION_SAMPLE,
            epsilon_c=1.0,
            metrics=MetricsRegistry(),
        )
        for s in range(EVICTION_SAMPLE):
            cache.insert(key(s), s, version=0)
        # make source 0 (the LRU-front entry) hot
        for _ in range(3):
            cache.lookup(key(0))
        cache.insert(key(99), 99, version=0)
        assert cache.lookup(key(0)) is not None  # hot survives
        assert cache.lookup(key(1)) is None  # cold LRU-front victim

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            PPRCache(capacity=0)
        with pytest.raises(ValueError):
            PPRCache(epsilon_c=0.0)
        with pytest.raises(ValueError):
            PPRCache(epsilon_c=float("nan"))


class TestStalenessCharging:
    def test_entries_evicted_past_budget(self):
        metrics = MetricsRegistry()
        cache = PPRCache(capacity=4, epsilon_c=0.1, metrics=metrics)
        cache.insert(key(1), "r", version=0)
        assert cache.charge_staleness(lambda e: 0.06) == []
        evicted = cache.charge_staleness(lambda e: 0.06)
        assert evicted == [key(1)]
        assert cache.lookup(key(1)) is None
        assert metrics.counter("cache.evictions_staleness").value == 1

    def test_updates_seen_advances(self):
        cache = PPRCache(capacity=4, epsilon_c=1.0, metrics=MetricsRegistry())
        assert cache.updates_seen == 0
        cache.charge_staleness(lambda e: 0.0)
        cache.charge_staleness(lambda e: 0.0)
        assert cache.updates_seen == 2

    def test_per_entry_increment(self):
        cache = PPRCache(capacity=4, epsilon_c=1.0, metrics=MetricsRegistry())
        cache.insert(key(1), "a", version=0)
        cache.insert(key(2), "b", version=0)
        cache.charge_staleness(
            lambda entry: 0.2 if entry.key.source == 1 else 0.01
        )
        assert cache.lookup(key(1)).staleness == pytest.approx(0.2)
        assert cache.lookup(key(2)).staleness == pytest.approx(0.01)

class TestThreadSafety:
    def test_concurrent_insert_lookup_charge(self):
        """Hammer the store from reader/writer threads; invariants hold."""
        cache = PPRCache(capacity=32, epsilon_c=0.5, metrics=MetricsRegistry())
        errors = []

        def reader(offset):
            try:
                for i in range(300):
                    s = (i + offset) % 64
                    cache.insert(key(s), s, version=0)
                    cache.lookup(key(s))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def writer():
            try:
                for _ in range(300):
                    cache.charge_staleness(lambda e: 0.01)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=reader, args=(k,)) for k in range(3)]
        threads.append(threading.Thread(target=writer))
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(cache) <= 32
        stats = cache.stats()
        assert stats["updates_seen"] == 300.0
