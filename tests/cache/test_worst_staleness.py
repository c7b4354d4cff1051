"""``PPRCache.worst_staleness`` — the staleness-budget oracle's probe."""

import pytest

from repro.cache.store import PPRCache, make_key
from repro.obs.metrics import MetricsRegistry


def make_cache(epsilon_c=0.3):
    return PPRCache(epsilon_c=epsilon_c, metrics=MetricsRegistry())


class TestWorstStaleness:
    def test_empty_cache_reports_zero(self):
        assert make_cache().worst_staleness() == 0.0

    def test_fresh_entries_report_zero(self):
        cache = make_cache()
        cache.insert(make_key(1, "a", {}), None, version=0)
        assert cache.worst_staleness() == 0.0

    def test_tracks_the_maximum_across_entries(self):
        cache = make_cache()
        cache.insert(make_key(1, "a", {}), None, version=0)
        cache.insert(make_key(2, "a", {}), None, version=0)
        charges = {1: 0.05, 2: 0.12}
        cache.charge_staleness(lambda entry: charges[entry.key.source])
        assert cache.worst_staleness() == pytest.approx(0.12)

    def test_never_exceeds_budget_after_charging(self):
        """The invariant the scenario fuzzer asserts: charging evicts
        past epsilon_c, so live entries stay within it."""
        cache = make_cache(epsilon_c=0.3)
        for source in range(6):
            cache.insert(make_key(source, "a", {}), None, version=0)
        for _ in range(10):
            cache.charge_staleness(lambda entry: 0.08)
            assert cache.worst_staleness() <= cache.epsilon_c

    def test_eviction_removes_over_budget_entry_from_view(self):
        cache = make_cache(epsilon_c=0.1)
        cache.insert(make_key(7, "a", {}), None, version=0)
        evicted = cache.charge_staleness(lambda entry: 0.2)
        assert [k.source for k in evicted] == [7]
        assert cache.worst_staleness() == 0.0
