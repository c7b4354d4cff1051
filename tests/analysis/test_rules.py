"""Fixture tests for R5 (metric names) and the local CSR-view case."""

import textwrap

import pytest

import repro.analysis.rules as rules_module
import repro.obs.names as names
from repro.analysis.engine import run_sources


def lint(source, path="fixture.py"):
    return run_sources({path: textwrap.dedent(source)})


def ids(source, path="fixture.py"):
    return [f.rule_id for f in lint(source, path)]


R3_POSITIVE = """
def refresh(graph, u, v):
    view = csr_view(graph)
    graph.add_edge(u, v)
    return view.out_neighbors_of(0)
"""

R3_NEGATIVE = """
def refresh(graph, u, v):
    view = csr_view(graph)
    degree = view.out_deg[0]
    graph.add_edge(u, v)
    view = csr_view(graph)
    return degree, view.out_neighbors_of(0)
"""


class TestR3CsrViewLifetime:
    """The one-function case of the former R3, now reported by R10."""

    def test_stale_use_after_mutation_flagged(self):
        findings = lint(R3_POSITIVE)
        assert [(f.rule_id, f.line) for f in findings] == [("R10", 5)]
        assert "graph mutation 'add_edge()'" in findings[0].message

    def test_reacquired_view_not_flagged(self):
        assert ids(R3_NEGATIVE) == []

    def test_use_before_mutation_not_flagged(self):
        assert ids(
            """
            def peek(graph, u, v):
                view = csr_view(graph)
                degree = view.out_deg[0]
                graph.add_edge(u, v)
                return degree
            """
        ) == []

    def test_apply_update_counts_as_mutation(self):
        assert ids(
            """
            def track(graph, algorithm, update):
                view = csr_view(graph)
                algorithm.apply_update(update)
                return view.n
            """
        ) == ["R10"]


class TestR5MetricName:
    def test_unregistered_name_flagged(self):
        src = 'metrics.histogram("service.qurey").observe(1.0)\n'
        assert ids(src) == ["R5"]

    def test_wrong_kind_flagged_with_hint(self):
        findings = lint('metrics.counter("service.query").inc()\n')
        assert [f.rule_id for f in findings] == ["R5"]
        assert "wrong metric kind" in findings[0].message

    def test_registered_names_not_flagged(self):
        src = (
            'metrics.counter("csr_rebuilds").inc()\n'
            'metrics.histogram("service.query").observe(1.0)\n'
            'with metrics.time("service.query"):\n'
            "    pass\n"
        )
        assert ids(src) == []

    def test_non_literal_names_ignored(self):
        assert ids("metrics.counter(name).inc()\n") == []

    def test_default_registry_parses_names_module(self):
        # the registry is read from src/repro/obs/names.py with ast;
        # it must agree with what importing the module gives
        registry = rules_module.metric_registry()
        assert registry == {
            "COUNTERS": names.COUNTERS,
            "HISTOGRAMS": names.HISTOGRAMS,
            "GAUGES": names.GAUGES,
        }
        assert ids(
            'metrics.histogram("service.query").observe(1.0)\n'
        ) == []


@pytest.fixture
def cache_registry(monkeypatch):
    """Pin R5's registry so a test does not depend on names.py."""
    monkeypatch.setattr(
        rules_module,
        "metric_registry",
        lambda: {
            "COUNTERS": frozenset({"cache.hits", "cache.evictions_staleness"}),
            "HISTOGRAMS": frozenset(),
            "GAUGES": frozenset({"cache.hit_rate"}),
        },
    )


class TestR5CacheMetrics:
    def test_cache_names_accepted_from_default_registry(self):
        # the real src/repro/obs/names.py registers the cache.* family
        src = (
            'metrics.counter("cache.hits").inc()\n'
            'metrics.counter("cache.misses").inc()\n'
            'metrics.counter("cache.evictions_staleness").inc(2)\n'
            'metrics.gauge("cache.hit_rate").set(0.5)\n'
            'metrics.gauge("cache.size").set(1.0)\n'
            'metrics.histogram("service.query_hit").observe(1e-6)\n'
        )
        assert ids(src) == []

    def test_unregistered_cache_name_flagged(self):
        assert ids('metrics.counter("cache.hit").inc()\n') == ["R5"]

    def test_cache_counter_as_histogram_flagged(self, cache_registry):
        findings = lint('metrics.histogram("cache.hits").observe(1.0)\n')
        assert [f.rule_id for f in findings] == ["R5"]
        assert "wrong metric kind" in findings[0].message

    def test_cache_gauge_as_counter_flagged(self, cache_registry):
        findings = lint('metrics.counter("cache.hit_rate").inc()\n')
        assert [f.rule_id for f in findings] == ["R5"]
        assert "wrong metric kind" in findings[0].message

    def test_pinned_cache_registry_accepts_its_names(self, cache_registry):
        src = (
            'metrics.counter("cache.hits").inc()\n'
            'metrics.gauge("cache.hit_rate").set(0.1)\n'
        )
        assert ids(src) == []
        # ...and nothing else: service.query is not in the pinned one
        assert ids('metrics.histogram("service.query").observe(1)\n') == [
            "R5"
        ]
