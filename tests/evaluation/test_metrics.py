"""Tests for evaluation metrics."""

import numpy as np
import pytest

from repro.evaluation.metrics import (
    AccuracySummary,
    ResponseTimeSummary,
    improvement_percent,
    precision_at_k,
)
from repro.graph.generators import ring_graph
from repro.graph.updates import EdgeUpdate
from repro.ppr.base import PPRParams
from repro.ppr.fora import Fora
from repro.ppr.power_iteration import ppr_exact
from repro.queueing.kinds import QUERY
from repro.queueing.simulator import FCFSQueueSimulator
from repro.queueing.workload import Request


def make_result(response_times):
    # arrivals widely spaced so response time == service time
    spaced = [
        Request(float(i * 1000), QUERY, source=0)
        for i in range(len(response_times))
    ]
    services = iter(response_times)
    sim = FCFSQueueSimulator(lambda r: next(services))
    return sim.run(spaced, t_end=1e6)


class TestResponseTimeSummary:
    def test_statistics(self):
        result = make_result([1.0, 2.0, 3.0, 4.0])
        summary = ResponseTimeSummary.from_result(result)
        assert summary.count == 4
        assert summary.mean == pytest.approx(2.5)
        assert summary.p50 == pytest.approx(2.5)
        assert summary.max == 4.0

    def test_empty(self):
        result = make_result([])
        summary = ResponseTimeSummary.from_result(result)
        assert summary.count == 0
        assert summary.mean == 0.0

    def test_percentiles_ordered(self):
        result = make_result(list(np.linspace(0.1, 5.0, 50)))
        summary = ResponseTimeSummary.from_result(result)
        assert summary.p50 <= summary.p95 <= summary.p99 <= summary.max


class TestAccuracySummary:
    def test_perfect_estimate(self):
        graph = ring_graph(6)
        exact = ppr_exact(graph, 0, alpha=0.2)
        summary = AccuracySummary.compare(exact, graph, alpha=0.2)
        assert summary.max_absolute_error < 1e-9
        assert summary.max_relative_error < 1e-9

    def test_detects_estimation_error(self):
        graph = ring_graph(8)
        params = PPRParams(walk_cap=50)  # tiny K -> visible noise
        alg = Fora(graph, params)
        alg.seed(0)
        estimate = alg.query(0)
        summary = AccuracySummary.compare(estimate, graph, alpha=0.2)
        assert summary.max_absolute_error > 0.0
        assert summary.mean_absolute_error <= summary.max_absolute_error

    def test_stale_graph_shows_error(self):
        graph = ring_graph(8)
        exact_old = ppr_exact(graph, 0, alpha=0.2)
        fresh = graph.copy()
        EdgeUpdate(0, 4).apply(fresh)
        summary = AccuracySummary.compare(exact_old, fresh, alpha=0.2)
        assert summary.max_absolute_error > 0.01


class TestPrecisionAtK:
    def test_perfect_topk(self):
        graph = ring_graph(10)
        exact = ppr_exact(graph, 0, alpha=0.2)
        assert precision_at_k(exact.top_k(3), graph, 0, alpha=0.2) == 1.0

    def test_wrong_topk(self):
        graph = ring_graph(10)
        exact = ppr_exact(graph, 0, alpha=0.2)
        bottom = exact.top_k(10)[-3:]
        assert precision_at_k(bottom, graph, 0, alpha=0.2) < 1.0

    def test_empty(self):
        graph = ring_graph(5)
        assert precision_at_k([], graph, 0, alpha=0.2) == 0.0


class TestImprovementPercent:
    def test_paper_example(self):
        # (55.08 - 7.47) / 55.08 = 86.44% (Table VIII narrative)
        assert improvement_percent(55.08, 7.47) == pytest.approx(86.44, abs=0.01)

    def test_zero_baseline(self):
        assert improvement_percent(0.0, 1.0) == 0.0

    def test_regression_is_negative(self):
        assert improvement_percent(1.0, 2.0) == -100.0
