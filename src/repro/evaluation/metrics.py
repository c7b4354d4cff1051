"""Metrics: response-time summaries and PPR accuracy measures."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.digraph import DynamicGraph
from repro.ppr.base import PPRVector
from repro.ppr.power_iteration import ppr_exact
from repro.queueing.replay import SimulationResult


@dataclass(frozen=True, slots=True)
class ResponseTimeSummary:
    """Distribution summary of query response times (virtual seconds)."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    max: float

    @classmethod
    def from_result(cls, result: SimulationResult) -> "ResponseTimeSummary":
        times = result.query_response_times()
        if times.size == 0:
            return cls(0, 0.0, 0.0, 0.0, 0.0, 0.0)
        return cls(
            count=int(times.size),
            mean=float(times.mean()),
            p50=float(np.percentile(times, 50)),
            p95=float(np.percentile(times, 95)),
            p99=float(np.percentile(times, 99)),
            max=float(times.max()),
        )


@dataclass(frozen=True, slots=True)
class AccuracySummary:
    """Error of an estimate against exact PPR on one query."""

    max_absolute_error: float
    mean_absolute_error: float
    max_relative_error: float

    @classmethod
    def compare(
        cls,
        estimate: PPRVector,
        graph: DynamicGraph,
        alpha: float,
        delta: float | None = None,
    ) -> "AccuracySummary":
        """Compare ``estimate`` with exact PPR on ``graph``.

        Relative error is evaluated only where exact PPR > delta
        (default 1/n), matching the Eq. 1 guarantee's scope.
        """
        exact = ppr_exact(graph, estimate.source, alpha=alpha)
        delta = delta if delta is not None else 1.0 / max(len(exact), 2)
        abs_errors = []
        rel_errors = [0.0]
        for node in exact:
            err = abs(estimate.get(node, 0.0) - exact[node])
            abs_errors.append(err)
            if exact[node] > delta:
                rel_errors.append(err / exact[node])
        return cls(
            max_absolute_error=float(max(abs_errors)),
            mean_absolute_error=float(np.mean(abs_errors)),
            max_relative_error=float(max(rel_errors)),
        )


def precision_at_k(
    predicted: list[tuple[int, float]],
    graph: DynamicGraph,
    source: int,
    alpha: float,
) -> float:
    """Fraction of the true top-k found by a top-k query result."""
    if not predicted:
        return 0.0
    k = len(predicted)
    exact = ppr_exact(graph, source, alpha=alpha)
    truth = {node for node, _ in exact.top_k(k)}
    hits = sum(1 for node, _ in predicted if node in truth)
    return hits / k


def improvement_percent(baseline: float, improved: float) -> float:
    """The paper's headline metric: (baseline - improved) / baseline."""
    if baseline <= 0:
        return 0.0
    return 100.0 * (baseline - improved) / baseline
