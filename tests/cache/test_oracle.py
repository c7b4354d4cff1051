"""Exactness oracle: every cache-served answer stays within budget.

The invalidation contract promises that a cached vector served under
staleness budget ``epsilon_c`` lies within ``epsilon_c`` (normalized
L1) of a fresh recompute on the *applied-updates* graph, plus the base
algorithm's own error.  Serving through an exact power-iteration
algorithm makes the second term ~0, so any violation here indicts the
staleness accounting itself — the safety-scaled Lemma-2 charge, the
charge-inside-the-critical-section ordering, or the eviction threshold.

The fast test runs one configuration; the stress-marked sweep crosses
seeds x epsilon_c x epsilon_r (Seed deferral interleaves flush-charged
batches with direct applies, the orderings most likely to drop a
charge).  Both also run with top-k requests, whose entries hold only
the reply and are charged through their float32 charge table: the
served pairs are compared with the fresh vector at the same nodes, and
``top_k = n`` serves every node, so there the check is the whole L1.
"""

import numpy as np
import pytest

from repro.cache.store import PPRCache
from repro.core.system import QuotaSystem
from repro.graph.generators import erdos_renyi_graph
from repro.obs.metrics import MetricsRegistry
from repro.ppr.base import DynamicPPRAlgorithm, PPRParams, PPRVector
from repro.ppr.power_iteration import ppr_exact
from repro.queueing.kinds import QUERY
from repro.queueing.workload import generate_workload, Request, Workload


class ExactPPR(DynamicPPRAlgorithm):
    """Deterministic oracle algorithm: exact PPR, toggle updates."""

    name = "exact"

    def query(self, source: int) -> PPRVector:
        return ppr_exact(self.graph, source, alpha=self.params.alpha)

    def apply_update(self, update):
        return update.apply(self.graph)


def l1_distance(served: PPRVector, fresh: PPRVector) -> float:
    """Normalized L1 between two PPR vectors (each sums to ~1)."""
    nodes = set(served.as_dict()) | set(fresh.as_dict())
    return float(
        sum(abs(served.get(n, 0.0) - fresh.get(n, 0.0)) for n in nodes)
    )


def served_distance(served, fresh: PPRVector) -> float:
    """L1 between a served top-k answer's pairs and the fresh vector at
    the same nodes."""
    return float(
        sum(
            abs(value - fresh.get(int(node), 0.0))
            for node, value in zip(served.nodes, served.values)
        )
    )


def run_oracle(
    seed: int, epsilon_c: float, epsilon_r: float, top_k: int | None = None
):
    """Replay a mixed workload; compare every served answer to fresh.

    Returns (violations, worst_ratio, hits) where ``worst_ratio`` is
    the largest observed drift / epsilon_c and ``hits`` the number of
    cache-served queries (the oracle is vacuous without hits).
    """
    graph = erdos_renyi_graph(60, 360, directed=True, seed=seed)
    algorithm = ExactPPR(graph, PPRParams(alpha=0.2))
    metrics = MetricsRegistry()
    cache = PPRCache(capacity=128, epsilon_c=epsilon_c, metrics=metrics)
    system = QuotaSystem(
        algorithm, epsilon_r=epsilon_r, cache=cache, metrics=metrics
    )
    # skew the query sources so the same entries get re-served while
    # the update stream charges them
    rng = np.random.default_rng(seed)
    base = generate_workload(graph, 30.0, 15.0, 4.0, rng=seed + 1)
    hot = np.arange(8)
    requests = [
        Request(
            r.arrival,
            QUERY,
            source=int(rng.choice(hot)) if rng.random() < 0.7 else r.source,
            top_k=top_k,
        )
        if r.kind == QUERY
        else r
        for r in base.requests
    ]
    workload = Workload(requests, base.t_end, base.lambda_q, base.lambda_u)

    violations = []
    worst = 0.0

    def callback(request, estimate, pending):
        nonlocal worst
        fresh = ppr_exact(graph, request.source, alpha=0.2)
        if top_k is None:
            drift = l1_distance(estimate, fresh)
        else:
            drift = served_distance(estimate, fresh)
        worst = max(worst, drift / epsilon_c)
        if drift > epsilon_c + 1e-9:
            violations.append((request.source, drift))

    system.process(workload, query_callback=callback)
    return violations, worst, metrics.counter("cache.hits").value


def test_oracle_fast():
    violations, worst, hits = run_oracle(seed=3, epsilon_c=0.3, epsilon_r=0.0)
    assert hits > 0  # the oracle actually exercised cached serves
    assert violations == []
    assert worst <= 1.0


@pytest.mark.parametrize("top_k", [10, 60])
def test_oracle_fast_top_k(top_k):
    violations, worst, hits = run_oracle(
        seed=3, epsilon_c=0.3, epsilon_r=0.0, top_k=top_k
    )
    assert hits > 0
    assert violations == []
    assert worst <= 1.0


@pytest.mark.stress
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("epsilon_c", [0.05, 0.2, 0.5])
@pytest.mark.parametrize("epsilon_r", [0.0, 0.5])
def test_oracle_stress(seed, epsilon_c, epsilon_r):
    """Zero violations across seeds x budgets x Seed-deferral modes."""
    violations, worst, hits = run_oracle(seed, epsilon_c, epsilon_r)
    assert violations == [], (
        f"{len(violations)} answers drifted past epsilon_c={epsilon_c}: "
        f"worst ratio {worst:.2f}"
    )


@pytest.mark.stress
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("epsilon_c", [0.05, 0.5])
@pytest.mark.parametrize("epsilon_r", [0.0, 0.5])
def test_oracle_stress_top_k(seed, epsilon_c, epsilon_r):
    """The sweep with top_k = n: every node served, from charge tables."""
    violations, worst, hits = run_oracle(seed, epsilon_c, epsilon_r, top_k=60)
    assert violations == [], (
        f"{len(violations)} answers drifted past epsilon_c={epsilon_c}: "
        f"worst ratio {worst:.2f}"
    )
