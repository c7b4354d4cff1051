"""A cache of nonzero entries serves and decides exactly as a dense one.

:class:`~repro.queueing.replay.MeasuredExecutor` caches each answer as
its nonzero entries (:class:`~repro.ppr.base.CompactPPRVector`) and
expands it on a hit.  The oracle is the dense path it replaced: the
answer vector itself is the entry, ``PPRVector.get`` is its π̂ lookup,
and a hit serves it as it is.  One seeded stream runs through both;
every served selection, every π̂ the staleness tracker can read, the
eviction sequence, the hit count and ``worst_staleness()`` must agree
bit for bit.

The answers are exact PPR rounded to three decimals, so they carry a
tied tail and exact zeros; some also carry a negative entry and a
``-0.0``, which a compact form that kept only positive entries would
lose.
"""

import numpy as np

from repro.cache.store import PPRCache
from repro.graph.generators import erdos_renyi_graph
from repro.graph.updates import EdgeUpdate
from repro.obs.metrics import MetricsRegistry
from repro.ppr.base import DynamicPPRAlgorithm, PPRParams, PPRVector
from repro.ppr.power_iteration import ppr_exact
from repro.queueing.kinds import QUERY, UPDATE
from repro.queueing.replay import MeasuredExecutor, serve_request
from repro.queueing.workload import Request

N = 60
UPDATES = 200
SELECTIONS = (None, 1, 50, N + 7)


class RoundedExactPPR(DynamicPPRAlgorithm):
    """Exact PPR rounded to 1e-3 (ties, zeros); every third source
    also answers a negative entry and a ``-0.0``."""

    name = "rounded-exact"

    def query(self, source: int) -> PPRVector:
        exact = ppr_exact(self.graph, source, alpha=self.params.alpha)
        values = np.round(exact.values, 3)
        if source % 3 == 0:
            values[(source + 1) % N] = -0.004
            values[(source + 2) % N] = -0.0
        return PPRVector(values, exact._view, source)

    def apply_update(self, update):
        return update.apply(self.graph)


class DenseEntry:
    """The entry the cache held before: the dense vector itself."""

    def __init__(self, vector: PPRVector) -> None:
        self.vector = vector
        self.get = vector.get

    def expand(self) -> PPRVector:
        return self.vector


class RecordingCache(PPRCache):
    """Records what the invalidation machinery decided, in order."""

    def __init__(self) -> None:
        super().__init__(capacity=6, epsilon_c=0.05, metrics=MetricsRegistry())
        self.inserted = []
        self.evicted = []

    def insert(self, key, value, version, pi_estimate=None):
        self.inserted.append(pi_estimate)
        super().insert(key, value, version, pi_estimate=pi_estimate)

    def charge_staleness(self, increment):
        evicted = super().charge_staleness(increment)
        self.evicted.append(evicted)
        return evicted

    def live_keys(self):
        return list(self._entries)


def requests():
    rng = np.random.default_rng(11)
    hot = rng.choice(N, size=10, replace=False).tolist()
    stream, updates = [], 0
    while updates < UPDATES:
        if rng.random() < 0.6:
            source = hot[min(int(rng.zipf(1.3)) - 1, len(hot) - 1)]
            stream.append(Request(len(stream), QUERY, source=source))
        else:
            u, v = (int(x) for x in rng.choice(N, size=2, replace=False))
            stream.append(Request(len(stream), UPDATE, update=EdgeUpdate(u, v)))
            updates += 1
    return stream


def run():
    """Serve the stream; returns everything the cache path decided."""
    graph = erdos_renyi_graph(N, 300, directed=True, seed=5)
    algorithm = RoundedExactPPR(graph, PPRParams(alpha=0.2))
    cache = RecordingCache()
    served = []

    def on_answer(request, answer, cached_version):
        version = graph.version if cached_version is None else cached_version
        selections = [answer.select(k) for k in SELECTIONS]
        served.append((request.source, version, cached_version, selections))

    executor = MeasuredExecutor(
        algorithm, MetricsRegistry(), on_answer, cache=cache
    )
    live, staleness = [], []
    for request in requests():
        serve_request(request, executor, None, lambda: None, request.arrival)
        live.append(cache.live_keys())
        staleness.append(cache.worst_staleness())
    return served, cache, live, staleness


def same_selection(a, b):
    return all(
        x.dtype == y.dtype and x.tobytes() == y.tobytes()
        for pair_a, pair_b in zip(a, b)
        for x, y in zip(pair_a, pair_b)
    )


def test_compact_entries_serve_and_decide_like_dense_ones(monkeypatch):
    compact = run()
    monkeypatch.setattr(PPRVector, "compact", lambda self: DenseEntry(self))
    dense = run()
    served, cache, live, staleness = compact
    dense_served, dense_cache, dense_live, dense_staleness = dense

    hits = [entry for entry in served if entry[2] is not None]
    stale_evictions = sum(len(keys) for keys in cache.evicted)
    assert len(hits) > 50 and stale_evictions > 10  # both paths exercised
    assert cache.stats()["hits"] == len(hits)

    # a hit answers what the miss it was cached from answered
    misses = {}
    for source, version, cached_version, selections in served:
        if cached_version is None:
            misses[source, version] = selections
        else:
            assert same_selection(selections, misses[source, version])

    # the dense oracle served the same selections, in the same order
    assert len(served) == len(dense_served)
    for ours, theirs in zip(served, dense_served):
        assert ours[:3] == theirs[:3]
        assert same_selection(ours[3], theirs[3])

    # every π̂ the staleness tracker can read is the dense vector's
    assert len(cache.inserted) == len(dense_cache.inserted)
    for ours, theirs in zip(cache.inserted, dense_cache.inserted):
        for node in range(-2, N + 2):
            assert ours(node) == theirs(node)
            assert np.signbit(ours(node)) == np.signbit(theirs(node))

    # ... so the invalidation machinery decided identically
    assert cache.evicted == dense_cache.evicted
    assert live == dense_live
    assert cache.stats() == dense_cache.stats()
    assert staleness == dense_staleness
    assert cache.worst_staleness() == dense_cache.worst_staleness()


def test_a_hit_expands_the_exact_dense_vector():
    graph = erdos_renyi_graph(N, 300, directed=True, seed=5)
    vector = RoundedExactPPR(graph, PPRParams(alpha=0.2)).query(3)
    compact = vector.compact()
    assert np.count_nonzero(vector.values) < N  # zeros were dropped
    assert compact.indices.dtype == np.int32
    assert compact.values.dtype == np.float64
    assert compact.expand().values.tobytes() == vector.values.tobytes()
