"""A top-k answer is cached as the reply it serves plus a charge table.

:class:`~repro.queueing.replay.MeasuredExecutor` keeps a query that
carries ``top_k`` as a :class:`~repro.cache.store.TopKAnswer`: the
pairs ``select(top_k)`` picked, and each nonzero estimate's node id
beside a one-byte code for the smallest of 256 log-scale bounds at or
above it (1.0 for a negative or NaN one).
A hit serves the stored pairs; the charge table prices staleness
without the vector or the graph it was computed on.
"""

import gc
import types

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.cache.staleness import StalenessTracker
from repro.cache.store import BOUNDS, PPRCache, TopKAnswer, make_key
from repro.graph.digraph import DynamicGraph
from repro.graph.generators import erdos_renyi_graph
from repro.graph.updates import EdgeUpdate
from repro.obs.metrics import MetricsRegistry
from repro.ppr.base import CompactPPRVector, PPRParams
from repro.ppr.csr import CSRView
from repro.queueing.kinds import QUERY, UPDATE
from repro.queueing.replay import MeasuredExecutor, serve_request
from repro.queueing.workload import Request
from repro.shard.messages import QueryCommand, ShardSpec, UpdateCommand
from repro.shard.worker import ShardServer
from tests.cache.test_compact_entries import N, RoundedExactPPR

TOP_K = 50


def bounds_of(values):
    """What ``pi_bound`` reads for each of ``values`` (ids 0, 1, ...)."""
    ids = np.arange(len(values))
    top = TopKAnswer(ids[:0], np.empty(0), ids, np.asarray(values))
    assert top.codes.dtype == np.uint8
    return [top.pi_bound(int(node)) for node in ids]


#: the smallest bound a code stands for
FLOOR = 2.0**-31.875

estimates = st.one_of(
    st.floats(allow_subnormal=True),  # NaN, ±inf, ±0.0 and subnormals too
    st.integers(-1074, 4).map(lambda k: 2.0**k),
    st.floats(0.0, 1.0),
    st.just(FLOOR),
)


class TestChargeTable:
    @settings(max_examples=300, deadline=None)
    @given(arrays(np.float64, st.integers(1, 40), elements=estimates))
    def test_each_bound_is_within_an_eighth_octave_above_its_estimate(
        self, values
    ):
        assert BOUNDS[-1] == FLOOR
        for estimate, bound in zip(values.tolist(), bounds_of(values)):
            assert bound in BOUNDS
            if not estimate >= 0.0:
                assert bound == 1.0
                continue
            assert bound >= min(estimate, 1.0)
            if estimate >= FLOOR:
                assert bound <= 2 ** (1 / 8) * estimate

    def test_representable_estimates_are_kept_exactly(self):
        powers = [2.0**-k for k in range(32)]
        assert bounds_of(powers) == powers
        assert bounds_of([2.0**-0.125, 2.0**-2.5]) == [2.0**-0.125, 2.0**-2.5]

    def test_negative_and_nan_estimates_charge_the_degree_only_bound(self):
        bounds = bounds_of([-0.004, float("nan"), 0.2, -1e-300, 7.5])
        assert [bounds[i] for i in (0, 1, 3, 4)] == [1.0] * 4
        assert 0.2 <= bounds[2] <= 0.2 * 2 ** (1 / 8)

    def test_ids_are_the_narrowest_unsigned_dtype(self):
        for n, dtype in ((200, np.uint8), (4_800, np.uint16),
                         (70_000, np.uint32)):
            ids = np.array([3, n - 1])
            top = TopKAnswer(ids[:0], np.empty(0), ids, np.full(2, 0.5))
            assert top.charge_ids.dtype == dtype
            assert top.pi_bound(n - 1) == 0.5
            assert top.pi_bound(n) == 0.0
            assert top.pi_bound(4) == 0.0

    def test_zeros_are_not_stored_and_charge_nothing(self):
        vector = RoundedExactPPR(
            erdos_renyi_graph(N, 300, directed=True, seed=5),
            PPRParams(alpha=0.2),
        ).query(3)  # carries exact zeros, a negative entry and a -0.0
        top = TopKAnswer(*vector.select(TOP_K), *vector.nonzero())
        assert top.charge_ids.tolist() == sorted(
            int(node) for node, value in zip(range(N), vector.values)
            if value != 0.0
        )
        for node in range(-2, N + 2):
            dense = vector.get(node)
            bound = top.pi_bound(node)
            if not dense >= 0.0:
                assert bound == 1.0
            elif dense == 0.0:
                assert bound == 0.0
            else:
                assert dense <= bound <= max(2 ** (1 / 8) * dense, FLOOR)

    def test_a_charge_is_never_below_the_whole_vector_entrys(self):
        graph = erdos_renyi_graph(N, 300, directed=True, seed=5)
        algorithm = RoundedExactPPR(graph, PPRParams(alpha=0.2))
        cache = PPRCache(epsilon_c=1e9, metrics=MetricsRegistry())
        tracker = StalenessTracker(cache, graph, alpha=0.2)
        for source in range(0, N, 7):
            vector = algorithm.query(source)
            compact = vector.compact()
            top = TopKAnswer(*vector.select(TOP_K), *vector.nonzero())
            cache.insert(make_key(source, "whole", {}), compact, 0, compact.get)
            cache.insert(make_key(source, "top", {}), top, 0, top.pi_bound)
        rng = np.random.default_rng(2)
        for _ in range(40):
            u, v = (int(x) for x in rng.choice(N, size=2, replace=False))
            tracker.observe(EdgeUpdate(u, v).apply(graph))
        for source in range(0, N, 7):
            whole = cache._entries[make_key(source, "whole", {})].staleness
            top = cache._entries[make_key(source, "top", {})].staleness
            assert 0.0 < whole <= top <= whole * 2 ** (1 / 8)


def executor_for(graph, cache, answers):
    algorithm = RoundedExactPPR(graph, PPRParams(alpha=0.2))
    return MeasuredExecutor(
        algorithm,
        MetricsRegistry(),
        lambda request, answer, version: answers.append((answer, version)),
        cache=cache,
    )


def serve(executor, request):
    serve_request(request, executor, None, lambda: None, request.arrival)


class TestKeys:
    def test_whole_vector_and_top_k_are_separate_entries(self):
        graph = erdos_renyi_graph(N, 300, directed=True, seed=5)
        cache = PPRCache(epsilon_c=1.0, metrics=MetricsRegistry())
        answers = []
        executor = executor_for(graph, cache, answers)
        for top_k in (None, TOP_K, None, TOP_K):
            serve(executor, Request(0.0, QUERY, source=4, top_k=top_k))
        assert len(cache) == 2
        assert cache.stats()["hits"] == 2
        whole, top, whole_hit, top_hit = (answer for answer, _ in answers)
        assert isinstance(top, TopKAnswer) and top_hit is top
        assert whole_hit.values.tobytes() == whole.values.tobytes()
        nodes, values = whole.select(TOP_K)
        assert top.nodes.tobytes() == nodes.tobytes()
        assert top.values.tobytes() == values.tobytes()

    def test_every_top_k_at_or_above_n_is_one_key(self):
        graph = erdos_renyi_graph(N, 300, directed=True, seed=5)
        cache = PPRCache(epsilon_c=1.0, metrics=MetricsRegistry())
        answers = []
        executor = executor_for(graph, cache, answers)
        for top_k in (N, N + 7, 10 * N):
            serve(executor, Request(0.0, QUERY, source=4, top_k=top_k))
        assert len(cache) == 1
        assert cache.stats()["hits"] == 2
        assert {key.top_k for key in cache._entries} == {N}
        assert len(answers[0][0].nodes) == N

    def test_no_top_k_entry_references_a_graph_view(self):
        graph = erdos_renyi_graph(N, 300, directed=True, seed=5)
        cache = PPRCache(epsilon_c=1.0, metrics=MetricsRegistry())
        executor = executor_for(graph, cache, [])
        for source in range(8):
            serve(executor, Request(0.0, QUERY, source=source, top_k=TOP_K))
            serve(executor, Request(0.0, QUERY, source=source))
        top_entries = [
            entry for entry in cache._entries.values()
            if entry.key.top_k is not None
        ]
        assert len(top_entries) == 8
        for entry in top_entries:
            seen, stack = set(), [entry]
            while stack:
                obj = stack.pop()
                if isinstance(obj, types.MethodType):
                    obj = obj.__self__  # not the function's globals
                if id(obj) in seen or isinstance(
                    obj, (type, types.FunctionType, types.ModuleType)
                ):
                    continue
                assert not isinstance(obj, DynamicGraph)
                seen.add(id(obj))
                assert not isinstance(obj, (CSRView, CompactPPRVector))
                if isinstance(obj, np.ndarray):
                    assert obj.base is None  # owns its data
                stack.extend(gc.get_referents(obj))
        # ... while a whole-vector entry does hold its view
        whole = next(
            entry for entry in cache._entries.values()
            if entry.key.top_k is None
        )
        assert isinstance(whole.value, CompactPPRVector)


def small_spec(cache_epsilon):
    graph = erdos_renyi_graph(120, 900, directed=True, seed=4)
    return ShardSpec(
        shard_id=0,
        num_shards=1,
        num_nodes=graph.num_nodes,
        edges=graph.edges(),
        walk_cap=500,
        cache_epsilon=cache_epsilon,
    )


def replies_of(spec, commands):
    """Serve ``commands`` on a new server; its reply payloads by id."""
    replies = []
    server = ShardServer(spec, replies.append)

    def take(timeout_s):
        for command in commands:
            server.handle(command)
        return False

    server.serve(take)
    return {reply.req_id: reply.payload for reply in replies}


def test_a_top_k_hit_replies_the_bytes_its_miss_replied():
    commands = [
        QueryCommand(1, 7, top_k=TOP_K),
        QueryCommand(2, 7, top_k=TOP_K),
        UpdateCommand(3, 1, 30, 31),
        QueryCommand(4, 7, top_k=TOP_K),
        QueryCommand(5, 7),
        QueryCommand(6, 7),
    ]
    ours = replies_of(small_spec(0.5), commands)
    theirs = replies_of(small_spec(None), commands[:1])
    miss, hit, late_hit = ours[1], ours[2], ours[4]
    assert not miss["cached"] and hit["cached"] and late_hit["cached"]
    assert miss["version"] == hit["version"] == late_hit["version"]
    assert len(miss["values"]) == TOP_K
    assert hit["values"] == miss["values"] == late_hit["values"]
    # the miss replied what a server without a cache replies
    assert miss["values"] == theirs[1]["values"]
    # whole-vector requests are their own entry, served as before
    whole, whole_hit = ours[5], ours[6]
    assert not whole["cached"] and whole_hit["cached"]
    assert whole_hit["values"] == whole["values"]
    assert len(whole["values"]) > TOP_K


def test_updates_charge_top_k_entries_and_evict_them():
    graph = erdos_renyi_graph(N, 300, directed=True, seed=5)
    cache = PPRCache(epsilon_c=0.05, metrics=MetricsRegistry())
    executor = executor_for(graph, cache, [])
    rng = np.random.default_rng(9)
    for step in range(300):
        if step % 3:
            u, v = (int(x) for x in rng.choice(N, size=2, replace=False))
            serve(executor, Request(0.0, UPDATE, update=EdgeUpdate(u, v)))
        else:
            source = int(rng.integers(0, 6))
            serve(executor, Request(0.0, QUERY, source=source, top_k=5))
    assert cache.metrics.counter("cache.evictions_staleness").value > 5
    assert cache.metrics.counter("cache.hits").value > 5
    assert cache.worst_staleness() <= cache.epsilon_c
