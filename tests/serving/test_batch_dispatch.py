"""Tests for query coalescing in the serving runtime.

The batch dispatcher pops consecutive queries off the admission queue
(up to ``max_batch``, waiting at most ``batch_window_s``), answers them
on one graph snapshot under a single read-lock hold, and preserves FIFO
with respect to updates: a non-query ticket popped mid-collection stops
the batch and runs *after* it — exactly its queue position.
"""

import time

import numpy as np
import pytest

from repro.graph import DynamicGraph, EdgeUpdate
from repro.obs import MetricsRegistry
from repro.ppr import Fora, PPRParams
from repro.queueing.workload import QUERY, UPDATE, Request
from repro.serving import FAILED, OK, TIMEOUT, AdmissionQueue, ServingRuntime, Ticket


def make_graph():
    return DynamicGraph.from_edges(
        [(0, 1), (1, 2), (2, 0), (0, 2), (2, 3), (3, 0), (3, 1)]
    )

def make_runtime(algorithm=None, **kwargs):
    kwargs.setdefault("metrics", MetricsRegistry())
    kwargs.setdefault("idle_tick_s", 0.005)
    if algorithm is None:
        algorithm = Fora(make_graph(), PPRParams(walk_cap=100))
    return ServingRuntime(algorithm, **kwargs)


class TestValidation:
    def test_max_batch_below_one_rejected(self):
        with pytest.raises(ValueError, match="max_batch"):
            make_runtime(max_batch=0)

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError, match="batch_window_s"):
            make_runtime(batch_window_s=-0.1)


class TestAdmissionQueuePoll:
    def test_poll_empty_returns_none(self):
        q = AdmissionQueue(capacity=2, metrics=MetricsRegistry())
        assert q.poll() is None

    def test_poll_pops_and_tracks_depth(self):
        q = AdmissionQueue(capacity=4, metrics=MetricsRegistry())
        t = Ticket(Request(0.0, QUERY, source=0), 0.0)
        q.offer(t)
        q.offer(t)
        assert q.poll() is t
        assert q.depth == 1
        q.task_done()


class TestBatchDispatch:
    def test_queries_coalesce_into_batches(self):
        metrics = MetricsRegistry()
        runtime = make_runtime(
            workers=1, queue_capacity=0, metrics=metrics,
            max_batch=8, batch_window_s=0.2,
        )
        with runtime:
            for source in range(12):
                runtime.submit(Request(0.0, QUERY, source=source % 4))
            runtime.drain()
        counters = metrics.snapshot()["counters"]
        assert counters["serving.batches"] >= 1
        assert counters["serving.batched_queries"] >= 2
        hist = metrics.histogram("serving.batch_size")
        assert hist.count == counters["serving.batches"]
        assert hist.max <= 8
        assert metrics.histogram("service.query_batch").count >= 1
        assert all(r.status == OK for r in runtime.records)
        assert len(runtime.records) == 12

    def test_single_query_stays_on_scalar_path(self):
        """A lone query (window expires empty) is served unbatched."""
        metrics = MetricsRegistry()
        runtime = make_runtime(
            workers=1, queue_capacity=0, metrics=metrics,
            max_batch=8, batch_window_s=0.001,
        )
        with runtime:
            runtime.submit(Request(0.0, QUERY, source=0))
            runtime.drain()
        assert metrics.counter("serving.batches").value == 0
        assert metrics.histogram("service.query").count == 1

    def test_max_batch_one_never_batches(self):
        metrics = MetricsRegistry()
        runtime = make_runtime(
            workers=1, queue_capacity=0, metrics=metrics, max_batch=1,
        )
        with runtime:
            for source in range(6):
                runtime.submit(Request(0.0, QUERY, source=source % 4))
            runtime.drain()
        assert metrics.counter("serving.batches").value == 0
        assert metrics.histogram("service.query").count == 6

    def test_update_stops_batch_and_runs_after_it(self):
        """An update popped mid-collection keeps its FIFO position:
        the queries ahead of it run first (as one batch), then it
        applies — never interleaving a write inside a batch."""
        graph = make_graph()
        metrics = MetricsRegistry()
        algorithm = Fora(graph, PPRParams(walk_cap=100))
        runtime = make_runtime(
            algorithm, workers=1, queue_capacity=0, metrics=metrics,
            max_batch=16, batch_window_s=0.2,
        )
        with runtime:
            for source in range(5):
                runtime.submit(Request(0.0, QUERY, source=source % 4))
            runtime.submit(Request(0.0, UPDATE, update=EdgeUpdate(1, 3)))
            for source in range(3):
                runtime.submit(Request(0.0, QUERY, source=source % 4))
            runtime.drain()
        assert graph.has_edge(1, 3)
        assert all(r.status == OK for r in runtime.records)
        query_records = [r for r in runtime.records if r.kind == QUERY]
        assert len(query_records) == 8
        # the pre-update queries ran on the pre-update graph version
        update_record = next(
            r for r in runtime.records if r.kind == UPDATE
        )
        assert update_record.version is not None

    def test_batch_uses_custom_query_fn(self):
        calls = []

        def query_fn(graph, source):
            calls.append(source)
            return source * 10

        runtime = make_runtime(
            workers=1, queue_capacity=0, query_fn=query_fn,
            max_batch=4, batch_window_s=0.2,
        )
        with runtime:
            for source in range(4):
                runtime.submit(Request(0.0, QUERY, source=source))
            runtime.drain()
        assert sorted(calls) == [0, 1, 2, 3]
        results = {r.request.source: r.result for r in runtime.records}
        assert results == {0: 0, 1: 10, 2: 20, 3: 30}

    def test_batched_engine_end_to_end(self):
        """Fora's batched kernel serves coalesced queries; every
        answer conserves probability mass."""
        algorithm = Fora(
            make_graph(), PPRParams(walk_cap=100), engine="batched"
        )
        runtime = make_runtime(
            algorithm, workers=1, queue_capacity=0,
            max_batch=8, batch_window_s=0.2,
        )
        with runtime:
            for source in range(8):
                runtime.submit(Request(0.0, QUERY, source=source % 4))
            runtime.drain()
        assert all(r.status == OK for r in runtime.records)
        for record in runtime.records:
            mass = sum(record.result.as_dict().values())
            assert mass == pytest.approx(1.0, abs=0.05)

    def test_batch_failure_fails_every_member(self):
        metrics = MetricsRegistry()

        def explode(graph, source):
            raise RuntimeError("boom")

        runtime = make_runtime(
            workers=1, queue_capacity=0, metrics=metrics,
            query_fn=explode, max_batch=8, batch_window_s=0.2,
        )
        with runtime:
            for source in range(4):
                runtime.submit(Request(0.0, QUERY, source=source % 4))
            runtime.drain()
        failed = [r for r in runtime.records if r.status == FAILED]
        assert len(failed) == 4
        assert metrics.snapshot()["counters"]["serving.faults"] >= 4

    def test_expired_tickets_time_out_inside_batch(self):
        metrics = MetricsRegistry()

        def slow(graph, source):
            time.sleep(0.01)
            return source

        runtime = make_runtime(
            workers=1, queue_capacity=0, metrics=metrics,
            query_fn=slow, max_batch=8, batch_window_s=0.05,
            deadline_s=1e-6,
        )
        with runtime:
            for source in range(6):
                runtime.submit(Request(0.0, QUERY, source=source % 4))
            runtime.drain()
        statuses = {r.status for r in runtime.records}
        assert statuses <= {TIMEOUT, OK}
        assert TIMEOUT in statuses
        assert metrics.snapshot()["counters"]["serving.timeout"] >= 1

    def test_batched_answers_near_exact_ppr(self):
        """query_batch answers carry the same approximation quality as
        scalar ones: each row stays within push+walk tolerance of the
        exact PPR vector (walk draw order differs, so compare to the
        ground truth rather than bit-for-bit to the scalar path)."""
        from repro.ppr import ppr_exact

        graph = make_graph()
        algorithm = Fora(graph, PPRParams(walk_cap=4000), engine="batched")
        algorithm.seed(0)
        sources = [0, 1, 2, 3]
        results = algorithm.query_batch(sources)
        for source, got in zip(sources, results):
            exact = ppr_exact(graph, source, alpha=algorithm.params.alpha)
            errors = [
                abs(got.get(node, 0.0) - exact.get(node, 0.0))
                for node in graph.nodes()
            ]
            assert max(errors) < 0.1
