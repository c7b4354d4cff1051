"""Tests for the serving runtime and its building blocks."""

import threading
import time
from types import SimpleNamespace

import pytest

from repro.cache.store import PPRCache
from repro.graph.digraph import DynamicGraph
from repro.graph.updates import EdgeUpdate
from repro.obs.metrics import MetricsRegistry
from repro.ppr.base import PPRParams
from repro.ppr.fora import Fora, ForaPlus
from repro.queueing.kinds import QUERY, UPDATE
from repro.queueing.workload import Request
from repro.serving.runtime import (
    FAILED,
    OK,
    SHED,
    SHED_QUEUE_FULL,
    TIMEOUT,
    ServingRuntime,
    Ticket,
)


def make_graph():
    return DynamicGraph.from_edges(
        [(0, 1), (1, 2), (2, 0), (0, 2), (2, 3), (3, 0)]
    )


def make_algorithm(graph=None):
    return Fora(graph if graph is not None else make_graph(),
                PPRParams(walk_cap=100))


def make_runtime(algorithm=None, **kwargs):
    kwargs.setdefault("metrics", MetricsRegistry())
    kwargs.setdefault("idle_tick_s", 0.005)
    return ServingRuntime(
        algorithm if algorithm is not None else make_algorithm(), **kwargs
    )


def serve_reads(runtime, *reads):
    """Serve ``runtime`` on this thread, handing it one batch of
    ``reads`` per read of its source, as a host's handler does; each
    batch is a function called on the loop's thread, and its return
    values are collected.  The source closes after the last batch."""
    pending, seen = list(reads), []

    def take(timeout_s):
        if pending:
            seen.append(pending.pop(0)())
        return bool(pending)

    runtime.run(take)
    return seen


class TestAdmissionQueue:
    """The bounded queue in front of the loop, admitting on its thread."""

    def test_sheds_when_full(self):
        metrics = MetricsRegistry()
        runtime = make_runtime(queue_capacity=2, metrics=metrics)
        query = Request(0.0, QUERY, source=0)
        (verdicts,) = serve_reads(
            runtime,
            lambda: ([runtime.submit(query) for _ in range(3)],
                     runtime.queue_depth),
        )
        assert verdicts == ([True, True, False], 2)
        assert metrics.snapshot()["counters"]["serving.shed"] == 1
        shed = [r for r in runtime.records if r.status == SHED]
        assert [r.shed_reason for r in shed] == [SHED_QUEUE_FULL]

    def test_depth_gauge_tracks(self):
        metrics = MetricsRegistry()
        runtime = make_runtime(queue_capacity=4, metrics=metrics)
        query = Request(0.0, QUERY, source=0)
        depths = serve_reads(
            runtime,
            lambda: [runtime.submit(query) for _ in range(2)],
            lambda: runtime.queue_depth,  # read after one pop
        )
        assert depths[1] == 1
        gauge = metrics.snapshot()["gauges"]["serving.queue_depth"]
        assert gauge["high_water"] == 2
        assert runtime.queue_depth == 0

    def test_poll_empty_returns_none(self):
        """A source that closes at once leaves nothing to serve."""
        runtime = make_runtime()
        assert serve_reads(runtime) == []
        assert runtime.records == []
        assert runtime.queue_depth == 0

    def test_poll_pops_and_tracks_depth(self):
        runtime = make_runtime(
            queue_capacity=4, query_fn=lambda graph, source: source
        )
        depths = serve_reads(
            runtime,
            lambda: [
                runtime.submit(Request(0.0, QUERY, source=s)) for s in (1, 2)
            ],
            lambda: runtime.queue_depth,
        )
        assert depths[1] == 1
        assert [r.result for r in runtime.records] == [1, 2]

    def test_ticket_expiry(self):
        t = Ticket(Request(0.0, QUERY, source=0), 0.0, deadline_s=1.0)
        assert not t.expired(now_s=0.5)
        assert t.expired(now_s=1.5)
        assert not Ticket(
            Request(0.0, QUERY, source=0), 0.0
        ).expired(now_s=1e9)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError, match="queue_capacity"):
            make_runtime(queue_capacity=-1)

    def test_updates_are_admitted_past_capacity(self):
        metrics = MetricsRegistry()
        runtime = make_runtime(queue_capacity=1, metrics=metrics)
        query = Request(0.0, QUERY, source=0)
        update = Request(0.0, UPDATE, update=EdgeUpdate(0, 1))
        (verdicts,) = serve_reads(
            runtime,
            lambda: (
                [runtime.submit(r) for r in (query, update, update, query)],
                runtime.queue_depth,
            ),
        )
        assert verdicts == ([True, True, True, False], 3)
        assert metrics.snapshot()["counters"]["serving.shed"] == 1


class TestServingRuntime:
    def test_serves_queries_and_updates(self):
        graph = make_graph()
        runtime = make_runtime(make_algorithm(graph), queue_capacity=0)
        requests = [
            Request(0.0, QUERY, source=0),
            Request(0.0, UPDATE, update=EdgeUpdate(0, 9)),
            Request(0.0, QUERY, source=2),
        ]
        with runtime:
            report = runtime.serve(requests)
        assert len(report.records) == 3
        assert all(r.status == OK for r in report.records)
        assert graph.has_edge(0, 9)
        assert len(report.completed_queries()) == 2
        assert report.query_throughput() > 0

    def test_requires_start(self):
        runtime = make_runtime()
        with pytest.raises(RuntimeError, match="not started"):
            runtime.submit(Request(0.0, QUERY, source=0))

    def test_double_start_rejected(self):
        runtime = make_runtime()
        runtime.start()
        try:
            with pytest.raises(RuntimeError, match="already started"):
                runtime.start()
        finally:
            runtime.stop()

    def test_sheds_on_full_queue(self):
        """From another thread a submission is posted, and the loop
        sheds it when it reads it: the verdict arrives as a record."""
        runtime = make_runtime(queue_capacity=1)
        with runtime:
            results = [
                runtime.submit(Request(0.0, QUERY, source=0))
                for _ in range(60)
            ]
            runtime.drain()
        assert all(results)
        shed = [r for r in runtime.records if r.status == SHED]
        assert shed and all(r.shed_reason == SHED_QUEUE_FULL for r in shed)
        assert len(runtime.records) == 60

    def test_deadline_timeout(self):
        metrics = MetricsRegistry()
        slow = lambda graph, source: time.sleep(0.05)  # noqa: E731
        runtime = make_runtime(
            queue_capacity=0, deadline_s=0.01,
            query_fn=slow, metrics=metrics,
        )
        with runtime:
            for _ in range(8):
                runtime.submit(Request(0.0, QUERY, source=0))
            runtime.drain()
        statuses = {r.status for r in runtime.records}
        assert TIMEOUT in statuses
        assert metrics.snapshot()["counters"]["serving.timeout"] >= 1

    def test_seed_deferral_and_drain(self):
        """Updates defer through the Seed queue and are all applied by
        the time drain() returns."""
        graph = make_graph()
        runtime = make_runtime(
            make_algorithm(graph), epsilon_r=100.0,
            queue_capacity=0,
        )
        with runtime:
            runtime.submit(Request(0.0, UPDATE, update=EdgeUpdate(0, 9)))
            runtime.submit(Request(0.0, UPDATE, update=EdgeUpdate(9, 5)))
            runtime.submit(Request(0.0, QUERY, source=0))
            runtime.drain()
        assert runtime.pending_updates == 0
        assert graph.has_edge(0, 9) and graph.has_edge(9, 5)
        applied = [
            r for r in runtime.records
            if r.kind == UPDATE and r.status == OK
        ]
        assert len(applied) == 2
        assert all(r.version > 0 for r in applied)

    def test_idle_workers_drain_deferred_updates_back_to_back(self):
        """With nothing queued, deferred updates are worked off one
        after another (as ``replay()`` does), not one per idle tick."""
        graph = make_graph()
        runtime = make_runtime(
            make_algorithm(graph), epsilon_r=100.0,
            queue_capacity=0, idle_tick_s=0.5,
        )
        with runtime:
            for v in range(10, 20):
                runtime.submit(Request(0.0, UPDATE, update=EdgeUpdate(0, v)))
            deadline = time.monotonic() + 1.0
            while time.monotonic() < deadline and not all(
                graph.has_edge(0, v) for v in range(10, 20)
            ):
                time.sleep(0.005)
            # read inside the block: leaving it flushes what is left
            applied = [graph.has_edge(0, v) for v in range(10, 20)]
            pending = runtime.pending_updates
        assert all(applied)
        assert pending == 0

    def test_fault_degrades_to_fcfs(self):
        graph = make_graph()
        algorithm = make_algorithm(graph)
        original = algorithm.apply_update
        calls = []

        def flaky(update):
            calls.append(update)
            if len(calls) == 2:
                raise RuntimeError("injected")
            return original(update)

        algorithm.apply_update = flaky
        metrics = MetricsRegistry()
        runtime = make_runtime(
            algorithm, epsilon_r=100.0, queue_capacity=0,
            metrics=metrics,
        )
        updates = [EdgeUpdate(0, 9), EdgeUpdate(9, 5), EdgeUpdate(5, 4)]
        with runtime:
            for update in updates:
                runtime.submit(Request(0.0, UPDATE, update=update))
            runtime.submit(Request(0.0, QUERY, source=0))
            runtime.drain()
        assert runtime.degraded
        failed = [r for r in runtime.records if r.status == FAILED]
        assert len(failed) == 1 and "injected" in failed[0].error
        assert metrics.snapshot()["counters"]["serving.faults"] == 1
        # the two surviving updates were applied despite the fault
        ok_updates = [
            r for r in runtime.records
            if r.kind == UPDATE and r.status == OK
        ]
        assert len(ok_updates) == 2
        assert runtime.pending_updates == 0

    def test_query_results_returned(self):
        seen = []
        runtime = make_runtime(
            queue_capacity=0,
            query_fn=lambda graph, source: ("answer", source),
        )
        with runtime:
            runtime.submit(Request(0.0, QUERY, source=3))
            runtime.drain()
        seen = [r.result for r in runtime.records if r.status == OK]
        assert seen == [("answer", 3)]

    def test_stop_flushes_pending(self):
        graph = make_graph()
        runtime = make_runtime(
            make_algorithm(graph), epsilon_r=100.0,
            queue_capacity=0,
        )
        runtime.start()
        runtime.submit(Request(0.0, UPDATE, update=EdgeUpdate(0, 9)))
        runtime.stop()  # flush=True default
        assert graph.has_edge(0, 9)
        assert runtime.pending_updates == 0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            make_runtime(workers=0)
        with pytest.raises(ValueError):
            make_runtime(deadline_s=0.0)

    def test_wait_and_response_histograms(self):
        metrics = MetricsRegistry()
        runtime = make_runtime(queue_capacity=0, metrics=metrics)
        with runtime:
            runtime.serve([Request(0.0, QUERY, source=0)])
        hist = metrics.snapshot()["histograms"]
        assert hist["serving.wait"]["count"] == 1
        assert hist["serving.response"]["count"] == 1


class TestCompletionSink:
    """A runtime has one completion sink: ``on_complete`` or ``records``."""

    def test_on_complete_replaces_the_records_list(self):
        """A server that hands completions to a sink must not also keep
        every result vector forever (the shard-worker leak)."""
        seen = []
        runtime = make_runtime(
            queue_capacity=0, on_complete=seen.append
        )
        with runtime:
            report = runtime.serve(
                [Request(0.0, QUERY, source=i % 4) for i in range(300)]
            )
        assert len(seen) == 300
        assert all(r.status == OK for r in seen)
        assert len(runtime.records) == 0
        assert report.records == []

    @pytest.mark.parametrize("paced", [False, True])
    def test_reports_every_terminal_outcome_once(self, paced):
        """Without a sink, ok / timeout / failed / shed each reach the
        serve / serve_timed report exactly once."""
        algorithm = make_algorithm()

        def failing_update(update):
            raise RuntimeError("injected")

        algorithm.apply_update = failing_update
        running, gate = threading.Event(), threading.Event()

        def blocking_query(graph, source):
            running.set()
            assert gate.wait(10.0)
            return source

        metrics = MetricsRegistry()
        runtime = make_runtime(
            algorithm, queue_capacity=2, deadline_s=0.02,
            query_fn=blocking_query, metrics=metrics,
        )
        requests = [
            Request(0.0, QUERY, source=0),  # ok: holds the only worker
            Request(0.0, QUERY, source=1),  # queued past its deadline
            Request(0.0, UPDATE, update=EdgeUpdate(0, 9)),  # raises
            Request(0.0, QUERY, source=2),  # queue full: shed
        ]

        def held_then_rest():
            # the rest is submitted only once the worker is held, so
            # submission order alone fixes each request's fate
            yield requests[0]
            assert running.wait(10.0)
            yield from requests[1:]

        def release_after_shed():
            try:
                # the loop sheds when it next reads its inbox: wait until
                # the three later submissions were all posted to it
                give_up = time.monotonic() + 10.0
                while (
                    runtime._inbox.qsize() < 3
                    and time.monotonic() < give_up
                ):
                    time.sleep(0.001)
                time.sleep(0.05)  # let the queued query's deadline lapse
            finally:
                gate.set()

        releaser = threading.Thread(target=release_after_shed)
        with runtime:
            releaser.start()
            if paced:
                report = runtime.serve_timed(
                    requests,
                    on_submit=lambda request, now_s: running.wait(10.0),
                )
            else:
                report = runtime.serve(held_then_rest())
            releaser.join(15.0)
        assert not releaser.is_alive()
        assert sorted(r.status for r in report.records) == sorted(
            [OK, TIMEOUT, FAILED, SHED]
        )
        by_status = {r.status: r.request for r in report.records}
        assert by_status[OK] is requests[0]
        assert by_status[TIMEOUT] is requests[1]
        assert by_status[FAILED] is requests[2]
        assert by_status[SHED] is requests[3]
        assert runtime.records == report.records


class TestQuotaIntegration:
    def test_reconfigure_without_controller_is_noop(self):
        runtime = make_runtime()
        with runtime:
            assert runtime.reconfigure(1.0, 1.0) is None

    @pytest.mark.parametrize("scale, rebuilt", [(1.0, False), (2.0, True)])
    def test_reconfigure_applies_beta_only_when_it_moved(self, scale, rebuilt):
        """An unchanged beta is recorded but not re-applied: for an
        index-based algorithm re-applying it is a full index build."""
        algorithm = ForaPlus(make_graph(), PPRParams(walk_cap=100))
        index = algorithm.index
        runtime = make_runtime(algorithm, controller=ScalingController(scale))
        with runtime:
            runtime.reconfigure(20.0, 20.0)
            runtime.reconfigure(20.0, 20.0)
        assert len(runtime.decisions) == 2
        assert (algorithm.index is not index) is rebuilt
        applied = runtime.metrics.histogram("service.reconfigure").count
        assert applied == (2 if rebuilt else 0)


class ScalingController:
    """A QuotaController stand-in deciding the current beta times
    ``scale``."""

    def __init__(self, scale):
        self.scale = scale

    def configure(self, lambda_q, lambda_u, warm_start=None, quick=True):
        beta = {name: value * self.scale for name, value in warm_start.items()}
        return SimpleNamespace(beta=beta)


class FixedController:
    """A QuotaController stand-in that always decides ``beta``."""

    def __init__(self, beta):
        self.beta = beta

    def configure(self, lambda_q, lambda_u, warm_start=None, quick=True):
        return SimpleNamespace(beta=dict(self.beta))


def threads_started_by(action):
    """Threads alive after ``action()`` that were not alive before."""
    before = set(threading.enumerate())
    action()
    return [t for t in threading.enumerate() if t not in before]


class TestOneThread:
    def test_default_runtime_runs_exactly_one_thread(self):
        runtime = make_runtime()
        started = threads_started_by(runtime.start)
        try:
            assert len(started) == 1
            assert started[0].is_alive()
        finally:
            runtime.stop()
        assert not started[0].is_alive()

    def test_more_than_one_worker_raises(self):
        with pytest.raises(ValueError, match="single-threaded"):
            make_runtime(workers=2)

    def test_every_kernel_call_and_mutation_runs_on_the_runtime_thread(self):
        algorithm = make_algorithm()
        cache = PPRCache(metrics=MetricsRegistry())
        calls = []
        for owner, names in (
            (algorithm, ("query", "apply_update", "set_hyperparameters")),
            (cache, ("lookup", "insert", "charge_staleness")),
        ):
            for name in names:

                def traced(*args, _original=getattr(owner, name),
                           _name=name, **kwargs):
                    calls.append((_name, threading.get_ident()))
                    return _original(*args, **kwargs)

                setattr(owner, name, traced)
        runtime = make_runtime(
            algorithm, epsilon_r=100.0, queue_capacity=0, cache=cache,
            controller=FixedController({"r_max": algorithm.r_max * 2}),
        )
        (thread,) = threads_started_by(runtime.start)
        report = runtime.serve(
            [Request(0.0, QUERY, source=s % 4) for s in range(6)]
            + [Request(0.0, UPDATE, update=EdgeUpdate(0, v))
               for v in range(10, 14)]
        )
        assert report.fault_count == 0
        for v in range(14, 17):
            runtime.submit(Request(0.0, UPDATE, update=EdgeUpdate(1, v)))
        assert runtime.reconfigure(1.0, 1.0) is not None
        runtime.submit(Request(0.0, QUERY, source=0))
        runtime.drain()
        runtime.submit(Request(0.0, UPDATE, update=EdgeUpdate(2, 17)))
        runtime.stop()
        kinds = [name for name, _ in calls]
        assert kinds.count("apply_update") == 8
        assert kinds.count("charge_staleness") == 8
        assert kinds.count("lookup") == 7
        assert 1 <= kinds.count("query") == kinds.count("insert") <= 7
        assert kinds.count("set_hyperparameters") == 1
        assert {ident for _, ident in calls} == {thread.ident}
