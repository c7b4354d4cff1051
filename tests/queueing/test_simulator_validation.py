"""Regression tests for service validation and the Seed-aware replay.

A modeled replay used to accept NaN/inf service durations silently,
poisoning every downstream mean/percentile; it now raises immediately,
naming the offending request.  The Seed-aware tests drive
:func:`~repro.queueing.replay.replay` with a real graph and a
:class:`~repro.core.seed.SeedQueue`.
"""

import math

import pytest

from repro.core.seed import SeedQueue
from repro.graph.digraph import DynamicGraph
from repro.graph.updates import EdgeUpdate
from repro.queueing.kinds import QUERY, UPDATE
from repro.queueing.replay import ModeledExecutor, replay, validate_service
from repro.queueing.workload import Request


def queries(arrivals):
    return [Request(float(t), QUERY, source=0) for t in arrivals]


def make_graph():
    return DynamicGraph.from_edges([(0, 1), (1, 2), (2, 0), (0, 2)])


def seed_aware(requests, svc, graph, epsilon_r, **kwargs):
    """Replay with ``graph`` really mutated and a Seed queue over it."""
    return replay(
        requests,
        ModeledExecutor(svc, graph=graph),
        seed_queue=SeedQueue(graph, 0.2, epsilon_r),
        **kwargs,
    )


class TestServiceValidation:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_rejects_non_finite_and_negative(self, bad):
        with pytest.raises(ValueError, match="service_fn"):
            replay(queries([0.0]), ModeledExecutor(lambda r: bad), t_end=1.0)

    def test_error_names_the_request(self):
        executor = ModeledExecutor(lambda r: float("nan"))
        request = Request(0.25, QUERY, source=7)
        with pytest.raises(ValueError, match="source=7"):
            replay([request], executor, t_end=1.0)

    def test_validate_service_passthrough(self):
        request = Request(0.0, QUERY, source=0)
        assert validate_service(0.5, request) == 0.5
        assert validate_service(0.0, request) == 0.0

    def test_seed_aware_replay_validates_too(self):
        with pytest.raises(ValueError, match="service_fn"):
            seed_aware(queries([0.0]), lambda r: math.inf, make_graph(), 0.0)


class TestSeedAwareSimulator:
    def test_matches_fcfs_when_disabled(self):
        """eps_r=0, servers=1 must coincide with strict FCFS."""
        arrivals = [0.0, 0.3, 0.31, 1.0, 1.5]
        requests = queries(arrivals) + [
            Request(0.5, UPDATE, update=EdgeUpdate(0, 9))
        ]
        requests.sort(key=lambda r: r.arrival)
        svc = lambda r: 0.2 if r.kind == QUERY else 0.05  # noqa: E731
        fcfs = replay(list(requests), ModeledExecutor(svc), t_end=10.0)
        seed = seed_aware(list(requests), svc, make_graph(), 0.0, t_end=10.0)
        assert [
            (c.request.arrival, c.start, c.finish) for c in fcfs.completed
        ] == [
            (c.request.arrival, c.start, c.finish) for c in seed.completed
        ]

    def test_updates_deferred_within_budget(self):
        """While the server is busy, a later query overtakes an earlier
        update; the deferred update is drained once the server idles.

        The server stays occupied from 0.0 so the idle drain (which
        would otherwise apply the update during the gap — workers can't
        see future arrivals) never gets a chance before the query.
        """
        graph = make_graph()
        requests = [
            Request(0.0, QUERY, source=2),                 # busy till 1.0
            Request(0.1, UPDATE, update=EdgeUpdate(0, 9)),  # deferred
            Request(0.2, QUERY, source=2),                 # overtakes it
        ]
        svc = lambda r: 1.0 if r.kind == QUERY else 0.5  # noqa: E731
        result = seed_aware(requests, svc, graph, 100.0)
        second_query = next(
            c for c in result.completed
            if c.request.kind == QUERY and c.request.arrival == 0.2
        )
        update = next(c for c in result.completed if c.request.kind == UPDATE)
        assert second_query.start == pytest.approx(1.0)   # not behind update
        assert update.start >= second_query.finish        # drained after
        assert graph.has_edge(0, 9)  # structure really mutated

    def test_forced_flush_charges_the_query(self):
        """A query whose bound exceeds eps_r pays for the flush first."""
        graph = make_graph()
        tiny = 1e-9  # any pending update overflows this budget
        requests = [
            Request(0.0, QUERY, source=2),                 # busy till 1.0
            Request(0.1, UPDATE, update=EdgeUpdate(0, 9)),  # deferred
            Request(0.2, QUERY, source=2),                 # must flush
        ]
        svc = lambda r: 1.0 if r.kind == QUERY else 0.5  # noqa: E731
        result = seed_aware(requests, svc, graph, tiny)
        second_query = next(
            c for c in result.completed
            if c.request.kind == QUERY and c.request.arrival == 0.2
        )
        update = next(c for c in result.completed if c.request.kind == UPDATE)
        assert update.start == pytest.approx(1.0)          # flush first...
        assert second_query.start == pytest.approx(1.5)    # ...then query

    def test_idle_server_drains_pending(self):
        """A long gap before the next arrival applies deferred updates
        at the server's idle time, not at the next query."""
        graph = make_graph()
        requests = [
            Request(0.0, UPDATE, update=EdgeUpdate(0, 9)),
            Request(5.0, QUERY, source=2),
        ]
        svc = lambda r: 1.0 if r.kind == QUERY else 0.5  # noqa: E731
        result = seed_aware(requests, svc, graph, 100.0)
        update = next(c for c in result.completed if c.request.kind == UPDATE)
        query = next(c for c in result.completed if c.request.kind == QUERY)
        assert update.finish <= 5.0  # drained during the idle gap
        assert query.start == pytest.approx(5.0)  # graph already fresh

    def test_tail_flush_after_window(self):
        """Updates still pending when the workload ends are applied."""
        graph = make_graph()
        requests = [Request(0.0, UPDATE, update=EdgeUpdate(0, 9))]
        result = seed_aware(requests, lambda r: 0.5, graph, 100.0)
        assert graph.has_edge(0, 9)
        assert len(result.completed) == 1

    def test_multiserver_overlap(self):
        """k=2 serves two simultaneous queries without queueing."""
        result = seed_aware(
            queries([0.0, 0.0, 0.0]),
            lambda r: 1.0,
            make_graph(),
            0.0,
            servers=2,
            t_end=10.0,
        )
        starts = sorted(c.start for c in result.completed)
        assert starts == [0.0, 0.0, 1.0]

    def test_invalid_server_count(self):
        with pytest.raises(ValueError):
            seed_aware(queries([0.0]), lambda r: 1.0, make_graph(), 0.0, servers=0)
