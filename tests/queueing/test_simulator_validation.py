"""Regression tests for the Issue-3 simulator fixes and the
event-driven Seed-aware simulator.

Bug 3: ``FCFSQueueSimulator.run`` silently accepted NaN/inf service
durations, poisoning every downstream mean/percentile; it now raises
immediately, naming the offending request.

Bug 4: ``servers > 1`` with a *measured* service_fn mislabels a
sequential timeline as parallel; the simulator now requires an explicit
``modeled=True`` acknowledgement or emits ``MeasuredParallelWarning``.
"""

import math

import pytest

from repro.graph.digraph import DynamicGraph
from repro.graph.updates import EdgeUpdate
from repro.queueing.kinds import QUERY, UPDATE
from repro.queueing.replay import validate_service
from repro.queueing.seed_simulator import SeedAwareQueueSimulator
from repro.queueing.simulator import (
    FCFSQueueSimulator,
    MeasuredParallelWarning,
)
from repro.queueing.workload import Request


def queries(arrivals):
    return [Request(float(t), QUERY, source=0) for t in arrivals]


def make_graph():
    return DynamicGraph.from_edges([(0, 1), (1, 2), (2, 0), (0, 2)])


class TestServiceValidation:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_rejects_non_finite_and_negative(self, bad):
        sim = FCFSQueueSimulator(lambda r: bad)
        with pytest.raises(ValueError, match="service_fn"):
            sim.run(queries([0.0]), t_end=1.0)

    def test_error_names_the_request(self):
        sim = FCFSQueueSimulator(lambda r: float("nan"))
        request = Request(0.25, QUERY, source=7)
        with pytest.raises(ValueError, match="source=7"):
            sim.run([request], t_end=1.0)

    def test_validate_service_passthrough(self):
        request = Request(0.0, QUERY, source=0)
        assert validate_service(0.5, request) == 0.5
        assert validate_service(0.0, request) == 0.0

    def test_seed_simulator_validates_too(self):
        graph = make_graph()
        sim = SeedAwareQueueSimulator(lambda r: math.inf, graph)
        with pytest.raises(ValueError, match="service_fn"):
            sim.run(queries([0.0]))


class TestMeasuredParallelWarning:
    def test_multiserver_without_modeled_warns(self):
        sim = FCFSQueueSimulator(lambda r: 1.0, servers=2)
        with pytest.warns(MeasuredParallelWarning):
            sim.run(queries([0.0, 0.0]), t_end=5.0)

    def test_modeled_flag_silences(self, recwarn):
        sim = FCFSQueueSimulator(lambda r: 1.0, servers=2, modeled=True)
        sim.run(queries([0.0, 0.0]), t_end=5.0)
        assert not [
            w for w in recwarn if w.category is MeasuredParallelWarning
        ]

    def test_single_server_never_warns(self, recwarn):
        FCFSQueueSimulator(lambda r: 1.0).run(queries([0.0]), t_end=5.0)
        assert not [
            w for w in recwarn if w.category is MeasuredParallelWarning
        ]


class TestSeedAwareSimulator:
    def test_matches_fcfs_when_disabled(self):
        """eps_r=0, servers=1 must coincide with FCFSQueueSimulator."""
        arrivals = [0.0, 0.3, 0.31, 1.0, 1.5]
        requests = queries(arrivals) + [
            Request(0.5, UPDATE, update=EdgeUpdate(0, 9))
        ]
        requests.sort(key=lambda r: r.arrival)
        svc = lambda r: 0.2 if r.kind == QUERY else 0.05  # noqa: E731
        fcfs = FCFSQueueSimulator(svc).run(list(requests), t_end=10.0)
        seed = SeedAwareQueueSimulator(svc, make_graph()).run(
            list(requests), t_end=10.0
        )
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
        result = SeedAwareQueueSimulator(
            svc, graph, epsilon_r=100.0
        ).run(requests)
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
        result = SeedAwareQueueSimulator(
            svc, graph, epsilon_r=tiny
        ).run(requests)
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
        result = SeedAwareQueueSimulator(
            svc, graph, epsilon_r=100.0
        ).run(requests)
        update = next(c for c in result.completed if c.request.kind == UPDATE)
        query = next(c for c in result.completed if c.request.kind == QUERY)
        assert update.finish <= 5.0  # drained during the idle gap
        assert query.start == pytest.approx(5.0)  # graph already fresh

    def test_tail_flush_after_window(self):
        """Updates still pending when the workload ends are applied."""
        graph = make_graph()
        requests = [Request(0.0, UPDATE, update=EdgeUpdate(0, 9))]
        result = SeedAwareQueueSimulator(
            lambda r: 0.5, graph, epsilon_r=100.0
        ).run(requests)
        assert graph.has_edge(0, 9)
        assert len(result.completed) == 1

    def test_multiserver_overlap(self):
        """k=2 serves two simultaneous queries without queueing."""
        result = SeedAwareQueueSimulator(
            lambda r: 1.0, make_graph(), servers=2
        ).run(queries([0.0, 0.0, 0.0]), t_end=10.0)
        starts = sorted(c.start for c in result.completed)
        assert starts == [0.0, 0.0, 1.0]

    def test_invalid_server_count(self):
        with pytest.raises(ValueError):
            SeedAwareQueueSimulator(lambda r: 1.0, make_graph(), servers=0)
