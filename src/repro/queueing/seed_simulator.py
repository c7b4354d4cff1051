"""Seed-aware k-server simulator: the replay loop with a Seed queue.

:class:`~repro.queueing.simulator.FCFSQueueSimulator` replays strict
FCFS; the measured serving loop
(:class:`~repro.core.system.QuotaSystem` and the concurrent
:class:`~repro.serving.ServingRuntime`) additionally defers updates
through the Seed queue, forces a flush when a query's ordering-error
budget is exceeded, and drains deferred updates while servers idle.
:class:`SeedAwareQueueSimulator` runs *those* semantics in modeled
time, for any number of servers: it is :func:`repro.queueing.replay.replay`
(see there for the schedule) over a fresh
:class:`~repro.core.seed.SeedQueue` and a
:class:`~repro.queueing.replay.ModeledExecutor` that really mutates the
graph, so modeled and measured runs of the same workload are directly
comparable (the measured-vs-modeled contract; see docs/DEVELOPMENT.md).
"""

from __future__ import annotations

from repro.cache.staleness import ReplayCache
from repro.core.seed import SeedQueue
from repro.graph.digraph import DynamicGraph
from repro.queueing.replay import (
    ModeledExecutor,
    ServiceFn,
    SimulationResult,
    replay,
)
from repro.queueing.workload import Request, Workload


class SeedAwareQueueSimulator:
    """Discrete-event replay: k FCFS servers + Seed reordering + drain.

    Parameters
    ----------
    service_fn:
        Maps a request to its *modeled* service duration in virtual
        seconds.  Flushed updates are charged through the same
        function (one call per flushed update), so query/update/flush
        costs stay mutually consistent.
    graph:
        The live graph; updates toggle its edges (structure is real,
        time is modeled) so the Seed bound sees true degrees.
    alpha, epsilon_r:
        Seed parameters; ``epsilon_r = 0`` restores strict FCFS and
        makes ``servers=1`` runs coincide with
        :class:`~repro.queueing.simulator.FCFSQueueSimulator`.
    servers:
        Number of modeled servers (k of the parallel-serving bench).
    cache:
        Optional :class:`~repro.cache.ReplayCache` reproducing the
        serving runtime's hit/miss mixture: a query that hits is
        charged ``cache.hit_service_s`` and skips the Seed flush
        check; a miss runs normally and is admitted.  Every applied
        update — direct, idle-drained, or flushed — charges the
        cache's staleness tracker right after mutating the graph.
    """

    def __init__(
        self,
        service_fn: ServiceFn,
        graph: DynamicGraph,
        alpha: float = 0.2,
        epsilon_r: float = 0.0,
        servers: int = 1,
        cache: ReplayCache | None = None,
    ) -> None:
        if servers < 1:
            raise ValueError("servers must be >= 1")
        self._graph = graph
        self._alpha = alpha
        self._epsilon_r = epsilon_r
        self._servers = servers
        self._executor = ModeledExecutor(service_fn, graph=graph, cache=cache)

    def run(
        self,
        workload: Workload | list[Request],
        t_end: float | None = None,
    ) -> SimulationResult:
        """Replay ``workload`` through the modeled Seed-aware servers."""
        return replay(
            workload,
            self._executor,
            seed_queue=SeedQueue(self._graph, self._alpha, self._epsilon_r),
            servers=self._servers,
            t_end=t_end,
        )


__all__ = ["SeedAwareQueueSimulator"]
