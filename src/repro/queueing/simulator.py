"""Virtual-time FCFS single-server queue simulator.

The central reproduction substitution (DESIGN.md §3): rather than
wall-clock-sleeping between arrivals — unaffordable and noisy in pure
Python — the simulator advances a *virtual clock*.  Each request's
service duration is supplied by a caller-provided ``service_fn`` (either
the measured execution time of the real PPR operation, or a modeled
cost), and completion times follow the Lindley recursion

    start_i  = max(arrival_i, finish_{i-1})
    finish_i = start_i + service_i

which is exactly the FCFS dynamics of Figure 1.  Response time =
finish - arrival, the quantity every experiment reports.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterable

from repro.cache.staleness import ReplayCache
from repro.queueing.replay import (
    ModeledExecutor,
    ServiceFn,
    SimulationResult,
    replay,
)
from repro.queueing.workload import Request, Workload


class MeasuredParallelWarning(UserWarning):
    """A k > 1 simulation ran without declaring ``modeled=True``.

    With multiple virtual servers only the *timeline* is parallel: a
    ``service_fn`` that actually executes work (measured mode) still
    runs sequentially in this process, so presenting its output as a
    parallel measurement mislabels the result.  Pass ``modeled=True``
    to assert the service durations are modeled (cost-function) values,
    or serve from the process fleet (:mod:`repro.shard`, one runtime
    per shard process) for measured parallel execution.
    """


class FCFSQueueSimulator:
    """Replays a workload through a single FCFS server in virtual time.

    Parameters
    ----------
    service_fn:
        Maps a request to its service duration in virtual seconds.
        The two standard choices are *measured* service (execute the
        real PPR query/update and return its wall time) and *modeled*
        service (evaluate a cost function).  Executing inside the
        service function is what keeps algorithm state (graph, index)
        consistent with the replay order.
    servers:
        Number of parallel servers (default 1, the paper's setting).
        With k > 1 each request is dispatched FCFS to the earliest-free
        server — the substrate for the "parallel PPR processing"
        future-work direction.
    modeled:
        Declare that ``service_fn`` returns *modeled* (cost-function)
        durations rather than executing work.  With ``servers > 1``
        this declaration matters: measured execution is still
        sequential in this process — only the virtual timeline is
        parallel — so a k > 1 run without ``modeled=True`` emits
        :class:`MeasuredParallelWarning` instead of letting benches
        mislabel a sequential-execution timeline as parallel.  For
        measured parallel serving use the process fleet
        (:mod:`repro.shard`).
    cache:
        Optional :class:`~repro.cache.staleness.ReplayCache` reproducing the
        serving runtime's hit/miss service-time mixture in virtual
        time: a query that hits is charged ``cache.hit_service_s``
        and ``service_fn`` is *not* invoked (mirroring
        lookup-before-compute); a miss runs normally and is admitted
        at its service cost; every update charges the cache's
        staleness tracker *after* ``service_fn`` ran, so a measured
        service function that mutates the graph is charged against
        post-update degrees.
    """

    def __init__(
        self,
        service_fn: ServiceFn,
        servers: int = 1,
        modeled: bool = False,
        cache: ReplayCache | None = None,
    ) -> None:
        if servers < 1:
            raise ValueError("servers must be >= 1")
        self._service_fn = service_fn
        self._servers = servers
        self._modeled = modeled
        self._cache = cache

    def run(
        self,
        workload: Workload | Iterable[Request],
        t_end: float | None = None,
    ) -> SimulationResult:
        """Process every request in arrival (FCFS) order."""
        if self._servers > 1 and not self._modeled:
            warnings.warn(
                "FCFSQueueSimulator with servers > 1 executes service_fn "
                "sequentially; only the virtual timeline is parallel. "
                "Pass modeled=True to declare modeled service durations, "
                "or serve from the process fleet (repro.shard) for "
                "measured parallelism.",
                MeasuredParallelWarning,
                stacklevel=2,
            )
        return replay(
            workload,
            ModeledExecutor(self._service_fn, cache=self._cache),
            servers=self._servers,
            t_end=t_end,
        )
