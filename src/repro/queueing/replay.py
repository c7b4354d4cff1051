"""The virtual-time replay loop: one schedule, two sources of service time.

Virtual time has one entry point, :func:`replay`: a modeled run is
``replay(workload, ModeledExecutor(service_fn, graph=g, cache=c),
seed_queue=SeedQueue(g, alpha, epsilon_r), servers=k)`` with whatever
it does not use left out, and the measured :meth:`QuotaSystem.process
<repro.core.system.QuotaSystem.process>` is the same call with a
:class:`MeasuredExecutor`.  The loop owns the *schedule* (Algorithm 2
on k FCFS servers); the executor only says how long each operation
took.

Schedule
--------
* **k servers** — each executing request occupies the earliest-free
  server (min-heap of per-server next-free times); completion times
  follow the Lindley recursion ``start = max(arrival, free)``,
  ``finish = start + service``.
* **Seed reordering** (a ``seed_queue`` with ``epsilon_r > 0``) —
  updates are deferred at zero server cost; a query whose Lemma 2
  bound exceeds the budget first pays for a full flush on its server
  (each flushed update timed on its own, back to back), then runs.
  Without a queue, or at ``epsilon_r = 0``, updates run inline in
  arrival order: strict FCFS.
* **Idle drain** — a server idle before the next arrival applies
  pending updates one at a time, oldest first.
* **Cache** — a query the executor answers from its cache costs only
  the hit and skips the flush check (the ``epsilon_c`` budget covers
  every applied update; deferred ones are invisible to a fresh
  recompute too).
* **End of window** — still-pending updates are flushed after the last
  arrival, so every submitted request completes exactly once.

The per-request branch (defer or apply an update; cache lookup, Lemma 2
flush check, query) is :func:`serve_request`, and the oldest deferred
update runs through :func:`apply_head`: the wall-clock
:class:`~repro.serving.runtime.ServingRuntime` calls both on its one
thread, so the two engines differ only in their clocks.  k > 1 servers
exist only here, as a modeled what-if; a flush then occupies only the
server that triggered it.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING, Protocol, cast

import numpy as np
from numpy.typing import NDArray

from repro.cache.staleness import (
    ChargingApplier,
    StalenessTracker,
    SupportsApplyUpdate,
)
from repro.cache.store import CacheKey, PiEstimate, PPRCache, make_key
from repro.graph.digraph import DynamicGraph
from repro.queueing.kinds import QUERY, UPDATE
from repro.queueing.workload import Request, Workload

if TYPE_CHECKING:  # type-only: repro.core imports this package
    from repro.core.seed import SeedQueue
    from repro.obs.metrics import MetricsRegistry
    from repro.ppr.base import (
        CompactPPRVector,
        DynamicPPRAlgorithm,
        PPRVector,
    )


@dataclass(frozen=True, slots=True)
class CompletedRequest:
    """A request with its simulated timing."""

    request: Request
    start: float
    finish: float
    service: float

    @property
    def arrival(self) -> float:
        return self.request.arrival

    @property
    def kind(self) -> str:
        return self.request.kind

    @property
    def waiting_time(self) -> float:
        return self.start - self.request.arrival

    @property
    def response_time(self) -> float:
        return self.finish - self.request.arrival


class SimulationResult:
    """Aggregated outcome of one simulated workload replay."""

    def __init__(self, completed: list[CompletedRequest], t_end: float) -> None:
        self.completed = completed
        self.t_end = t_end

    def __len__(self) -> int:
        return len(self.completed)

    def of_kind(self, kind: str) -> list[CompletedRequest]:
        return [c for c in self.completed if c.kind == kind]

    def query_response_times(self) -> NDArray[np.float64]:
        return np.array(
            [c.response_time for c in self.completed if c.kind == QUERY],
            dtype=np.float64,
        )

    def mean_query_response_time(self) -> float:
        """The paper's headline metric R_q."""
        times = self.query_response_times()
        return float(times.mean()) if times.size else 0.0

    def percentile_query_response_time(self, q: float) -> float:
        """Response-time percentile of the queries.

        ``q`` is on the 0-100 scale (``99`` is the p99, matching
        ``np.percentile``).  Values in the open interval (0, 1) are
        rejected: they almost always mean the caller passed a fraction
        (``0.99``) where a percentage was intended, which would silently
        return roughly the *minimum* instead of the tail.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"q must be in [0, 100], got {q}")
        if 0.0 < q < 1.0:
            raise ValueError(
                f"q={q} looks like a fraction; percentiles are on the "
                f"0-100 scale (use {q * 100:g} for the p{q * 100:g})"
            )
        times = self.query_response_times()
        return float(np.percentile(times, q)) if times.size else 0.0

    def mean_service_time(self, kind: str) -> float:
        services = [c.service for c in self.completed if c.kind == kind]
        return float(np.mean(services)) if services else 0.0

    def total_busy_time(self) -> float:
        return float(sum(c.service for c in self.completed))

    @property
    def horizon(self) -> float:
        """Virtual-time span the load metrics are normalized by.

        The workload window ``t_end`` extended to the last completion:
        the server may legitimately stay busy past the arrival window,
        and dividing busy time by a span shorter than the work it
        contains would report rho > 1 for an underloaded system.  Both
        :meth:`utilization` and :meth:`empirical_load` use this same
        denominator.
        """
        if not self.completed:
            return self.t_end
        return max(self.t_end, max(c.finish for c in self.completed))

    def utilization(self) -> float:
        """Fraction of virtual time the server was busy."""
        if not self.completed:
            return 0.0
        horizon = self.horizon
        return self.total_busy_time() / horizon if horizon > 0 else 0.0

    def empirical_load(self) -> float:
        """lambda_q t_q + lambda_u t_u estimated from the replay.

        Shares :attr:`horizon` with :meth:`utilization` so the two
        never disagree about the denominator.
        """
        horizon = self.horizon
        if horizon <= 0:
            return 0.0
        return self.total_busy_time() / horizon


ServiceFn = Callable[[Request], float]


def validate_service(service: float, request: Request) -> float:
    """Reject negative / NaN / infinite service durations.

    The seed implementation only rejected ``service < 0``; a NaN or
    inf (a cost model dividing by a zero rate, an uninitialized probe)
    passed the check and silently poisoned every later finish time and
    all derived metrics — NaN compares false against everything, so
    the Lindley recursion never noticed.
    """
    if service < 0 or not math.isfinite(service):
        raise ValueError(
            f"service_fn returned invalid duration {service!r} "
            f"for request {request!r}"
        )
    return service


# ----------------------------------------------------------------------
# executors: where service time comes from
# ----------------------------------------------------------------------
class Executor(Protocol):
    """Performs the operations :func:`replay` schedules.

    Every method returns the operation's service duration in (virtual)
    seconds; whatever state the operation touches — graph, index,
    cache — is the executor's business.
    """

    def lookup(self, request: Request) -> float | None:
        """Serve a query from cache: its hit cost, or None on a miss."""
        ...

    def query(self, request: Request) -> float:
        """Compute a query the cache could not answer."""
        ...

    def apply(self, request: Request, flushing: bool) -> float:
        """Execute one update; ``flushing`` marks it as part of a full
        flush, whose total is then reported through :meth:`flushed`."""
        ...

    def flushed(self, seconds: float) -> None:
        """A forced or end-of-window flush took ``seconds`` in total."""
        ...


#: teleport probability a modeled cache charges staleness at
MODELED_ALPHA = 0.2


def modeled_key(source: int) -> CacheKey:
    """Cache identity of a modeled query result for ``source``."""
    return make_key(source, "modeled", {})


class ModeledExecutor:
    """Service time from a cost function; structure optionally real.

    Parameters
    ----------
    service_fn:
        Maps a request to its service duration in virtual seconds
        (validated: finite and non-negative).  An update is costed
        *before* it is applied.
    graph:
        When given, updates really toggle its edges (structure is real,
        time is modeled) so Seed's degree-dependent bookkeeping tracks
        the true structure, exactly as in a measured run.  When omitted
        nothing is mutated here — the FCFS contract, where a measured
        ``service_fn`` executes the work itself.
    cache:
        Optional :class:`~repro.cache.store.PPRCache`, charged by a
        :class:`~repro.cache.staleness.StalenessTracker` over ``graph``
        (required with a cache) at ``alpha = MODELED_ALPHA``: a hit
        costs ``hit_service_s`` and ``service_fn`` is *not* invoked; a
        miss is admitted at its service cost; every update charges the
        tracker right after it was applied, against post-update
        degrees.  Modeled entries store no vector, so charging uses the
        degree-only bound ``pi_hat = 1`` — modeled replays over-evict
        relative to measured runs, never the reverse.
    hit_service_s:
        Modeled service duration of a cache hit, in virtual seconds.
    """

    def __init__(
        self,
        service_fn: ServiceFn,
        graph: DynamicGraph | None = None,
        cache: PPRCache | None = None,
        hit_service_s: float = 0.0,
    ) -> None:
        if hit_service_s < 0.0:
            raise ValueError(
                f"hit_service_s must be >= 0, got {hit_service_s}"
            )
        self._service_fn = service_fn
        self._graph = graph
        self._hit_service_s = hit_service_s
        self._staleness: StalenessTracker | None = None
        if cache is not None:
            if graph is None:
                raise ValueError("a modeled cache needs the graph it charges")
            self._staleness = StalenessTracker(cache, graph, MODELED_ALPHA)

    def _service(self, request: Request) -> float:
        return validate_service(float(self._service_fn(request)), request)

    def lookup(self, request: Request) -> float | None:
        source = request.source
        assert source is not None  # QUERY requests carry one
        if self._staleness is None:
            return None
        if self._staleness.cache.lookup(modeled_key(source)) is None:
            return None
        return self._hit_service_s

    def query(self, request: Request) -> float:
        source = request.source
        assert source is not None  # QUERY requests carry one
        service = self._service(request)
        if self._staleness is not None:
            self._staleness.cache.insert(
                modeled_key(source), None, self._staleness.graph.version
            )
        return service

    def apply(self, request: Request, flushing: bool) -> float:
        update = request.update
        assert update is not None  # UPDATE requests carry one
        service = self._service(request)
        if self._graph is not None:
            update = update.apply(self._graph)
        if self._staleness is not None:
            self._staleness.observe(update)
        return service

    def flushed(self, seconds: float) -> None:
        pass


#: ``on_answer(request, answer, cached_version)``: fired after every
#: served query; ``cached_version`` is the graph version a cache hit was
#: computed at, None for an answer computed now
AnswerHook = Callable[[Request, object, "int | None"], None]

#: a query executor over the live graph, ``(graph, source) -> answer``
QueryFn = Callable[[DynamicGraph, int], object]


class MeasuredExecutor:
    """Service time = measured wall time of the real algorithm.

    Queries look up the :class:`~repro.cache.store.PPRCache` before computing
    (a hit costs the measured lookup) and insert after; the cache holds
    an answer's nonzero entries (:class:`~repro.ppr.base.CompactPPRVector`)
    and a hit expands them back into the dense vector, inside the
    measured lookup, before ``on_answer`` sees it; with a cache,
    updates go through a :class:`~repro.cache.staleness.ChargingApplier`
    over ``algorithm.graph`` at ``algorithm.params.alpha``, so each one
    is charged against the degrees it actually saw.  Durations land on
    the ``service.*`` histograms:
    ``service.update`` for an update served on its own, one
    ``service.flush`` total per flush.  ``query_fn`` replaces
    ``algorithm.query`` (the exact mode of the equivalence oracle); its
    answers are opaque to the cache, which then charges them the
    degree-only staleness bound, and are cached as they are.
    """

    def __init__(
        self,
        algorithm: DynamicPPRAlgorithm,
        metrics: MetricsRegistry,
        on_answer: AnswerHook,
        cache: PPRCache | None = None,
        query_fn: QueryFn | None = None,
    ) -> None:
        self._algorithm = algorithm
        self._metrics = metrics
        self._cache = cache
        self._applier: SupportsApplyUpdate = (
            ChargingApplier(
                algorithm,
                StalenessTracker(
                    cache, algorithm.graph, algorithm.params.alpha
                ),
            )
            if cache is not None
            else algorithm
        )
        self._on_answer = on_answer
        self._query_fn = query_fn

    def _key(self, source: int) -> CacheKey:
        """Cache identity of a query at the current configuration."""
        return make_key(
            source,
            self._algorithm.name,
            self._algorithm.get_hyperparameters(),
        )

    def lookup(self, request: Request) -> float | None:
        if self._cache is None:
            return None
        source = request.source
        assert source is not None  # QUERY requests carry one
        key = self._key(source)
        started = perf_counter()
        entry = self._cache.lookup(key)
        if entry is None:
            return None
        answer = entry.value
        if self._query_fn is None:
            answer = cast("CompactPPRVector", answer).expand()
        elapsed = perf_counter() - started
        self._metrics.histogram("service.query_hit").observe(elapsed)
        self._on_answer(request, answer, entry.version)
        return elapsed

    def query(self, request: Request) -> float:
        source = request.source
        assert source is not None  # QUERY requests carry one
        started = perf_counter()
        answer: object
        estimate: PPRVector | None = None
        if self._query_fn is None:
            answer = estimate = self._algorithm.query(source)
        else:
            answer = self._query_fn(self._algorithm.graph, source)
        elapsed = perf_counter() - started
        self._metrics.histogram("service.query").observe(elapsed)
        if self._cache is not None:
            kept: object = answer
            pi_estimate: PiEstimate | None = None
            if estimate is not None:
                compact = estimate.compact()
                kept, pi_estimate = compact, compact.get
            self._cache.insert(
                self._key(source),
                kept,
                self._algorithm.graph.version,
                pi_estimate=pi_estimate,
            )
        self._on_answer(request, answer, None)
        return elapsed

    def apply(self, request: Request, flushing: bool) -> float:
        update = request.update
        assert update is not None  # UPDATE requests carry one
        started = perf_counter()
        self._applier.apply_update(update)
        elapsed = perf_counter() - started
        if not flushing:
            self._metrics.histogram("service.update").observe(elapsed)
        return elapsed

    def flushed(self, seconds: float) -> None:
        self._metrics.histogram("service.flush").observe(seconds)


# ----------------------------------------------------------------------
# the loop
# ----------------------------------------------------------------------
#: called once per arrival, before anything is scheduled for it; returns
#: the seconds of out-of-band work (a reconfiguration) the earliest-free
#: server must absorb first
ArrivalHook = Callable[[Request], float]


def apply_head(
    executor: Executor, pending: SeedQueue, flushing: bool
) -> tuple[Request, float]:
    """Run the oldest deferred update; returns it with its service time.

    Apply, then pop: a raising apply leaves the head queued, for the
    caller to discard.  Forced flushes, idle drains and the closing
    flush all go through here.
    """
    head = pending.peek()
    assert head is not None  # callers checked len(pending)
    request = Request(head.arrival, UPDATE, update=head.update)
    service = executor.apply(request, flushing)
    pending.discard_one()
    return request, service


def serve_request(
    request: Request,
    executor: Executor,
    pending: SeedQueue | None,
    flush: Callable[[], None],
    arrival: float,
) -> float | None:
    """Algorithm 2's branch for one request: its service time, or None
    when the update was deferred.

    ``pending`` is the Seed queue, or None for strict FCFS.  An update
    is deferred into it at ``arrival``, at no server cost, or without
    one applied inline.  A query is answered from the cache when it can
    be; a hit skips the flush check, because the ``epsilon_c`` budget
    covers every applied update and deferred ones are invisible to a
    fresh recompute too.  Otherwise, when the Lemma 2 bound for its
    source exceeds the budget, ``flush()`` first runs every deferred
    update, and then the query runs.
    """
    if request.kind == UPDATE:
        if pending is None:
            return executor.apply(request, flushing=False)
        update = request.update
        assert update is not None  # UPDATE requests carry one
        pending.add(update, arrival)
        return None
    hit = executor.lookup(request)
    if hit is not None:
        return hit
    source = request.source
    assert source is not None  # QUERY requests carry one
    if pending is not None and len(pending) and pending.should_flush(source):
        flush()
    return executor.query(request)


def replay(
    workload: Workload | Iterable[Request],
    executor: Executor,
    seed_queue: SeedQueue | None = None,
    servers: int = 1,
    t_end: float | None = None,
    on_arrival: ArrivalHook | None = None,
) -> SimulationResult:
    """Replay ``workload`` on ``servers`` virtual FCFS servers.

    ``t_end`` overrides the workload window; a raw iterable has none,
    so its horizon is resolved from the last arrival and completion —
    the last *arrival* alone would under-span the replay (service
    extends past it) and inflate the load metrics above 1 for an
    underloaded system.
    """
    if servers < 1:
        raise ValueError("servers must be >= 1")
    if isinstance(workload, Workload):
        requests = workload.requests
        horizon = workload.t_end if t_end is None else t_end
    else:
        requests = sorted(workload, key=lambda r: r.arrival)
        horizon = t_end
    # at epsilon_r = 0 nothing is ever deferred: same as having no queue
    pending = (
        seed_queue
        if seed_queue is not None and seed_queue.epsilon_r > 0.0
        else None
    )
    completed: list[CompletedRequest] = []
    free_at = [0.0] * servers  # min-heap of per-server next-free times

    def occupy(request: Request, start: float, service: float) -> float:
        finish = start + service
        completed.append(CompletedRequest(request, start, finish, service))
        return finish

    def run_head(clock: float, flushing: bool) -> float:
        """Run the oldest deferred update from ``clock``; returns its end."""
        assert pending is not None
        request, service = apply_head(executor, pending, flushing)
        return occupy(request, max(clock, request.arrival), service)

    def flush_all(clock: float) -> float:
        """Run every deferred update back to back; returns the end."""
        assert pending is not None
        begun = clock
        while len(pending):
            clock = run_head(clock, flushing=True)
        executor.flushed(clock - begun)
        return clock

    start = 0.0

    def flush() -> None:
        # the deferred updates occupy this query's server first, then
        # the query runs
        nonlocal start
        start = flush_all(start)

    for request in requests:
        if on_arrival is not None:
            charged = on_arrival(request)
            if charged > 0.0:
                heapq.heapreplace(
                    free_at, max(request.arrival, free_at[0]) + charged
                )
        if pending is not None:
            # deferral should steal time from queries only under
            # contention (Lemma 3's regime): servers idle before this
            # arrival work the queue off first
            while len(pending) and free_at[0] < request.arrival:
                heapq.heapreplace(
                    free_at, run_head(free_at[0], flushing=False)
                )
        start = max(request.arrival, free_at[0])
        service = serve_request(
            request, executor, pending, flush, request.arrival
        )
        if service is not None:
            heapq.heapreplace(free_at, occupy(request, start, service))

    if pending is not None and len(pending):
        flush_all(
            max(free_at[0], max(item.arrival for item in pending.pending))
        )

    completed.sort(key=lambda c: (c.start, c.arrival))
    if horizon is None:
        last_arrival = requests[-1].arrival if requests else 0.0
        last_finish = max((c.finish for c in completed), default=0.0)
        horizon = max(last_arrival, last_finish)
    return SimulationResult(completed, horizon)

