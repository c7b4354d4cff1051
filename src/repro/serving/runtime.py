"""ServingRuntime: one thread per shard serving PPR queries and edge updates.

Where :func:`repro.queueing.replay.replay` schedules Algorithm 2 on a
virtual clock, this runtime runs the same decision on the wall clock.
One thread owns the graph, the index, the result cache, the Seed queue
and the bounded admission queue, and serves requests in FCFS order.
Each request goes through
:func:`~repro.queueing.replay.serve_request` with a
:class:`~repro.queueing.replay.MeasuredExecutor` (the pair
:class:`~repro.core.system.QuotaSystem` replays with), and every
deferred update through :func:`~repro.queueing.replay.apply_head`.
What is left here is what only a wall clock has:

* **One loop, one reader.**  :meth:`run` serves on the caller's
  thread, reading requests from a *source*: before each admission
  poll, and between two idle-drain steps, the loop asks the source
  for every command it has ready, and waits on it (up to the idle
  tick) when there is no work.  A shard worker's source is its command
  pipe, so the one thread reads commands, serves them and writes the
  replies.  :meth:`start` runs the same loop on a thread of its own
  whose source is an *inbox* (one :class:`queue.SimpleQueue`): other
  threads post submissions and controls to it (the scenario fuzzer,
  the stress tests, the direct-call probe), and the loop reads it at
  the same two points.  No loop holds a lock: only the loop's thread
  touches the admission queue, the Seed queue and the cache.
* **Snapshot isolation by construction.**  Every graph mutation
  (an update, a Seed flush, new hyperparameters) and every kernel call
  runs on the loop's thread, so no query overlaps a write, and the
  graph version read right after a query names the snapshot it ran on.
  :meth:`reconfigure` runs Quota's whole online step there,
  :func:`~repro.core.quota.retune` (the solve, then the apply when
  beta moved), as ``QuotaSystem`` runs it between two arrivals.
  :meth:`reconfigure` and :meth:`drain` called from another thread
  post their work to the inbox; the loop runs it when it reads it,
  after the request in flight and ahead of the queued ones (a drain's
  flush waits until the admission queue is empty).  On the loop's own
  thread, and before :meth:`start` and after :meth:`stop`, the work
  runs inline.
* **Idle drain.**  While the admission queue is empty the loop
  applies deferred updates one at a time, re-reading its source
  between any two, as ``replay`` does when a server idles before the
  next arrival.
* **Backpressure and deadlines.**  Admission is bounded: a query read
  when ``queue_capacity`` requests already wait is shed (counted in
  ``serving.shed``; the queue's depth is the ``serving.queue_depth``
  gauge), and a query popped after its deadline budget expired is
  dropped with a ``serving.timeout`` count instead of computing an
  answer nobody is waiting for.  Updates are never shed or
  deadline-dropped — they are state, not answers.  A query whose
  source the graph does not hold at the version it would run on ends
  as a ``bad-request`` record, not a fault.
* **Graceful degradation.**  An update that raises is surfaced as a
  ``failed`` record (and the ``serving.faults`` counter) and discarded
  from the Seed queue with the degree overlay kept consistent.  The
  runtime then falls back to strict FCFS: what is still deferred is
  applied at once, and later updates apply inline.

On CPython the unit of parallelism is the process fleet
(:mod:`repro.shard`), one runtime per shard process; ``replay`` models
k > 1 servers where a what-if needs them.
"""

from __future__ import annotations

import queue
import threading
import time
import traceback
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, TypeVar, cast

from repro.cache.store import PPRCache
from repro.core.seed import SeedQueue
from repro.obs.metrics import MetricsRegistry, get_metrics
from repro.ppr.base import DynamicPPRAlgorithm
from repro.ppr.csr import UnknownNodeError
from repro.queueing.kinds import QUERY, UPDATE
from repro.queueing.replay import (
    MeasuredExecutor,
    QueryFn,
    apply_head,
    serve_request,
)
from repro.queueing.workload import Request, Workload

if TYPE_CHECKING:
    # a worker started without --quota never loads the Quota stack
    from repro.core.quota import QuotaController, QuotaDecision

#: request completed normally
OK = "ok"
#: rejected at admission (bounded queue full)
SHED = "shed"
#: dropped after its deadline budget expired while queued
TIMEOUT = "timeout"
#: execution raised; the error is carried on the record
FAILED = "failed"
#: the query's source is not a node of the graph it would run on (a
#: client error, not a fault); the error names the node
BAD_REQUEST = "bad-request"

#: shed because the bounded admission queue was full when it was read
SHED_QUEUE_FULL = "queue-full"
#: shed because the request's deadline budget expired before execution
SHED_DEADLINE = "deadline"

_T = TypeVar("_T")

#: where a loop reads requests from: ``take(timeout_s)`` submits every
#: command that is ready, waiting up to ``timeout_s`` for the first, and
#: returns False once the source is closed
Source = Callable[[float], bool]


@dataclass(frozen=True, slots=True)
class Ticket:
    """One submitted request plus its wall-clock admission metadata.

    ``submitted_s`` and ``deadline_s`` are :func:`time.perf_counter`
    readings (absolute, monotonic), taken by the submitting thread;
    ``deadline_s`` is None when the request carries no deadline budget.
    """

    request: Request
    submitted_s: float
    deadline_s: float | None = None

    def expired(self, now_s: float | None = None) -> bool:
        if self.deadline_s is None:
            return False
        return (time.perf_counter() if now_s is None else now_s) > self.deadline_s


@dataclass(frozen=True, slots=True)
class _Control:
    """Work another thread posts to a started loop, and its reply box."""

    fn: Callable[[], object]
    reply: queue.SimpleQueue[tuple[bool, Any]]
    #: run once the admission queue is empty (a drain), not when read
    when_idle: bool = False

    def run(self) -> None:
        try:
            self.reply.put((True, self.fn()))
        except Exception as exc:
            self.reply.put((False, exc))


@dataclass(slots=True)
class ServedRequest:
    """Outcome of one submitted request (wall-clock timings)."""

    request: Request
    status: str
    submitted_s: float
    started_s: float
    finished_s: float
    result: object | None = None
    #: graph version the operation observed/produced (-1 when shed);
    #: for cache hits, the version the cached result was *computed* at
    version: int = -1
    error: str | None = None
    shed_reason: str | None = None
    #: True when the result was served from the PPR result cache
    cached: bool = False

    @property
    def kind(self) -> str:
        return self.request.kind

    @property
    def response_s(self) -> float:
        return max(self.finished_s - self.submitted_s, 0.0)


@dataclass(slots=True)
class ServingReport:
    """Aggregate of one :meth:`ServingRuntime.serve` replay."""

    records: list[ServedRequest]
    wall_s: float
    degraded: bool

    def of_status(self, status: str) -> list[ServedRequest]:
        return [r for r in self.records if r.status == status]

    def completed_queries(self) -> list[ServedRequest]:
        return [
            r for r in self.records if r.kind == QUERY and r.status == OK
        ]

    def cache_hit_rate(self) -> float:
        """Fraction of completed queries served from cache."""
        queries = self.completed_queries()
        if not queries:
            return 0.0
        return sum(1 for r in queries if r.cached) / len(queries)

    @property
    def shed_count(self) -> int:
        return len(self.of_status(SHED))

    @property
    def timeout_count(self) -> int:
        return len(self.of_status(TIMEOUT))

    @property
    def fault_count(self) -> int:
        return len(self.of_status(FAILED))

    def query_throughput(self) -> float:
        """Completed queries per wall-clock second."""
        if self.wall_s <= 0:
            return 0.0
        return len(self.completed_queries()) / self.wall_s

    def mean_query_response_s(self) -> float:
        responses = [r.response_s for r in self.completed_queries()]
        return sum(responses) / len(responses) if responses else 0.0


class ServingRuntime:
    """One thread serving PPR queries and edge updates in FCFS order.

    Parameters
    ----------
    algorithm:
        The PPR algorithm instance (owns the graph); only the runtime
        thread calls it once the runtime is started.
    workers:
        Accepted for compatibility and must be 1: the runtime is
        single-threaded, and a fleet scales out by shards.
    epsilon_r:
        Seed reorder budget; 0 keeps strict FCFS (updates apply
        inline, in admission order).
    queue_capacity:
        Admission-queue bound; a query read when this many requests
        wait is shed.  0 means unbounded (no shedding — test use only).
    deadline_s:
        Default per-query deadline budget in seconds (None = none).
        A query still waiting past its budget is dropped.
    controller:
        Optional :class:`~repro.core.quota.QuotaController`;
        :meth:`reconfigure` applies its decisions to the live runtime.
    query_fn:
        Query executor ``(graph, source) -> result`` used instead of
        ``algorithm.query`` (the exact mode of the equivalence oracle).
    idle_tick_s:
        How long the idle loop waits on its source once nothing is
        deferred.
    cache:
        Optional :class:`~repro.cache.store.PPRCache`.  Queries look up
        before computing (a hit skips the Seed flush check) and insert
        after; every applied update charges the staleness tracker
        before the next request runs.
    on_complete:
        Optional completion sink, called once per
        :class:`ServedRequest` — every terminal outcome (ok, shed,
        timeout, failed) of every submitted request, plus
        deferred-update applications.  A runtime has exactly one sink:
        with ``on_complete`` the records go to the caller and *only*
        there (:attr:`records` stays empty and ``serve`` reports carry
        no records — a long-running server must not retain every
        result vector it ever produced); without it they accumulate in
        :attr:`records`.  It runs on the loop's thread (a shed too: the
        loop decides it when it reads the submission); the next
        request waits for it.  The shard worker (:mod:`repro.shard.worker`)
        writes each reply to its pipe from it.  Exceptions are
        swallowed (a broken observer must not take down a worker).
    metrics:
        Observability registry (defaults to the process-wide one).
    """

    def __init__(
        self,
        algorithm: DynamicPPRAlgorithm,
        *,
        workers: int = 1,
        epsilon_r: float = 0.0,
        queue_capacity: int = 256,
        deadline_s: float | None = None,
        controller: QuotaController | None = None,
        query_fn: QueryFn | None = None,
        idle_tick_s: float = 0.02,
        cache: PPRCache | None = None,
        on_complete: Callable[[ServedRequest], None] | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if workers != 1:
            raise ValueError(
                f"workers={workers}: the serving runtime is single-threaded "
                "(one thread per shard); scale out with shards"
            )
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError("deadline_s must be positive")
        if queue_capacity < 0:
            raise ValueError("queue_capacity must be >= 0")
        self.algorithm = algorithm
        self.epsilon_r = epsilon_r
        self.deadline_s = deadline_s
        self.queue_capacity = queue_capacity
        self.controller = controller
        self.idle_tick_s = idle_tick_s
        self.metrics = metrics if metrics is not None else get_metrics()
        self.records: list[ServedRequest] = []

        self._on_complete = on_complete
        self._seed_queue = SeedQueue(
            algorithm.graph, algorithm.params.alpha, epsilon_r
        )
        self._executor = MeasuredExecutor(
            algorithm,
            self.metrics,
            self._on_answer,
            cache=cache,
            query_fn=query_fn,
        )
        #: the last query's (answer, cached_version), from the executor
        self._answer: tuple[object, int | None] = (None, None)
        #: admitted tickets in FCFS order; only the loop's thread
        #: touches it, so it needs no lock
        self._queue: deque[Ticket] = deque()
        self._depth = self.metrics.gauge("serving.queue_depth")
        self._shed = self.metrics.counter("serving.shed")
        #: a started loop's source: what other threads post to it (None
        #: only wakes it)
        self._inbox: queue.SimpleQueue[Ticket | _Control | None] = (
            queue.SimpleQueue()
        )
        #: True while the loop runs on :meth:`start`'s thread
        self._reads_inbox = False
        #: drains read while requests still waited
        self._drains: list[_Control] = []
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._degraded = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._thread is not None and not self._stop.is_set()

    @property
    def degraded(self) -> bool:
        """True once a fault forced the fallback to strict FCFS."""
        return self._degraded

    def start(self) -> "ServingRuntime":
        """Run the loop on a thread of its own, reading the inbox that
        :meth:`submit`, :meth:`reconfigure`, :meth:`drain` and
        :meth:`stop` post to from other threads."""
        thread = self._claim(
            threading.Thread(
                target=self._serve_inbox,
                name="serving-runtime",
                daemon=True,
            )
        )
        self._reads_inbox = True
        thread.start()
        return self

    def run(self, take: Source) -> None:
        """Serve on the calling thread until ``take`` closes.

        ``take(timeout_s)`` is the loop's source (:data:`Source`): it
        hands every ready command to the caller's handler, which
        submits requests and answers control commands on this thread.
        Once it reports the source closed, the loop serves what is
        already admitted, applies every deferred update and returns —
        what :meth:`stop` does for a started runtime.  A :meth:`stop`
        from another thread ends it at once instead; every other call
        must come from this thread.
        """
        self._claim(threading.current_thread())
        try:
            self._loop(take)
        finally:
            self._thread = None

    def _claim(self, thread: threading.Thread) -> threading.Thread:
        if self._thread is not None:
            raise RuntimeError("runtime already started")
        self._stop.clear()
        self._thread = thread
        return thread

    def stop(self, timeout_s: float = 30.0, flush: bool = True) -> None:
        """Stop the loop; optionally apply still-deferred updates.

        Call it from a thread other than the loop's, not alongside
        another thread's :meth:`drain` or :meth:`reconfigure`.
        """
        if flush:
            self.drain()
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        if self._reads_inbox:
            self._inbox.put(None)  # wake the loop now
        thread.join(timeout_s)
        if thread.is_alive():
            raise RuntimeError(f"{thread.name} failed to stop in {timeout_s}s")
        self._thread = None
        self._reads_inbox = False

    def __enter__(self) -> "ServingRuntime":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(
        self, request: Request, deadline_s: float | None = None
    ) -> bool:
        """Submit one request; False when a query is shed at the
        admission queue (an update is always admitted).

        ``deadline_s`` overrides the runtime default budget for this
        request (queries only; updates never carry deadlines).  The
        request's wait starts now: a host loop calls this when it reads
        the command.  On the loop's own thread the request is admitted
        at once; from another thread it is posted to the inbox and this
        returns True, and the loop decides a shed (and records it) when
        it reads the submission.
        """
        if self._thread is None:
            raise RuntimeError("runtime is not started")
        now = time.perf_counter()
        budget = deadline_s if deadline_s is not None else self.deadline_s
        deadline = (
            now + budget
            if budget is not None and request.kind == QUERY
            else None
        )
        ticket = Ticket(request, now, deadline)
        if threading.current_thread() is self._thread:
            return self._admit(ticket)
        self._post(ticket)
        return True

    def drain(self) -> None:
        """Block until every request posted before this call has its
        terminal record, then flush the still-deferred updates."""
        self._call(self._flush, when_idle=True)

    # ------------------------------------------------------------------
    # convenience replay
    # ------------------------------------------------------------------
    def serve(self, workload: Workload | list[Request]) -> ServingReport:
        """Feed ``workload`` through the runtime as fast as it admits.

        Closed-loop replay (arrival times are ignored): measures the
        saturation throughput and per-request latencies of the real
        execution.  Returns a report over the records this call added.
        """
        return self._submit_all(workload, None, None)

    def serve_timed(
        self,
        workload: Workload | list[Request],
        time_scale: float = 1.0,
        on_submit: Callable[[Request, float], None] | None = None,
    ) -> ServingReport:
        """Feed ``workload`` at its recorded arrival times (open loop).

        Where :meth:`serve` saturates the runtime (arrival times
        ignored), this replay sleeps until each request's arrival —
        scaled by ``time_scale`` wall seconds per virtual second — so
        shed rate, deadline misses, and queue depth reflect the
        workload's *rate structure* rather than the submission loop's
        speed.  This is the replay mode the scenario fuzzer uses: a
        flash crowd only stresses admission if the spike actually
        arrives as a spike.

        ``on_submit(request, now_s)`` fires after each submission with
        the wall-clock submission time — the hook the drift-detector
        loop uses to monitor empirical rates and trigger
        :meth:`reconfigure` mid-replay.
        """
        if time_scale <= 0:
            raise ValueError("time_scale must be positive")
        requests = (
            workload.requests
            if isinstance(workload, Workload)
            else sorted(workload, key=lambda r: r.arrival)
        )
        return self._submit_all(requests, time_scale, on_submit)

    def _submit_all(
        self,
        requests: Workload | list[Request],
        time_scale: float | None,
        on_submit: Callable[[Request, float], None] | None,
    ) -> ServingReport:
        """Submit in order — paced by arrival when ``time_scale`` is
        set — then drain and report."""
        first_record = len(self.records)
        started = time.perf_counter()
        for request in requests:
            if time_scale is not None:
                due = started + request.arrival * time_scale
                while True:
                    remaining = due - time.perf_counter()
                    if remaining <= 0:
                        break
                    time.sleep(min(remaining, 0.05))
            self.submit(request)
            if on_submit is not None:
                on_submit(request, time.perf_counter() - started)
        self.drain()
        return ServingReport(
            records=self.records[first_record:],
            wall_s=time.perf_counter() - started,
            degraded=self._degraded,
        )

    # ------------------------------------------------------------------
    # live reconfiguration (Quota -> runtime)
    # ------------------------------------------------------------------
    def reconfigure(
        self, lambda_q: float, lambda_u: float
    ) -> QuotaDecision | None:
        """Solve for beta at the given rates and apply it live.

        Runs :func:`~repro.core.quota.retune` — the step
        ``QuotaSystem`` takes on its virtual clock — on the loop's
        thread between two requests: the solve and, when
        :func:`~repro.core.quota.beta_moved` calls the new beta moved,
        its apply (an index rebuild for index-based algorithms).
        """
        controller = self.controller
        if controller is None:
            return None
        # only a runtime with a controller loads the Quota stack
        from repro.core.quota import retune

        decision, _ = self._call(
            lambda: retune(
                controller, self.algorithm, lambda_q, lambda_u, self.metrics
            )
        )
        return decision

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def pending_updates(self) -> int:
        return len(self._seed_queue)

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    # ------------------------------------------------------------------
    # the loop
    # ------------------------------------------------------------------
    def _call(self, fn: Callable[[], _T], when_idle: bool = False) -> _T:
        """Run ``fn`` on the loop's thread and return its result.

        Inline when no loop runs, or when called from the loop's own
        thread (a host's command handler or a completion sink).  From
        another thread it is posted to the inbox; ``when_idle`` holds it
        until the admission queue is empty.
        """
        if self._thread is None or threading.current_thread() is self._thread:
            return fn()
        reply: queue.SimpleQueue[tuple[bool, Any]] = queue.SimpleQueue()
        self._post(_Control(fn, reply, when_idle))
        ok, value = reply.get()
        if not ok:
            raise value
        return cast(_T, value)

    def _post(self, item: Ticket | _Control) -> None:
        if not self._reads_inbox:
            raise RuntimeError(
                "a runtime served by run() takes calls on its own thread"
            )
        self._inbox.put(item)

    def _read_inbox(self, timeout_s: float) -> bool:
        """Source of a started runtime: admit every posted submission and
        run every posted control, waiting up to ``timeout_s`` for the
        first; the inbox never closes (:meth:`stop` ends the loop)."""
        try:
            item = self._inbox.get(timeout_s > 0, timeout_s)
            while True:
                if isinstance(item, Ticket):
                    self._admit(item)
                elif item is not None:
                    if item.when_idle and self._queue:
                        self._drains.append(item)
                    else:
                        item.run()
                item = self._inbox.get_nowait()
        except queue.Empty:
            return True

    def _serve_inbox(self) -> None:
        """The body of :meth:`start`'s thread."""
        self._loop(self._read_inbox)
        self._read_inbox(0.0)  # answer what was posted while it stopped
        self._run_drains()

    def _run_drains(self) -> None:
        for drain in self._drains:
            drain.run()
        self._drains.clear()

    def _admit(self, ticket: Ticket) -> bool:
        """Queue ``ticket``; a query that finds ``queue_capacity``
        requests waiting is shed instead (an update is always admitted)."""
        if ticket.request.kind == QUERY and (
            0 < self.queue_capacity <= len(self._queue)
        ):
            self._shed.inc()
            now = time.perf_counter()
            self._finish(ticket, SHED, now, now, shed_reason=SHED_QUEUE_FULL)
            return False
        self._queue.append(ticket)
        self._depth.set(len(self._queue))
        return True

    def _loop(self, take: Source) -> None:
        open_ = True
        while not self._stop.is_set():
            open_ = open_ and take(0.0)
            if not self._queue:
                if self._drains:
                    self._run_drains()
                    continue
                # idle: work the deferred updates off first (Algorithm
                # 2, as replay() does), reading the source between any
                # two so an arrival never waits for more than one
                if self._idle_drain():
                    continue
                if not open_:
                    break  # closed, served and flushed
                open_ = take(self.idle_tick_s)
                continue
            ticket = self._queue.popleft()
            self._depth.set(len(self._queue))
            try:
                self._process(ticket)
            except Exception:  # pragma: no cover - defensive; never die
                now = time.perf_counter()
                error = traceback.format_exc(limit=3)
                self._finish(ticket, FAILED, now, now, error=error)
                self.metrics.counter("serving.faults").inc()

    def _process(self, ticket: Ticket) -> None:
        """One admitted request through ``serve_request``."""
        now = time.perf_counter()
        if ticket.expired(now):
            self.metrics.counter("serving.timeout").inc()
            self._finish(
                ticket, TIMEOUT, now, now, shed_reason=SHED_DEADLINE
            )
            return
        request = ticket.request
        pending = (
            None
            if self._degraded or self.epsilon_r == 0.0
            else self._seed_queue
        )
        self._answer = (None, None)
        try:
            service = serve_request(
                request, self._executor, pending, self._flush,
                ticket.submitted_s,
            )
        except Exception as exc:
            now = time.perf_counter()
            if request.kind == UPDATE:
                self._fault(request, ticket.submitted_s, exc)
            elif isinstance(exc, UnknownNodeError):
                self._finish(ticket, BAD_REQUEST, now, now, error=str(exc))
            else:
                self.metrics.counter("serving.faults").inc()
                self._finish(ticket, FAILED, now, now, error=repr(exc))
            return
        if service is None:
            return  # deferred: recorded when it is applied
        finished = time.perf_counter()
        answer, cached_version = self._answer
        self._finish(
            ticket,
            OK,
            finished - service,
            finished,
            version=(
                self.algorithm.graph.version
                if cached_version is None
                else cached_version
            ),
            result=answer,
            cached=cached_version is not None,
        )

    def _on_answer(
        self, request: Request, answer: object, cached_version: int | None
    ) -> None:
        self._answer = (answer, cached_version)

    # -- deferred updates ---------------------------------------------
    def _apply_head(self, flushing: bool) -> bool:
        """Apply the oldest deferred update and record it; False when it
        raised — it is then discarded and the runtime degraded."""
        try:
            request, service = apply_head(
                self._executor, self._seed_queue, flushing
            )
        except Exception as exc:
            failed = self._seed_queue.discard_one()
            assert failed is not None
            self._fault(
                Request(failed.arrival, UPDATE, update=failed.update),
                failed.arrival,
                exc,
            )
            return False
        finished = time.perf_counter()
        self._record(
            ServedRequest(
                request,
                OK,
                request.arrival,
                finished - service,
                finished,
                version=self.algorithm.graph.version,
            )
        )
        return True

    def _flush(self) -> None:
        """Apply every deferred update back to back."""
        started = time.perf_counter()
        applied = 0
        while len(self._seed_queue):
            applied += self._apply_head(flushing=True)
        if applied:
            self._executor.flushed(time.perf_counter() - started)

    def _idle_drain(self) -> bool:
        """Apply one deferred update while the admission queue idles;
        False when none is deferred."""
        if not len(self._seed_queue):
            return False
        if not self._apply_head(flushing=False):
            # strict FCFS from here on: nothing may stay deferred
            self._flush()
        return True

    # -- records -------------------------------------------------------
    def _record(self, record: ServedRequest) -> None:
        """Hand ``record`` to the one completion sink (class docstring)."""
        if self._on_complete is None:
            self.records.append(record)
            return
        try:
            self._on_complete(record)
        except Exception:  # pragma: no cover - observer must not kill us
            pass

    def _finish(
        self,
        ticket: Ticket,
        status: str,
        started: float,
        finished: float,
        *,
        version: int = -1,
        result: object | None = None,
        cached: bool = False,
        error: str | None = None,
        shed_reason: str | None = None,
    ) -> None:
        """Record ``ticket``'s terminal outcome — the one place a
        submitted request ends; an OK one also observes its wait (a
        query: and response) time."""
        if status == OK:
            self.metrics.histogram("serving.wait").observe(
                started - ticket.submitted_s
            )
            if ticket.request.kind == QUERY:
                self.metrics.histogram("serving.response").observe(
                    finished - ticket.submitted_s
                )
        self._record(
            ServedRequest(
                ticket.request,
                status,
                ticket.submitted_s,
                started,
                finished,
                result=result,
                version=version,
                error=error,
                shed_reason=shed_reason,
                cached=cached,
            )
        )

    def _fault(
        self, request: Request, submitted_s: float, exc: Exception
    ) -> None:
        """Record a failed update and degrade to strict FCFS."""
        now = time.perf_counter()
        self.metrics.counter("serving.faults").inc()
        self._degraded = True
        self._record(
            ServedRequest(
                request, FAILED, submitted_s, now, now, error=repr(exc)
            )
        )
