"""ServingRuntime: concurrent query/update execution with QoS controls.

Where :class:`~repro.core.system.QuotaSystem` *models* serving on a
virtual clock in one thread, this runtime *executes* it: a pool of
worker threads serves SSPPR queries over snapshot-isolated CSR views
while edge updates funnel through a single logical writer that patches
the incremental CSR delta log (:mod:`repro.ppr.csr`).

Concurrency discipline
----------------------
* **Snapshot isolation (epoch granularity).**  All graph mutation —
  applying an update, flushing the Seed queue, rebuilding an index on
  reconfiguration — happens under the exclusive side of a
  write-preferring :class:`~repro.serving.rwlock.RWLock`; immediately
  after mutating, and still under the lock, the writer catches the CSR
  store up (``csr_view``).  Query workers hold the shared side, so
  every ``csr_view`` call they make is a pure cache hit on an
  immutable-for-the-duration snapshot: no torn adjacency reads, and
  the graph version observed under the read lock uniquely identifies
  the snapshot a query ran against (the equivalence-oracle hook the
  stress tests use).
* **Seed-aware dispatch.**  With ``epsilon_r > 0`` updates are
  deferred into a :class:`~repro.core.seed.SeedQueue` at admission
  cost only; queries overtake them until the Lemma 2 bound for their
  source exceeds the budget, at which point the dispatching worker
  becomes the writer and flushes.  Idle workers work the deferred
  updates off back to back whenever the admission queue is empty, as
  :func:`repro.queueing.replay.replay` does on the virtual clock.
* **Result caching** (optional).  With a
  :class:`~repro.cache.PPRCache` attached, queries try the cache
  before taking the read lock and insert their result while still
  holding it; every writer critical section charges the cache's
  staleness tracker immediately after mutating, so served-from-cache
  answers provably stay within the ``epsilon_c`` budget of a fresh
  recompute (see docs/DEVELOPMENT.md, "The result cache").
* **Backpressure and deadlines.**  Admission is bounded
  (:class:`~repro.serving.admission.AdmissionQueue`); submission sheds
  when the queue is full, and a query popped after its deadline budget
  expired is dropped with a ``serving.timeout`` count instead of
  wasting a worker on an answer nobody is waiting for.  Updates are
  never deadline-dropped — they are state, not answers — and a caller
  that must not lose one (the shard worker) submits with ``wait_s`` so
  a full queue blocks it instead of shedding.
* **Graceful degradation.**  If an update application fails the
  failing update is surfaced as a ``failed`` record (and the
  ``serving.faults`` counter), discarded from the Seed queue with the
  degree overlay kept consistent, and the runtime falls back to strict
  FCFS (no further reordering) — correctness of what remains beats
  optimizing a queue whose invariants just proved shaky.

The GIL caveat, stated honestly: CPython threads interleave rather
than parallelize pure-Python bytecode, so measured speedups from
``workers > 1`` come only from the numpy-released portions of query
work.  The architecture (snapshot views + single writer) is what a
free-threaded or multi-process deployment needs either way, and the
runtime reports measured numbers — it never presents an interleaved
timeline as parallel (that is the simulator's
:class:`~repro.queueing.simulator.MeasuredParallelWarning` contract).
"""

from __future__ import annotations

import threading
import time
import traceback
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.cache import CacheKey, PPRCache, StalenessTracker, make_key
from repro.core.quota import QuotaController, QuotaDecision
from repro.core.seed import SeedQueue
from repro.graph.digraph import DynamicGraph
from repro.graph.updates import EdgeUpdate
from repro.obs import MetricsRegistry, get_metrics
from repro.ppr.base import DynamicPPRAlgorithm, PPRVector
from repro.ppr.csr import csr_view
from repro.queueing.workload import QUERY, UPDATE, Request, Workload
from repro.serving.admission import (
    SHED_DEADLINE,
    SHED_QUEUE_FULL,
    AdmissionQueue,
    Ticket,
)
from repro.serving.rwlock import RWLock, wrap_mutex

#: request completed normally
OK = "ok"
#: rejected at admission (bounded queue full)
SHED = "shed"
#: dropped after its deadline budget expired while queued
TIMEOUT = "timeout"
#: execution raised; the error is carried on the record
FAILED = "failed"

#: a query executor over the live graph — must be a pure function of
#: (graph snapshot, source) to be safely shared across workers
QueryFn = Callable[[DynamicGraph, int], object]


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
    worker: int = -1
    error: str | None = None
    shed_reason: str | None = None
    #: True when the result was served from the PPR result cache
    cached: bool = False

    @property
    def kind(self) -> str:
        return self.request.kind

    @property
    def waiting_s(self) -> float:
        return max(self.started_s - self.submitted_s, 0.0)

    @property
    def response_s(self) -> float:
        return max(self.finished_s - self.submitted_s, 0.0)


@dataclass(slots=True)
class ServingReport:
    """Aggregate of one :meth:`ServingRuntime.serve` replay."""

    records: list[ServedRequest]
    wall_s: float
    workers: int
    degraded: bool
    decisions: list[QuotaDecision] = field(default_factory=list)

    def of_status(self, status: str) -> list[ServedRequest]:
        return [r for r in self.records if r.status == status]

    def completed_queries(self) -> list[ServedRequest]:
        return [
            r for r in self.records if r.kind == QUERY and r.status == OK
        ]

    def cached_queries(self) -> list[ServedRequest]:
        """Completed queries answered from the result cache."""
        return [r for r in self.completed_queries() if r.cached]

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
    """A worker pool serving PPR queries and edge updates concurrently.

    Parameters
    ----------
    algorithm:
        The PPR algorithm instance (owns the graph; its
        ``apply_update`` is the single-writer mutation path).
    workers:
        Worker-thread count (k of the parallel-serving experiments).
    epsilon_r:
        Seed reorder budget; 0 keeps strict FCFS (updates apply
        inline, in admission order).
    queue_capacity:
        Admission-queue bound; submissions beyond it are shed.
    deadline_s:
        Default per-query deadline budget in seconds (None = none).
        A query still waiting past its budget is dropped.
    controller:
        Optional :class:`~repro.core.quota.QuotaController`;
        :meth:`reconfigure` applies its decisions to the live runtime
        under the write lock.
    query_fn:
        Pure query executor ``(graph, source) -> result`` shared by
        all workers.  When omitted, ``algorithm.query`` is used under
        an internal mutex — algorithm instances keep per-query scratch
        state (timers, RNG), so unguarded sharing would race; the
        mutex trades query overlap for safety on the default path.
    idle_tick_s:
        How long an idle worker blocks on the empty admission queue
        once nothing is deferred (also bounds stop latency).
    cache:
        Optional :class:`~repro.cache.PPRCache`.  Queries look up
        before computing (a hit skips the read lock and the Seed flush
        check entirely — its staleness budget already covers every
        *applied* update, and the not-yet-applied deferred ones are
        invisible to a fresh recompute too) and insert after computing,
        while still under the read lock so no writer can slip a charge
        between compute and insert.  Every write path — inline update,
        forced flush, idle drain — charges the tracker inside its
        writer critical section, so a query can never observe a
        mutated graph whose updates the cache was not yet charged for.
    on_complete:
        Optional completion sink, called once per
        :class:`ServedRequest` — every terminal outcome (ok, shed,
        timeout, failed) of every submitted request, plus
        deferred-update applications.  A runtime has exactly one sink:
        with ``on_complete`` the records go to the caller and *only*
        there (:attr:`records` stays empty and ``serve`` reports carry
        no records — a long-running server must not retain every
        result vector it ever produced); without it they accumulate in
        :attr:`records`.  The callback may run inside a writer critical
        section (the deferred-flush path), so it must be fast and must
        never block or take locks that can invert the runtime's order;
        the shard worker (:mod:`repro.shard.worker`) uses it to push
        completions onto an unbounded outbound queue.  Exceptions are
        swallowed (a broken observer must not take down a worker).
    metrics:
        Observability registry (defaults to the process-wide one).
    """

    def __init__(
        self,
        algorithm: DynamicPPRAlgorithm,
        *,
        workers: int = 2,
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
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError("deadline_s must be positive")
        self.algorithm = algorithm
        self.workers = workers
        self.epsilon_r = epsilon_r
        self.deadline_s = deadline_s
        self.controller = controller
        self.idle_tick_s = idle_tick_s
        self.metrics = metrics if metrics is not None else get_metrics()
        # pre-resolved instrument: _fault runs inside writer critical
        # sections, where a registry lookup is off-limits (R11); a
        # resolved counter's inc() is O(1) and allocation-free
        self._fault_counter = self.metrics.counter("serving.faults")
        self.decisions: list[QuotaDecision] = []
        self.records: list[ServedRequest] = []  # guarded-by: self._records_lock

        self._query_fn = query_fn
        self._on_complete = on_complete
        self._cache = cache
        self._staleness = (
            StalenessTracker(
                cache, algorithm.graph, algorithm.params.alpha
            )
            if cache is not None
            else None
        )
        # stable names feed the lock sanitizer's order graph (no-ops
        # unless REPRO_LOCK_SANITIZER=1); the established global order
        # is rwlock -> {seed, records, algo, cache}
        self._rwlock = RWLock(name="serving.rwlock")
        self._seed_lock = wrap_mutex(threading.Lock(), "serving.seed")
        self._records_lock = wrap_mutex(threading.Lock(), "serving.records")
        self._algo_lock = wrap_mutex(threading.Lock(), "serving.algo")
        self._admission = AdmissionQueue(queue_capacity, self.metrics)
        self._seed_queue = SeedQueue(
            algorithm.graph, algorithm.params.alpha, epsilon_r
        )
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self._degraded = False  # guarded-by: self._rwlock[write]

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return bool(self._threads) and not self._stop.is_set()

    @property
    def degraded(self) -> bool:
        """True once a fault forced the fallback to strict FCFS."""
        return self._degraded

    def start(self) -> "ServingRuntime":
        if self._threads:
            raise RuntimeError("runtime already started")
        self._stop.clear()
        # warm the CSR store so the first queries hit a ready snapshot
        with self._rwlock.write_locked():
            csr_view(self.algorithm.graph)
        for wid in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop,
                args=(wid,),
                name=f"serving-worker-{wid}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        return self

    def stop(self, timeout_s: float = 30.0, flush: bool = True) -> None:
        """Stop the pool; optionally apply still-deferred updates."""
        if flush:
            self.drain()
        self._stop.set()
        deadline = time.monotonic() + timeout_s
        for thread in self._threads:
            remaining = max(deadline - time.monotonic(), 0.0)
            thread.join(remaining)
            if thread.is_alive():
                raise RuntimeError(
                    f"worker {thread.name} failed to stop in {timeout_s}s"
                )
        self._threads.clear()

    def __enter__(self) -> "ServingRuntime":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(
        self,
        request: Request,
        deadline_s: float | None = None,
        wait_s: float = 0.0,
    ) -> bool:
        """Admit one request; False when shed at the admission queue.

        ``deadline_s`` overrides the runtime default budget for this
        request (queries only; updates never carry deadlines).
        ``wait_s`` bounds how long a full queue may block the caller
        before the request is shed (0 sheds at once).
        """
        if not self._threads:
            raise RuntimeError("runtime is not started")
        now = time.perf_counter()
        budget = deadline_s if deadline_s is not None else self.deadline_s
        deadline = (
            now + budget
            if budget is not None and request.kind == QUERY
            else None
        )
        ticket = Ticket(request, now, deadline)
        if self._admission.offer(ticket, wait_s):
            return True
        self._finish(ticket, -1, SHED, now, now, shed_reason=SHED_QUEUE_FULL)
        return False

    def drain(self) -> None:
        """Block until every admitted request finished, then flush the
        still-deferred updates."""
        if self._threads:
            self._admission.join()
        self._flush_deferred()

    # ------------------------------------------------------------------
    # convenience replay
    # ------------------------------------------------------------------
    def serve(self, workload: Workload | list[Request]) -> ServingReport:
        """Feed ``workload`` through the pool as fast as it admits.

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

        Where :meth:`serve` saturates the pool (arrival times ignored),
        this replay sleeps until each request's arrival — scaled by
        ``time_scale`` wall seconds per virtual second — so shed rate,
        deadline misses, and queue depth reflect the workload's *rate
        structure* rather than the submission loop's speed.  This is
        the replay mode the scenario fuzzer uses: a flash crowd only
        stresses admission if the spike actually arrives as a spike.

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
        wall = time.perf_counter() - started
        with self._records_lock:
            records = self.records[first_record:]
        return ServingReport(
            records=records,
            wall_s=wall,
            workers=self.workers,
            degraded=self._degraded,
            decisions=list(self.decisions),
        )

    # ------------------------------------------------------------------
    # live reconfiguration (Quota -> runtime)
    # ------------------------------------------------------------------
    def reconfigure(
        self, lambda_q: float, lambda_u: float, quick: bool = True
    ) -> QuotaDecision | None:
        """Solve for beta at the given rates and apply it live.

        The controller's solve runs out-of-band (no lock held); only
        applying the hyperparameters — an index rebuild for
        index-based algorithms — excludes queries, mirroring what
        ``QuotaSystem`` charges to its virtual clock.
        """
        if self.controller is None:
            return None
        warm = self.algorithm.get_hyperparameters()
        decision = self.controller.configure(
            lambda_q, lambda_u, warm_start=warm, quick=quick
        )
        with self._rwlock.write_locked():
            apply_started = time.perf_counter()
            self.algorithm.set_hyperparameters(**decision.beta)
            csr_view(self.algorithm.graph)
            apply_elapsed_s = time.perf_counter() - apply_started
        # R11: observe outside the write hold (registry lookups extend
        # the critical section for every reader)
        self.metrics.histogram("service.reconfigure").observe(apply_elapsed_s)
        self.decisions.append(decision)
        return decision

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def pending_updates(self) -> int:
        with self._seed_lock:
            return len(self._seed_queue)

    @property
    def queue_depth(self) -> int:
        return self._admission.depth

    # ------------------------------------------------------------------
    # worker internals
    # ------------------------------------------------------------------
    def _record(self, record: ServedRequest) -> None:
        """Hand ``record`` to the one completion sink (class docstring)."""
        if self._on_complete is None:
            with self._records_lock:
                self.records.append(record)
            return
        try:
            self._on_complete(record)
        except Exception:  # pragma: no cover - observer must not kill us
            pass

    def _finish(
        self,
        ticket: Ticket,
        wid: int,
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
                worker=wid,
                error=error,
                shed_reason=shed_reason,
                cached=cached,
            )
        )

    def _cache_key(self, source: int) -> CacheKey:
        """Cache identity of a query under the current configuration.

        The beta signature read here may race a concurrent
        ``reconfigure`` (which swaps hyperparameters under the write
        lock); a torn read can only produce a signature that matches
        nothing — a spurious miss, never a wrong hit.
        """
        return make_key(
            source,
            self.algorithm.name,
            self.algorithm.get_hyperparameters(),
        )

    def _charge_cache(self, update: EdgeUpdate) -> None:
        """Charge one applied update (call inside the writer section)."""
        if self._staleness is not None:
            self._staleness.observe(update)

    def _worker_loop(self, wid: int) -> None:
        while not self._stop.is_set():
            ticket = self._admission.poll()
            if ticket is None:
                # idle: work the deferred updates off first (Algorithm
                # 2, as replay() does), re-polling between any two so
                # an arrival never waits for more than one of them
                if self._idle_drain(wid):
                    continue
                ticket = self._admission.take(self.idle_tick_s)
                if ticket is None:
                    continue
            try:
                self._process(ticket, wid)
            except Exception:  # pragma: no cover - defensive; never die
                now = time.perf_counter()
                error = traceback.format_exc(limit=3)
                self._finish(ticket, wid, FAILED, now, now, error=error)
                self.metrics.counter("serving.faults").inc()
            finally:
                self._admission.task_done()

    def _process(self, ticket: Ticket, wid: int) -> None:
        if ticket.request.kind == UPDATE:
            self._process_update(ticket, wid)
        else:
            self._process_query(ticket, wid)

    # -- updates -------------------------------------------------------
    def _process_update(self, ticket: Ticket, wid: int) -> None:
        update = ticket.request.update
        assert update is not None  # UPDATE requests carry one
        if self.epsilon_r > 0.0 and not self._degraded:
            # Seed: defer at admission cost only; applied at flush time
            with self._seed_lock:
                self._seed_queue.add(update, ticket.submitted_s)
            return
        started = time.perf_counter()
        with self._rwlock.write_locked():
            try:
                resolved = self.algorithm.apply_update(update)
            except Exception as exc:
                self._fault(ticket.request, ticket.submitted_s, wid, exc)
                return
            self._charge_cache(resolved)
            version = self.algorithm.graph.version
            csr_view(self.algorithm.graph)
        finished = time.perf_counter()
        self.metrics.histogram("service.update").observe(finished - started)
        self._finish(ticket, wid, OK, started, finished, version=version)

    # -- queries -------------------------------------------------------
    def _try_cache(self, ticket: Ticket, wid: int) -> bool:
        """Serve one query from the result cache; False on a miss."""
        if self._cache is None:
            return False
        source = ticket.request.source
        assert source is not None
        lookup_started = time.perf_counter()
        entry = self._cache.lookup(self._cache_key(source))
        if entry is None:
            return False
        finished = time.perf_counter()
        self.metrics.histogram("service.query_hit").observe(
            finished - lookup_started
        )
        self._finish(
            ticket,
            wid,
            OK,
            lookup_started,
            finished,
            version=entry.version,
            result=entry.value,
            cached=True,
        )
        return True

    def _process_query(self, ticket: Ticket, wid: int) -> None:
        """Serve one query on one graph snapshot.

        An expired ticket is timed out and a cache hit answered before
        the Seed flush check; the kernel call and the cache insert share
        one read-lock hold.
        """
        now = time.perf_counter()
        if ticket.expired(now):
            self.metrics.counter("serving.timeout").inc()
            self._finish(
                ticket, wid, TIMEOUT, now, now, shed_reason=SHED_DEADLINE
            )
            return
        if self._try_cache(ticket, wid):
            return
        source = ticket.request.source
        assert source is not None  # QUERY requests carry one
        with self._seed_lock:
            must_flush = len(self._seed_queue) > 0 and (
                self._seed_queue.should_flush(source)
            )
        if must_flush:
            self._flush_deferred(worker=wid)

        started = time.perf_counter()
        self._rwlock.acquire_read()
        try:
            version = self.algorithm.graph.version
            result: object
            if self._query_fn is not None:
                result = self._query_fn(self.algorithm.graph, source)
            else:
                # default path: algorithm instances keep per-query
                # scratch state, so serialize (see class docstring)
                with self._algo_lock:
                    result = self.algorithm.query(source)
            if self._cache is not None:
                # still under the read lock: a writer cannot apply (and
                # charge) an update between this compute and the
                # insert
                self._cache.insert(
                    self._cache_key(source),
                    result,
                    version,
                    pi_estimate=(
                        result.get if isinstance(result, PPRVector) else None
                    ),
                )
        except Exception as exc:
            finished = time.perf_counter()
            self.metrics.counter("serving.faults").inc()
            self._finish(
                ticket, wid, FAILED, started, finished, error=repr(exc)
            )
            return
        finally:
            self._rwlock.release_read()
        finished = time.perf_counter()
        self.metrics.histogram("service.query").observe(finished - started)
        self._finish(
            ticket, wid, OK, started, finished, version=version, result=result
        )

    # -- deferred-update machinery ------------------------------------
    def _apply_head(self, worker: int) -> ServedRequest | None:
        """Apply the oldest deferred update (the writer role).

        The caller holds the write lock.  Returns the record emitted —
        ``OK``, or ``FAILED`` when the update raised: the failing head
        is then discarded and the runtime degraded to strict FCFS — or
        None when nothing is deferred.
        """
        with self._seed_lock:
            if self._seed_queue.peek() is None:
                return None
            started = time.perf_counter()
            try:
                item = self._seed_queue.flush_one(self.algorithm)
            except Exception as exc:
                failed = self._seed_queue.discard_one()
                assert failed is not None
                return self._fault(
                    Request(0.0, UPDATE, update=failed.update),
                    failed.arrival,
                    worker,
                    exc,
                )
            assert item is not None
            self._charge_cache(item.update)
            record = ServedRequest(
                Request(0.0, UPDATE, update=item.update),
                OK,
                item.arrival,
                started,
                time.perf_counter(),
                version=self.algorithm.graph.version,
                worker=worker,
            )
            self._record(record)
            return record

    def _flush_deferred(self, worker: int = -1) -> None:
        """Apply every deferred update; faults degrade to strict FCFS."""
        applied = 0
        flush_started = time.perf_counter()
        with self._rwlock.write_locked():
            while (record := self._apply_head(worker)) is not None:
                if record.status == OK:
                    applied += 1
            if applied:
                csr_view(self.algorithm.graph)
        if applied:
            self.metrics.histogram("service.flush").observe(
                time.perf_counter() - flush_started
            )

    def _idle_drain(self, wid: int) -> bool:
        """Apply one deferred update while the admission queue idles;
        False when there was none to apply (or it could not be)."""
        if self.epsilon_r == 0.0 or self._degraded:
            return False
        with self._seed_lock:
            if not len(self._seed_queue):
                return False
        # non-blocking: if the writer side is contended, skip this tick
        if not self._rwlock.acquire_write(timeout=0.0):
            return False
        try:
            record = self._apply_head(wid)
            if record is None or record.status != OK:
                return False
            csr_view(self.algorithm.graph)
        finally:
            self._rwlock.release_write()
        # R11: observe outside the write hold (registry lookups extend
        # the critical section for every reader)
        self.metrics.histogram("service.update").observe(
            record.finished_s - record.started_s
        )
        return True

    def _fault(
        self,
        request: Request,
        submitted_s: float,
        worker: int,
        exc: Exception,
    ) -> ServedRequest:
        """Record a failed update and degrade to strict FCFS.

        Only called inside writer critical sections (the degradation
        flag is guarded by the write lock), hence the pre-resolved
        fault counter instead of a registry lookup.
        """
        now = time.perf_counter()
        self._fault_counter.inc()
        self._degraded = True
        record = ServedRequest(
            request,
            FAILED,
            submitted_s,
            now,
            now,
            worker=worker,
            error=repr(exc),
        )
        self._record(record)
        return record
