"""Bounded admission queue with backpressure and shedding.

QoS under overload starts at admission: an unbounded queue converts
excess arrival rate into unbounded latency (the unstable regime of
Lemma 1), so the runtime bounds how many requests wait and *sheds* —
rejects at submission — a query that finds the bound reached.
Shedding is the honest failure mode: the caller learns immediately
instead of waiting forever.  An update is state, not an answer:
dropping one would diverge the replica, so it is always admitted.

The queue records its depth in the ``serving.queue_depth`` gauge and
every shed in the ``serving.shed`` counter of :mod:`repro.obs`.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass

from repro.obs.metrics import MetricsRegistry, get_metrics
from repro.queueing.kinds import QUERY
from repro.queueing.workload import Request

#: shed because the bounded admission queue was full at submission
SHED_QUEUE_FULL = "queue-full"
#: shed because the request's deadline budget expired before execution
SHED_DEADLINE = "deadline"


@dataclass(frozen=True, slots=True)
class Ticket:
    """One admitted request plus its wall-clock admission metadata.

    ``submitted_s`` and ``deadline_s`` are :func:`time.perf_counter`
    readings (absolute, monotonic); ``deadline_s`` is None when the
    request carries no deadline budget.
    """

    request: Request
    submitted_s: float
    deadline_s: float | None = None

    def expired(self, now_s: float | None = None) -> bool:
        if self.deadline_s is None:
            return False
        return (time.perf_counter() if now_s is None else now_s) > self.deadline_s


class AdmissionQueue:
    """FIFO in front of the runtime loop, bounded for queries.

    Producers may run on other threads than the one consumer (the
    runtime loop), so every field sits behind one lock, whose condition
    wakes a waiting consumer or :meth:`join`.

    Parameters
    ----------
    capacity:
        How many requests may wait before a query is shed; 0 means
        unbounded (no shedding — test use only).
    metrics:
        Registry receiving the depth gauge and shed counter.
    """

    def __init__(
        self,
        capacity: int = 256,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = capacity
        self._tickets: deque[Ticket] = deque()  # guarded-by: self._lock
        #: admitted tickets not yet marked done (what :meth:`join` awaits)
        self._unfinished = 0  # guarded-by: self._lock
        self._woken = False  # guarded-by: self._lock
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)
        metrics = metrics if metrics is not None else get_metrics()
        self._depth = metrics.gauge("serving.queue_depth")
        self._shed = metrics.counter("serving.shed")

    # ------------------------------------------------------------------
    def offer(self, ticket: Ticket) -> bool:
        """Admit ``ticket``; False (and a shed count) for a query that
        finds ``capacity`` requests waiting.  An update is always
        admitted."""
        with self._lock:
            depth = len(self._tickets)
            admitted = not (
                ticket.request.kind == QUERY and 0 < self.capacity <= depth
            )
            if admitted:
                self._tickets.append(ticket)
                self._unfinished += 1
                depth += 1
                self._ready.notify_all()
        if not admitted:
            self._shed.inc()
            return False
        self._depth.set(depth)
        return True

    def await_ticket(self, timeout_s: float) -> None:
        """Block until a ticket waits, :meth:`wake` is called, or
        ``timeout_s`` passes."""
        with self._lock:
            if not self._tickets and not self._woken:
                self._ready.wait(timeout_s)
            self._woken = False

    def poll(self) -> Ticket | None:
        """Pop the oldest waiting ticket without blocking; None if empty.

        The runtime loop's look each turn: an empty queue sends it to
        the idle drain of deferred updates, then to its command source.
        """
        with self._lock:
            ticket = self._tickets.popleft() if self._tickets else None
            depth = len(self._tickets)
        self._depth.set(depth)
        return ticket

    def take(self, timeout_s: float) -> Ticket | None:
        """Pop the oldest waiting ticket; None after ``timeout_s``, or
        at once when :meth:`wake` was called."""
        self.await_ticket(timeout_s)
        return self.poll()

    def wake(self) -> None:
        """Return a blocked :meth:`await_ticket` now, admitting nothing."""
        with self._lock:
            self._woken = True
            self._ready.notify_all()

    def task_done(self) -> None:
        """Mark the most recently taken ticket as fully processed."""
        with self._lock:
            self._unfinished -= 1
            if not self._unfinished:
                self._ready.notify_all()

    def join(self) -> None:
        """Block until every admitted ticket has been processed."""
        with self._lock:
            while self._unfinished:
                self._ready.wait()

    @property
    def depth(self) -> int:
        return len(self._tickets)

    def __repr__(self) -> str:
        return (
            f"AdmissionQueue(depth={self.depth}, capacity={self.capacity})"
        )
