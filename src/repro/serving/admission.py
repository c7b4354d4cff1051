"""Bounded admission queue with backpressure and shedding.

QoS under overload starts at admission: an unbounded queue converts
excess arrival rate into unbounded latency (the unstable regime of
Lemma 1), so the runtime bounds queue depth and *sheds* — rejects at
submission — once the bound is hit.  Shedding is the honest failure
mode: the caller learns immediately instead of waiting forever.

The queue records its depth in the ``serving.queue_depth`` gauge and
every shed in the ``serving.shed`` counter of :mod:`repro.obs`.
"""

from __future__ import annotations

import queue
import time
from dataclasses import dataclass

from repro.obs.metrics import MetricsRegistry, get_metrics
from repro.queueing.workload import Request

#: shed because the bounded admission queue was full at submission
SHED_QUEUE_FULL = "queue-full"
#: shed because the request's deadline budget expired before execution
SHED_DEADLINE = "deadline"

#: what :meth:`AdmissionQueue.wake` enqueues; never handed out
_WAKE = object()


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
    """Bounded FIFO in front of the runtime thread.

    Parameters
    ----------
    capacity:
        Maximum number of waiting requests; 0 means unbounded (no
        shedding — pure backpressure-free buffering, test use only).
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
        self._queue: queue.Queue[Ticket | object] = queue.Queue(
            maxsize=capacity
        )
        metrics = metrics if metrics is not None else get_metrics()
        self._depth = metrics.gauge("serving.queue_depth")
        self._shed = metrics.counter("serving.shed")

    # ------------------------------------------------------------------
    def offer(self, ticket: Ticket, wait_s: float = 0.0) -> bool:
        """Admit ``ticket``; False (and a shed count) when the queue is
        still full after blocking for up to ``wait_s`` seconds."""
        try:
            self._queue.put(ticket, block=wait_s > 0.0, timeout=wait_s)
        except queue.Full:
            self._shed.inc()
            return False
        self._depth.set(self._queue.qsize())
        return True

    def take(self, timeout_s: float) -> Ticket | None:
        """Pop the oldest waiting ticket; None after ``timeout_s``, or
        at once when :meth:`wake` was called."""
        try:
            item = self._queue.get(timeout=timeout_s)
        except queue.Empty:
            return None
        return self._popped(item)

    def poll(self) -> Ticket | None:
        """Pop the oldest waiting ticket without blocking; None if empty.

        The runtime loop's first look each turn: an empty queue sends it
        to the idle drain of deferred updates instead of blocking in
        :meth:`take`.
        """
        try:
            item = self._queue.get_nowait()
        except queue.Empty:
            return None
        return self._popped(item)

    def _popped(self, item: Ticket | object) -> Ticket | None:
        self._depth.set(self._queue.qsize())
        if item is _WAKE:
            self._queue.task_done()
            return None
        assert isinstance(item, Ticket)
        return item

    def wake(self) -> None:
        """Return a blocked :meth:`take` now, admitting nothing.

        A full queue needs no wake-up: its consumer is not waiting.
        """
        try:
            self._queue.put_nowait(_WAKE)
        except queue.Full:
            pass

    def task_done(self) -> None:
        """Mark the most recently taken ticket as fully processed."""
        self._queue.task_done()

    def join(self) -> None:
        """Block until every admitted ticket has been processed."""
        self._queue.join()

    @property
    def depth(self) -> int:
        return self._queue.qsize()

    def __repr__(self) -> str:
        return (
            f"AdmissionQueue(depth={self.depth}, capacity={self.capacity})"
        )
