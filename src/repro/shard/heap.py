"""Give freed heap back to the OS when a shard worker goes idle.

glibc keeps the pages of freed chunks resident: a FORA+inc index build
on ``lj`` peaks at 15.7 MB under ``tracemalloc`` and leaves 6.9 MB
live, and a trim after it still gives back 6.6 MB of ``VmRSS``; every
walk-index compaction and arena growth piles more freed pages on top.
``malloc_trim(0)`` hands every whole free page of the heap back
(``madvise(MADV_DONTNEED)``), so ``VmRSS`` falls towards what is live.

:class:`HeapRelease` is the policy: the worker's serving loop calls
:meth:`HeapRelease.on_idle` at the one point where it is about to block
on an empty command pipe (:meth:`~repro.shard.worker.ShardServer.
serve_pipe`), which the runtime reaches only after Seed's idle drain,
so no request or deferred update ever waits behind a release.  It
trims when resident memory has grown by :data:`MIN_GROWTH_BYTES` since
the floor the last release left, and looks at most once every
:data:`MIN_INTERVAL_S`.  Where ``malloc_trim`` (glibc) or
``/proc/self/statm`` (Linux) is missing it does nothing.
"""

from __future__ import annotations

import ctypes
import os
import time
from collections.abc import Callable

from repro.obs.metrics import MetricsRegistry

#: Resident growth (bytes) since the last release's floor that makes a
#: release worth its cost.  A trim itself costs 0.02-0.2 ms on a
#: FORA+inc worker's heap on ``lj`` (2-vCPU host); the page faults when
#: later allocations land on the returned pages again cost more.  One
#: second of ``update_heavy``'s writes frees 0.2-3.7 MB there, the
#: index build 6.6 MB.
MIN_GROWTH_BYTES = 1 << 20

#: Seconds between two looks (and so between two releases).  A
#: prototype that trimmed at every idle moment freed about as much on
#: ``update_heavy`` (−9.7 MB of ``server_rss_mb`` against −8.6 MB) but
#: cost +8 % worker CPU per op, since each trim was followed by the
#: update stream re-faulting the same pages and another trim; at one
#: look a second the cost was +0.5 to +3.8 % (2-vCPU host).
MIN_INTERVAL_S = 1.0

_STATM = "/proc/self/statm"
_PAGE_BYTES = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def _statm_resident() -> int:
    """This process's resident bytes (``/proc/self/statm``, field 2)."""
    with open(_STATM, "rb") as handle:
        return int(handle.read().split()[1]) * _PAGE_BYTES


def _malloc_trim() -> Callable[[], object] | None:
    """``malloc_trim(0)`` of the C library this process runs, if it
    has one (glibc does; musl and macOS do not)."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):
        return None
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return lambda: trim(0)


#: the two probes; None where this platform lacks them
MALLOC_TRIM = _malloc_trim()
RESIDENT: Callable[[], int] | None = (
    _statm_resident if os.path.exists(_STATM) else None
)


class HeapRelease:
    """Rate-limited ``malloc_trim`` for one serving loop.

    ``resident``, ``trim`` and ``clock`` default to the platform's
    (:data:`RESIDENT`, :data:`MALLOC_TRIM`, :func:`time.monotonic`);
    tests pass fakes.  With either probe None, :meth:`on_idle` is a
    no-op.  Each release counts ``serving.heap_releases`` and adds the
    resident bytes it gave back to ``serving.heap_released_bytes``.
    """

    def __init__(
        self,
        metrics: MetricsRegistry,
        *,
        resident: Callable[[], int] | None = RESIDENT,
        trim: Callable[[], object] | None = MALLOC_TRIM,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._resident = resident
        self._trim = trim
        self._clock = clock
        #: resident bytes right after the last release (0: none yet, so
        #: the first look after start-up releases what the build freed)
        self.floor = 0
        self._looked = float("-inf")
        self._releases = metrics.counter("serving.heap_releases")
        self._released = metrics.counter("serving.heap_released_bytes")

    def on_idle(self) -> None:
        """Release freed heap if it has grown enough since the last
        release and no look was made in the last :data:`MIN_INTERVAL_S`."""
        if self._trim is None or self._resident is None:
            return
        now = self._clock()
        if now - self._looked < MIN_INTERVAL_S:
            return
        self._looked = now
        before = self._resident()
        if before - self.floor < MIN_GROWTH_BYTES:
            return
        self._trim()
        self.floor = self._resident()
        self._releases.inc()
        self._released.inc(max(before - self.floor, 0))
