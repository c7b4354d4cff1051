"""Arrival-rate monitoring: a sliding-window estimator and a drift alarm.

A leaf module (standard library only): the virtual-time
:class:`~repro.core.system.QuotaSystem` and the HTTP front door both
watch rates, and the front door is a control-plane process that never
loads numpy.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.queueing.kinds import QUERY


@dataclass(slots=True)
class RateEstimator:
    """Sliding-window arrival-rate monitor (Section VIII-D: "we
    continuously monitor the rates")."""

    window: float = 10.0
    _queries: deque[float] = field(default_factory=deque)
    _updates: deque[float] = field(default_factory=deque)

    def observe(self, kind: str, arrival: float) -> None:
        store = self._queries if kind == QUERY else self._updates
        store.append(arrival)
        self._evict(arrival)

    def _evict(self, now: float) -> None:
        horizon = now - self.window
        for store in (self._queries, self._updates):
            while store and store[0] < horizon:
                store.popleft()

    def rates(self, now: float) -> tuple[float, float]:
        """Estimated (lambda_q, lambda_u) over the trailing window."""
        self._evict(now)
        span = min(self.window, max(now, 1e-9))
        return len(self._queries) / span, len(self._updates) / span

    @property
    def observed(self) -> int:
        """Events currently inside the trailing window."""
        return len(self._queries) + len(self._updates)


@dataclass(slots=True)
class RateDriftDetector:
    """Flags when the *observed* rates drift from the *configured* pair.

    The online re-optimization loop (ROADMAP "scenario fuzzing at
    production scale"): a serving stack configured for
    ``(lambda_q, lambda_u)`` keeps monitoring the empirical arrival
    rates over a sliding window; once either rate drifts past
    ``threshold`` (relative), :meth:`check` returns the monitored pair
    so the caller can re-run the Quota controller — through
    :meth:`QuotaSystem._maybe_reoptimize` on the virtual clock, or
    :meth:`repro.serving.runtime.ServingRuntime.reconfigure` on the measured
    one — and :meth:`rearm` the detector at the new configuration.

    ``min_events`` guards the cold window: a handful of arrivals says
    nothing about the rate, and re-solving on noise would thrash the
    controller (every re-configuration is an index rebuild for the
    index-based algorithms).
    """

    configured_q: float
    configured_u: float
    window: float = 5.0
    threshold: float = 0.5
    min_events: int = 20
    estimator: RateEstimator = field(default_factory=RateEstimator)

    def __post_init__(self) -> None:
        if self.configured_q < 0 or self.configured_u < 0:
            raise ValueError("configured rates must be non-negative")
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")
        self.estimator.window = self.window

    def observe(self, kind: str, arrival: float) -> None:
        self.estimator.observe(kind, arrival)

    def _drifted(self, observed: float, configured: float) -> bool:
        if configured <= 0:
            return observed > 0
        return abs(observed - configured) / configured > self.threshold

    def check(self, now: float) -> tuple[float, float] | None:
        """Monitored (lambda_q, lambda_u) when drifted, else None."""
        if self.estimator.observed < self.min_events:
            return None
        lambda_q, lambda_u = self.estimator.rates(now)
        if self._drifted(lambda_q, self.configured_q) or self._drifted(
            lambda_u, self.configured_u
        ):
            return lambda_q, lambda_u
        return None

    def rearm(self, lambda_q: float, lambda_u: float) -> None:
        """Accept the new configuration as the drift baseline."""
        self.configured_q = lambda_q
        self.configured_u = lambda_u
