"""Arrival-rate monitoring: a sliding-window estimator and the drift
alarm that is Quota's one online re-solve trigger.

A leaf module (standard library only): the virtual-time
:class:`~repro.core.system.QuotaSystem`, the scenario fuzzer's drift
demo and the HTTP front door all watch rates through a
:class:`RateDriftDetector`, and the front door is a control-plane
process that never loads numpy.  The paper's fixed-period loop is one
configuration of it (:meth:`RateDriftDetector.periodic`).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

from repro.queueing.kinds import QUERY


def check_rates(lambda_q: float, lambda_u: float) -> None:
    """Raise ValueError unless (lambda_q, lambda_u) is an arrival-rate
    pair Quota can solve for: a positive query rate and a non-negative
    update rate, both finite (JSON lets ``NaN`` and ``Infinity`` in)."""
    if not (0 < lambda_q < math.inf and 0 <= lambda_u < math.inf):
        raise ValueError(
            "need finite rates with lambda_q > 0 and lambda_u >= 0, got "
            f"({lambda_q}, {lambda_u})"
        )


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

    Quota's one online re-solve trigger: a serving stack configured for
    ``(configured_q, configured_u)`` keeps monitoring the empirical
    arrival rates over a sliding ``window``; once either rate drifts
    past ``threshold`` (relative), :meth:`check` returns the monitored
    pair so the caller can re-solve and apply it
    (:func:`repro.core.quota.retune`, from
    :class:`~repro.core.system.QuotaSystem` on the virtual clock,
    :meth:`repro.serving.runtime.ServingRuntime.reconfigure` on the
    measured one, or the fleet's
    :meth:`repro.api.frontdoor.FrontDoor.retune`) and :meth:`rearm` the
    detector at the new configuration.

    ``min_events`` guards the cold window: a handful of arrivals says
    nothing about the rate, and re-solving on noise would thrash the
    controller (every re-configuration is an index rebuild for the
    index-based algorithms).  ``period`` spaces the checks: one runs
    at most once per ``period`` seconds (the first at ``period`` after
    :meth:`restart_period`); 0 checks at every call.
    """

    configured_q: float
    configured_u: float
    window: float = 5.0
    threshold: float = 0.5
    min_events: int = 20
    period: float = 0.0
    estimator: RateEstimator = field(default_factory=RateEstimator)
    _last_check: float = field(default=0.0, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.configured_q < 0 or self.configured_u < 0:
            raise ValueError("configured rates must be non-negative")
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")
        if self.period < 0:
            raise ValueError("period must be non-negative")
        self.estimator.window = self.window

    @classmethod
    def periodic(cls, period: float, window: float = 10.0) -> RateDriftDetector:
        """The paper's fixed-period loop (Section VIII-D): every
        ``period`` seconds, re-solve at the rates of the trailing
        ``window`` when either moved more than 15 % since the last
        solve.  Armed at (0, 0), so the first check with a query in
        the window always re-solves."""
        if period <= 0:
            raise ValueError("period must be positive")
        return cls(
            0.0, 0.0, window=window, threshold=0.15, min_events=1, period=period
        )

    def observe(self, kind: str, arrival: float) -> None:
        self.estimator.observe(kind, arrival)

    def restart_period(self) -> None:
        """Start the ``period`` gate over at time 0 (a new replay)."""
        self._last_check = 0.0

    def _drifted(self, observed: float, configured: float) -> bool:
        if configured <= 0:
            return observed > 0
        return abs(observed - configured) / configured > self.threshold

    def check(self, now: float) -> tuple[float, float] | None:
        """Monitored (lambda_q, lambda_u) when drifted, else None.

        None too within ``period`` of the last check, and for a drifted
        pair Quota cannot solve for (:func:`check_rates` refuses it: no
        query arrived in the window), so no caller re-solves, or
        re-arms, at lambda_q = 0.
        """
        if now - self._last_check < self.period:
            return None
        self._last_check = now
        if self.estimator.observed < self.min_events:
            return None
        lambda_q, lambda_u = self.estimator.rates(now)
        if not (
            self._drifted(lambda_q, self.configured_q)
            or self._drifted(lambda_u, self.configured_u)
        ):
            return None
        try:
            check_rates(lambda_q, lambda_u)
        except ValueError:
            return None
        return lambda_q, lambda_u

    def rearm(self, lambda_q: float, lambda_u: float) -> None:
        """Accept the new configuration as the drift baseline."""
        self.configured_q = lambda_q
        self.configured_u = lambda_u
