"""Asyncio front door over a :class:`~repro.shard.manager.ShardManager`.

:class:`FrontDoor` is the transport-independent service layer — every
HTTP endpoint in :mod:`repro.api.http` is a thin serialization of one
of its coroutines, and tests drive the coroutines directly (the
"in-memory transport"), so admission, deadline propagation, and drift
handling are exercised without sockets.

Three QoS behaviors live here rather than in the manager:

* **Deadline propagation** — a request's total ``budget_s`` starts
  ticking when the front door first sees it; only the *remaining*
  budget is forwarded, so time burned queueing upstream counts against
  the shard-side deadline, and a budget that is already gone is
  answered ``timeout`` without wasting a shard slot.
* **Shed surfacing** — every shed (front-door, manager admission, or
  worker admission queue) carries a ``retry_after_s`` hint mapped onto
  the HTTP ``Retry-After`` header.
* **Drift-driven reconfiguration** — arrivals feed a
  :class:`~repro.core.rates.RateDriftDetector`; once the observed
  (lambda_q, lambda_u) drifts past threshold, the fleet's
  QuotaControllers are re-solved via
  :meth:`~repro.shard.manager.ShardManager.reconfigure` on a worker thread
  (never on the event loop) and the detector re-arms at the new pair.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.rates import RateDriftDetector
from repro.obs.metrics import MetricsRegistry
from repro.queueing.kinds import QUERY, UPDATE

if TYPE_CHECKING:
    from repro.shard.manager import QueryOutcome, ShardManager

#: Retry-After fallback when an outcome carries no hint
DEFAULT_RETRY_AFTER_S = 1.0


@dataclass(frozen=True, slots=True)
class ApiResponse:
    """Transport-neutral response envelope.

    ``status_code`` follows HTTP semantics (200 served, 400 bad
    request, 503 shed + Retry-After, 504 deadline exceeded, 500
    worker fault) so the HTTP layer maps it one-to-one and in-memory
    tests assert on the same codes the wire would carry.
    """

    status_code: int
    body: dict[str, object]
    #: seconds; rendered as a Retry-After header when set
    retry_after_s: float | None = None

    @property
    def ok(self) -> bool:
        return self.status_code == 200


@dataclass(slots=True)
class DriftPolicy:
    """Knobs for the online re-optimization loop."""

    #: configured rates the detector is armed at
    lambda_q: float
    lambda_u: float
    window_s: float = 5.0
    threshold: float = 0.5
    min_events: int = 20
    #: floor between fleet re-solves (a reconfigure rebuilds indexes)
    cooldown_s: float = 2.0


@dataclass(slots=True)
class _DriftState:
    detector: RateDriftDetector
    policy: DriftPolicy
    last_reconfigure_s: float = field(default=0.0)
    inflight: threading.Event = field(default_factory=threading.Event)


class FrontDoor:
    """Service layer between transports and the shard fabric."""

    def __init__(
        self,
        manager: "ShardManager",
        *,
        default_top_k: int | None = 50,
        default_budget_s: float | None = None,
        drift: DriftPolicy | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.manager = manager
        self.default_top_k = default_top_k
        self.default_budget_s = default_budget_s
        self.metrics = metrics if metrics is not None else manager.metrics
        self._drift: _DriftState | None = None
        if drift is not None:
            self._drift = _DriftState(
                detector=RateDriftDetector(
                    configured_q=drift.lambda_q,
                    configured_u=drift.lambda_u,
                    window=drift.window_s,
                    threshold=drift.threshold,
                    min_events=drift.min_events,
                ),
                policy=drift,
            )
        #: last drift-triggered reconfigure results (observability)
        self.reconfigurations: list[dict[str, object]] = []

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------
    async def query(
        self,
        source: int,
        budget_s: float | None = None,
        top_k: int | None = None,
        received_s: float | None = None,
    ) -> ApiResponse:
        """Serve one SSPPR query with deadline propagation.

        ``received_s`` (``time.perf_counter()`` domain) is when the
        transport first saw the request — parsing and upstream
        queueing between then and now burns the caller's budget.
        """
        started = time.perf_counter()
        self.metrics.counter("api.requests").inc()
        self._observe_arrival(QUERY, started)
        budget = budget_s if budget_s is not None else self.default_budget_s
        remaining: float | None = None
        if budget is not None:
            spent = started - (received_s if received_s is not None else started)
            # received_s comes from the transport's wall clock; a
            # skewed or stepped client clock can place it in the
            # future (spent < 0) which would silently *extend* the
            # deadline past budget_s.  Clamp to [0, budget]: at best
            # the caller has the whole budget left, at worst none.
            spent = min(max(spent, 0.0), budget)
            remaining = budget - spent
            if remaining <= 0.0:
                self.metrics.counter("api.shed").inc()
                self._observe_response(started)
                return ApiResponse(
                    504,
                    {
                        "status": "timeout",
                        "source": source,
                        "reason": "budget exhausted before dispatch",
                    },
                )
        try:
            future = self.manager.query(
                source,
                deadline_s=remaining,
                top_k=top_k if top_k is not None else self.default_top_k,
            )
        except ValueError as exc:
            self._observe_response(started)
            return ApiResponse(
                400, {"status": "bad-request", "error": str(exc)}
            )
        outcome = await asyncio.wrap_future(future)
        self._maybe_reconfigure()
        self._observe_response(started)
        return self._outcome_response(outcome)

    async def update(
        self, u: int, v: int, kind: str = "toggle"
    ) -> ApiResponse:
        """Broadcast one edge update (blocks a worker thread, not the loop)."""
        started = time.perf_counter()
        self.metrics.counter("api.requests").inc()
        self._observe_arrival(UPDATE, started)
        loop = asyncio.get_running_loop()
        try:
            outcome = await loop.run_in_executor(
                None, lambda: self.manager.update(u, v, kind)
            )
        except (ValueError, RuntimeError) as exc:
            self._observe_response(started)
            return ApiResponse(
                400, {"status": "bad-request", "error": str(exc)}
            )
        self._maybe_reconfigure()
        self._observe_response(started)
        return ApiResponse(
            200,
            {
                "status": "ok",
                "version": outcome.version,
                "acked_shards": list(outcome.acked_shards),
                "skipped_shards": list(outcome.skipped_shards),
            },
        )

    async def reconfigure(
        self, lambda_q: float, lambda_u: float
    ) -> ApiResponse:
        """Explicitly re-solve every shard's QuotaController."""
        started = time.perf_counter()
        self.metrics.counter("api.requests").inc()
        loop = asyncio.get_running_loop()
        results = await loop.run_in_executor(
            None, lambda: self.manager.reconfigure(lambda_q, lambda_u)
        )
        drift = self._drift
        if drift is not None:
            drift.detector.rearm(lambda_q, lambda_u)
        self._observe_response(started)
        return ApiResponse(
            200,
            {
                "status": "ok",
                "lambda_q": lambda_q,
                "lambda_u": lambda_u,
                "shards": results,
            },
        )

    async def healthz(self) -> ApiResponse:
        """Fleet liveness; 503 while any shard range is shed."""
        loop = asyncio.get_running_loop()
        health = await loop.run_in_executor(None, self.manager.healthz)
        code = 200 if health.get("healthy") else 503
        return ApiResponse(
            code,
            health,
            retry_after_s=None if code == 200 else DEFAULT_RETRY_AFTER_S,
        )

    async def metrics_snapshot(self) -> ApiResponse:
        """Aggregated manager + per-worker metrics."""
        loop = asyncio.get_running_loop()
        snapshot = await loop.run_in_executor(
            None, self.manager.metrics_snapshot
        )
        return ApiResponse(200, snapshot)

    # ------------------------------------------------------------------
    def _outcome_response(self, outcome: "QueryOutcome") -> ApiResponse:
        body: dict[str, object] = {
            "status": outcome.status,
            "source": outcome.source,
            "shard": outcome.shard_id,
        }
        if outcome.status == "ok":
            body["version"] = outcome.version
            body["cached"] = outcome.cached
            body["values"] = outcome.values or []
            body["response_s"] = outcome.response_s
            return ApiResponse(200, body)
        if outcome.shed_reason is not None:
            body["shed_reason"] = outcome.shed_reason
        if outcome.error is not None:
            body["error"] = outcome.error
        if outcome.status == "timeout":
            self.metrics.counter("api.shed").inc()
            return ApiResponse(504, body)
        if outcome.status in ("shed", "unavailable"):
            self.metrics.counter("api.shed").inc()
            return ApiResponse(
                503,
                body,
                retry_after_s=(
                    outcome.retry_after_s
                    if outcome.retry_after_s is not None
                    else DEFAULT_RETRY_AFTER_S
                ),
            )
        return ApiResponse(500, body)

    def _observe_response(self, started_s: float) -> None:
        self.metrics.histogram("api.response").observe(
            time.perf_counter() - started_s
        )

    # -- drift loop ----------------------------------------------------
    def _observe_arrival(self, kind: str, now_s: float) -> None:
        drift = self._drift
        if drift is not None:
            drift.detector.observe(kind, now_s)

    def _maybe_reconfigure(self) -> None:
        """Re-solve the fleet when arrival rates drifted (off-loop)."""
        drift = self._drift
        if drift is None or drift.inflight.is_set():
            return
        now = time.perf_counter()
        if now - drift.last_reconfigure_s < drift.policy.cooldown_s:
            return
        pair = drift.detector.check(now)
        if pair is None:
            return
        drift.inflight.set()

        def _solve() -> None:
            lambda_q, lambda_u = pair
            try:
                results = self.manager.reconfigure(lambda_q, lambda_u)
                drift.detector.rearm(lambda_q, lambda_u)
                drift.last_reconfigure_s = time.perf_counter()
                self.reconfigurations.append(
                    {
                        "lambda_q": lambda_q,
                        "lambda_u": lambda_u,
                        "shards": results,
                    }
                )
            finally:
                drift.inflight.clear()

        threading.Thread(
            target=_solve, name="frontdoor-reconfigure", daemon=True
        ).start()
