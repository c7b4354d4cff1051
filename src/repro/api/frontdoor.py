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
  (lambda_q, lambda_u) drifts past threshold, :meth:`FrontDoor.retune`
  — the coroutine an explicit ``POST /reconfigure`` awaits too —
  re-solves the fleet's QuotaControllers through
  :meth:`~repro.shard.manager.ShardManager.reconfigure` in the default
  executor (never blocking the event loop), then, back on the loop,
  re-arms the detector at the new pair and logs the result.
"""

from __future__ import annotations

import asyncio
import math
import time
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.rates import RateDriftDetector, check_rates
from repro.obs.metrics import MetricsRegistry
from repro.queueing.kinds import QUERY, UPDATE

if TYPE_CHECKING:
    from repro.shard.manager import QueryOutcome, ShardManager

#: Retry-After fallback when an outcome carries no hint
DEFAULT_RETRY_AFTER_S = 1.0
#: reconfigure results FrontDoor.reconfigurations keeps
RECONFIGURATIONS_KEPT = 8


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


class FrontDoor:
    """Service layer between transports and the shard fabric."""

    def __init__(
        self,
        manager: "ShardManager",
        *,
        default_top_k: int | None = 50,
        default_budget_s: float | None = None,
        drift: RateDriftDetector | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.manager = manager
        self.default_top_k = default_top_k
        self.default_budget_s = default_budget_s
        self.metrics = metrics if metrics is not None else manager.metrics
        #: watches arrivals (``time.perf_counter()`` seconds); its
        #: ``period`` floors the time between drift-triggered re-solves
        self.drift = drift
        #: the drift-triggered re-solve in flight, if any
        self._retuning: asyncio.Task[dict[str, object]] | None = None
        #: the last few reconfigure results, drift-triggered or explicit,
        #: served in ``GET /metrics`` (bounded, a server runs for weeks)
        self.reconfigurations: deque[dict[str, object]] = deque(
            maxlen=RECONFIGURATIONS_KEPT
        )

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
        if budget is not None and math.isnan(budget):
            # NaN passes every comparison below and would reach the
            # worker as a deadline that never expires
            return self._bad_request(started, "budget_s is NaN")
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
            return self._bad_request(started, str(exc))
        outcome = await asyncio.wrap_future(future)
        self._maybe_retune()
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
            return self._bad_request(started, str(exc))
        self._maybe_retune()
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
        """Explicitly re-solve every shard's QuotaController.

        Rates :func:`~repro.core.rates.check_rates` refuses are a 400
        that reaches no shard.
        """
        started = time.perf_counter()
        self.metrics.counter("api.requests").inc()
        try:
            check_rates(lambda_q, lambda_u)
        except ValueError as exc:
            return self._bad_request(started, str(exc))
        entry = await self.retune(lambda_q, lambda_u)
        self._observe_response(started)
        return ApiResponse(200, {"status": "ok", **entry})

    async def retune(
        self, lambda_q: float, lambda_u: float
    ) -> dict[str, object]:
        """Re-solve the fleet at (lambda_q, lambda_u): the one path of
        explicit, drift-triggered and start-up re-solves.

        The blocking broadcast runs in the default executor; the detector
        re-arms and the result is logged on the event loop.  Returns the
        logged entry.
        """
        loop = asyncio.get_running_loop()
        results = await loop.run_in_executor(
            None, lambda: self.manager.reconfigure(lambda_q, lambda_u)
        )
        if self.drift is not None:
            self.drift.rearm(lambda_q, lambda_u)
        entry = {"lambda_q": lambda_q, "lambda_u": lambda_u, "shards": results}
        self.reconfigurations.append(entry)
        return entry

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
        """Aggregated manager + per-worker metrics, and the last
        :data:`RECONFIGURATIONS_KEPT` reconfigure results."""
        loop = asyncio.get_running_loop()
        snapshot = await loop.run_in_executor(
            None, self.manager.metrics_snapshot
        )
        snapshot["reconfigurations"] = list(self.reconfigurations)
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
            body["values"] = (
                outcome.values if outcome.values is not None else []
            )
            body["response_s"] = outcome.response_s
            return ApiResponse(200, body)
        if outcome.shed_reason is not None:
            body["shed_reason"] = outcome.shed_reason
        if outcome.error is not None:
            body["error"] = outcome.error
        if outcome.status == "bad-request":
            return ApiResponse(400, body)
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

    def _bad_request(self, started_s: float, error: str) -> ApiResponse:
        self._observe_response(started_s)
        return ApiResponse(400, {"status": "bad-request", "error": error})

    # -- drift loop ----------------------------------------------------
    def _observe_arrival(self, kind: str, now_s: float) -> None:
        if self.drift is not None:
            self.drift.observe(kind, now_s)

    def _maybe_retune(self) -> None:
        """Start :meth:`retune` when arrival rates drifted and no
        drift-triggered re-solve is in flight."""
        if self.drift is None or (
            self._retuning is not None and not self._retuning.done()
        ):
            return
        drifted = self.drift.check(time.perf_counter())
        if drifted is not None:
            self._retuning = asyncio.create_task(self.retune(*drifted))
