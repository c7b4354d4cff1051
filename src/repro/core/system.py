"""QuotaSystem: the end-to-end serving loop (Algorithm 2 + simulator).

Glues everything together: a base PPR algorithm, the Quota controller
(optional — omit it to replay the algorithm at its default setting, the
paper's baselines), the Seed reordering queue (epsilon_r > 0), online
arrival-rate monitoring with periodic re-optimization, and the
virtual-time FCFS clock (:func:`repro.queueing.replay.replay`, the
schedule shared with the modeled simulators).

Timing model (the DESIGN.md substitution): the server's virtual clock
advances by the *measured wall time* of each executed operation —
query, update, each deferred update of a flush, and the in-line part of
a reconfiguration (applying a new beta: an index rebuild for the
index-based algorithms; the controller's solve runs out-of-band, as the
paper's Table IV reports it).  Response time of a query = (virtual
completion) - (virtual arrival), matching the paper's R_q.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from typing import cast

from repro.cache.staleness import StalenessTracker
from repro.cache.store import PPRCache
from repro.core.quota import QuotaController, QuotaDecision
from repro.core.rates import RateDriftDetector, RateEstimator
from repro.core.seed import SeedQueue
from repro.obs.metrics import MetricsRegistry, get_metrics
from repro.ppr.base import DynamicPPRAlgorithm, PPRVector
from repro.queueing.replay import MeasuredExecutor, SimulationResult, replay
from repro.queueing.workload import Request, Workload

QueryCallback = Callable[[Request, PPRVector, int], None]


class QuotaSystem:
    """Serves an interleaved query/update workload on a virtual clock.

    Parameters
    ----------
    algorithm:
        The base PPR algorithm instance (owns the graph).
    controller:
        Quota controller; None replays the algorithm as-is (baseline).
    epsilon_r:
        Seed reorder threshold; 0 keeps strict FCFS (no reordering).
    reoptimize_every:
        Re-run the controller every this many virtual seconds using the
        monitored rates; None configures only when
        :meth:`configure_static` is called.
    rate_window:
        Sliding-window length (virtual seconds) of the rate monitor.
    cache:
        Optional :class:`~repro.cache.store.PPRCache`.  Queries look up
        before computing (a hit costs only the measured lookup time on
        the virtual clock and skips the Seed flush check — the budget
        ``epsilon_c`` already covers every applied update) and insert
        after computing; every update-application path charges the
        staleness tracker immediately, via a
        :class:`~repro.cache.staleness.ChargingApplier` on the flush paths so a
        batch flush charges each update against the degrees it saw.
    metrics:
        Observability registry receiving the per-operation service-time
        histograms (``service.query`` / ``service.update`` /
        ``service.flush`` / ``service.reconfigure``) that let reports
        attribute time to sub-processes as the paper's Table I does.
        Defaults to the process-wide registry from
        :func:`repro.obs.metrics.get_metrics`.
    """

    def __init__(
        self,
        algorithm: DynamicPPRAlgorithm,
        controller: QuotaController | None = None,
        epsilon_r: float = 0.0,
        reoptimize_every: float | None = None,
        rate_window: float = 10.0,
        rate_change_threshold: float = 0.15,
        beta_change_threshold: float = 0.10,
        cache: PPRCache | None = None,
        metrics: MetricsRegistry | None = None,
        drift_detector: RateDriftDetector | None = None,
    ) -> None:
        if reoptimize_every is not None and reoptimize_every <= 0:
            raise ValueError("reoptimize_every must be positive")
        self.algorithm = algorithm
        self.controller = controller
        self.epsilon_r = epsilon_r
        self.reoptimize_every = reoptimize_every
        self.drift_detector = drift_detector
        self.rate_estimator = RateEstimator(window=rate_window)
        # hysteresis for the online loop: skip re-solving when the
        # monitored rates barely moved, and skip re-applying beta (an
        # index rebuild for index-based algorithms) when the solution
        # barely moved
        self.rate_change_threshold = rate_change_threshold
        self.beta_change_threshold = beta_change_threshold
        self.cache = cache
        self._staleness = (
            StalenessTracker(
                cache, algorithm.graph, algorithm.params.alpha
            )
            if cache is not None
            else None
        )
        self.metrics = metrics if metrics is not None else get_metrics()
        self.decisions: list[QuotaDecision] = []
        self._last_reoptimize = 0.0
        self._configured_rates: tuple[float, float] | None = None

    # ------------------------------------------------------------------
    def configure_static(
        self, lambda_q: float, lambda_u: float
    ) -> QuotaDecision | None:
        """One-shot configuration for known rates (the Figure 3 mode)."""
        if self.controller is None:
            return None
        decision = self.controller.configure(lambda_q, lambda_u)
        self.algorithm.set_hyperparameters(**decision.beta)
        self.decisions.append(decision)
        return decision

    # ------------------------------------------------------------------
    def process(
        self,
        workload: Workload,
        query_callback: QueryCallback | None = None,
    ) -> SimulationResult:
        """Replay ``workload`` in arrival order; returns timed results.

        ``query_callback(request, estimate, pending_updates)`` fires
        after every query with the PPR estimate and the number of
        not-yet-applied (Seed-deferred) updates — the hook the accuracy
        experiments use.
        """
        seed_queue = SeedQueue(
            self.algorithm.graph, self.algorithm.params.alpha, self.epsilon_r
        )

        def on_answer(
            request: Request, estimate: object, _cached_version: int | None
        ) -> None:
            if query_callback is not None:
                query_callback(
                    request, cast(PPRVector, estimate), len(seed_queue)
                )

        self._last_reoptimize = 0.0
        return replay(
            workload,
            MeasuredExecutor(
                self.algorithm,
                self.metrics,
                on_answer,
                cache=self.cache,
                staleness=self._staleness,
            ),
            seed_queue=seed_queue,
            on_arrival=self._on_arrival,
        )

    # ------------------------------------------------------------------
    def _on_arrival(self, request: Request) -> float:
        """Monitor the rates; returns reconfiguration seconds to charge."""
        self.rate_estimator.observe(request.kind, request.arrival)
        if self.drift_detector is not None:
            self.drift_detector.observe(request.kind, request.arrival)
        return self._maybe_reoptimize(request.arrival)

    def _maybe_reoptimize(self, now: float) -> float:
        """Online reconfiguration from monitored rates.

        Two trigger modes: the paper's fixed-period loop
        (``reoptimize_every``) with rate-change hysteresis, or — when a
        :class:`RateDriftDetector` is attached — event-driven
        re-configuration the moment the monitored rates drift past the
        detector's threshold (the ROADMAP online re-optimization loop).

        Returns the seconds the server spent applying a new beta (the
        index is shared state it must rebuild in-line); the solve
        itself is not charged.
        """
        if self.controller is None:
            return 0.0
        if self.drift_detector is not None:
            drifted = self.drift_detector.check(now)
            if drifted is None:
                return 0.0
            lambda_q, lambda_u = drifted
            if lambda_q <= 0:
                return 0.0
            self.drift_detector.rearm(lambda_q, lambda_u)
        else:
            if self.reoptimize_every is None:
                return 0.0
            if now - self._last_reoptimize < self.reoptimize_every:
                return 0.0
            self._last_reoptimize = now
            lambda_q, lambda_u = self.rate_estimator.rates(now)
            if lambda_q <= 0:
                return 0.0
            if self._configured_rates is not None and not self._rates_moved(
                lambda_q, lambda_u
            ):
                return 0.0

        current = self.algorithm.get_hyperparameters()
        decision = self.controller.configure(
            lambda_q, lambda_u, warm_start=current, quick=True
        )
        self._configured_rates = (lambda_q, lambda_u)
        self.decisions.append(decision)
        if not self._beta_moved(current, decision.beta):
            return 0.0
        started = time.perf_counter()
        self.algorithm.set_hyperparameters(**decision.beta)
        apply_elapsed = time.perf_counter() - started
        self.metrics.histogram("service.reconfigure").observe(apply_elapsed)
        return apply_elapsed

    def _rates_moved(self, lambda_q: float, lambda_u: float) -> bool:
        """True when either monitored rate drifted past the threshold."""
        assert self._configured_rates is not None  # caller checked
        last_q, last_u = self._configured_rates
        threshold = self.rate_change_threshold

        def moved(new: float, old: float) -> bool:
            if old <= 0:
                return new > 0
            return abs(new - old) / old > threshold

        return moved(lambda_q, last_q) or moved(lambda_u, last_u)

    def _beta_moved(
        self, current: dict[str, float], proposed: dict[str, float]
    ) -> bool:
        """True when any hyperparameter changed enough to be worth the
        re-application cost (index rebuild for index-based methods)."""
        for name, new in proposed.items():
            old = current.get(name, 0.0)
            if old <= 0:
                return True
            if abs(new - old) / old > self.beta_change_threshold:
                return True
        return False
