"""QuotaSystem: the end-to-end serving loop (Algorithm 2, virtual time).

Glues everything together: a base PPR algorithm, the Quota controller
(optional — omit it to replay the algorithm at its default setting, the
paper's baselines), the Seed reordering queue (epsilon_r > 0), online
re-optimization, and the virtual-time FCFS clock
(:func:`repro.queueing.replay.replay`, the schedule modeled replays run
too).  The online loop is a :class:`~repro.core.rates.RateDriftDetector`
watching arrivals (the paper's fixed-period loop is its
:meth:`~repro.core.rates.RateDriftDetector.periodic` configuration)
and :func:`~repro.core.quota.retune` applying what it asks for.

Timing model (the DESIGN.md substitution): the server's virtual clock
advances by the *measured wall time* of each executed operation —
query, update, each deferred update of a flush, and the in-line part of
a reconfiguration (applying a new beta: an index rebuild for the
index-based algorithms; the controller's solve runs out-of-band, as the
paper's Table IV reports it).  Response time of a query = (virtual
completion) - (virtual arrival), matching the paper's R_q.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import cast

from repro.cache.store import PPRCache
from repro.core.quota import QuotaController, QuotaDecision, retune
from repro.core.rates import RateDriftDetector
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
    drift:
        The online re-optimization trigger: every arrival feeds it, and
        each pair its :meth:`~repro.core.rates.RateDriftDetector.check`
        returns is re-solved and applied through
        :func:`~repro.core.quota.retune` and re-armed.  Its ``period``
        gate restarts at each :meth:`process`.  None configures only
        when :meth:`configure_static` is called.
    """

    def __init__(
        self,
        algorithm: DynamicPPRAlgorithm,
        controller: QuotaController | None = None,
        epsilon_r: float = 0.0,
        cache: PPRCache | None = None,
        metrics: MetricsRegistry | None = None,
        drift: RateDriftDetector | None = None,
    ) -> None:
        self.algorithm = algorithm
        self.controller = controller
        self.epsilon_r = epsilon_r
        self.drift = drift
        self.cache = cache
        self.metrics = metrics if metrics is not None else get_metrics()
        self.decisions: list[QuotaDecision] = []

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

        if self.drift is not None:
            self.drift.restart_period()
        return replay(
            workload,
            MeasuredExecutor(
                self.algorithm,
                self.metrics,
                on_answer,
                cache=self.cache,
            ),
            seed_queue=seed_queue,
            on_arrival=self._on_arrival,
        )

    # ------------------------------------------------------------------
    def _on_arrival(self, request: Request) -> float:
        """Feed the drift trigger; re-solve when it fires.

        Returns the seconds the server spent applying a new beta (the
        index is shared state it must rebuild in-line); the solve
        itself is not charged.
        """
        drift = self.drift
        if drift is None:
            return 0.0
        drift.observe(request.kind, request.arrival)
        if self.controller is None:
            return 0.0
        drifted = drift.check(request.arrival)
        if drifted is None:
            return 0.0
        drift.rearm(*drifted)
        decision, apply_s = retune(
            self.controller, self.algorithm, *drifted, self.metrics
        )
        self.decisions.append(decision)
        return apply_s
