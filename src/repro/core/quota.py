"""The Quota controller: workload-aware hyperparameter configuration.

Given a calibrated cost model and the current arrival rates, the
controller materializes the two-regime objective of Section IV-A —

* **stable** (some beta satisfies rho(beta) < 1): minimize the Eq. 2
  response-time estimate R_q(beta) subject to the stability constraint,
* **unstable** (no beta can stabilize the queue): minimize the traffic
  intensity rho(beta) itself (Lemma 1),

— and solves it with the Augmented Lagrangian optimizer.  The search
runs in log10(beta) space (the thresholds span many decades) from a
small lattice of starting points; every evaluation is a closed-form
model call, which is why configuration costs milliseconds while Grid /
Random / Bayesian search cost full PPR runs (Table IV).
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from numpy.typing import NDArray

from repro.core.cost_models import CostModel
from repro.core.optimizer import (
    AugmentedLagrangianOptimizer,
    ConstrainedProblem,
    OptimizationResult,
)
from repro.core.rates import check_rates
from repro.queueing.theory import (
    expected_response_time,
    heavy_traffic_response_time,
    mm1_response_time,
    traffic_intensity,
)

if TYPE_CHECKING:
    from repro.obs.metrics import MetricsRegistry
    from repro.ppr.base import DynamicPPRAlgorithm

FloatArray = NDArray[np.float64]

#: log10 search box for every threshold hyperparameter in (0, 1)
LOG_LO = -8.0
LOG_HI = -1e-6

STABLE = "stable"
UNSTABLE = "unstable"

#: floor of the ``1 - rho`` denominator in the response-time objective:
#: L-BFGS-B cannot digest inf, so past rho = 1 it sees a finite
#: continuation (the stability constraint steers the search back)
SLACK_FLOOR = 1e-12

#: relative change of some hyperparameter below which a new beta is not
#: worth re-applying (an index rebuild for the index-based algorithms)
BETA_CHANGE_THRESHOLD = 0.10


def beta_moved(current: dict[str, float], proposed: dict[str, float]) -> bool:
    """True when any hyperparameter of ``proposed`` moved past
    :data:`BETA_CHANGE_THRESHOLD` relative to ``current``."""
    for name, new in proposed.items():
        old = current.get(name, 0.0)
        if old <= 0:
            return True
        if abs(new - old) / old > BETA_CHANGE_THRESHOLD:
            return True
    return False


@dataclass(slots=True)
class QuotaDecision:
    """Outcome of one configuration pass."""

    beta: dict[str, float]
    regime: str
    predicted_response_time: float
    traffic_intensity: float
    configure_seconds: float
    optimizer_result: OptimizationResult

    @property
    def is_stable(self) -> bool:
        return self.regime == STABLE


class QuotaController:
    """Maps (lambda_q, lambda_u) to the response-time-optimal beta.

    Parameters
    ----------
    cost_model:
        Calibrated (or deliberately uncalibrated, for the Quota-c
        ablation) cost model of the deployed base algorithm.
    cv_q, cv_u:
        Service-time coefficients of variation plugged into Eq. 2.
        The paper fixes these rather than tuning them.
    optimizer:
        Augmented Lagrangian instance; a default is built if omitted.
    response_model:
        Which stable-regime response-time estimate to optimize — the
        paper notes other queueing estimates "are also applicable":
        ``"pk"`` (Eq. 2, Pollaczek–Khinchine style; default),
        ``"mm1"`` (the plain M/M/1 form), or
        ``"heavy-traffic"`` (the Kingman G/G/1 diffusion form).
    """

    RESPONSE_MODELS = ("pk", "mm1", "heavy-traffic")

    def __init__(
        self,
        cost_model: CostModel,
        cv_q: float = 1.0,
        cv_u: float = 1.0,
        optimizer: AugmentedLagrangianOptimizer | None = None,
        stability_margin: float = 1e-6,
        response_model: str = "pk",
    ) -> None:
        if response_model not in self.RESPONSE_MODELS:
            raise ValueError(
                f"response_model must be one of {self.RESPONSE_MODELS}, "
                f"got {response_model!r}"
            )
        self.cost_model = cost_model
        self.cv_q = cv_q
        self.cv_u = cv_u
        self.optimizer = optimizer or AugmentedLagrangianOptimizer()
        self.stability_margin = stability_margin
        self.response_model = response_model

    # ------------------------------------------------------------------
    # Model plumbing (log-space)
    # ------------------------------------------------------------------
    @property
    def param_names(self) -> tuple[str, ...]:
        return self.cost_model.param_names

    def _beta_of(self, x: FloatArray) -> dict[str, float]:
        return self.cost_model.beta_dict(np.power(10.0, x))

    def _rho(self, x: FloatArray, lambda_q: float, lambda_u: float) -> float:
        t_q, t_u = self.predicted_times(self._beta_of(x), lambda_q, lambda_u)
        return traffic_intensity(lambda_q, lambda_u, t_q, t_u)

    def _response_time(
        self, x: FloatArray, lambda_q: float, lambda_u: float
    ) -> float:
        """The chosen :mod:`repro.queueing.theory` estimate at ``x``,
        continued past rho = 1 with the ``1 - rho`` floor
        :data:`SLACK_FLOOR`."""
        t_q, t_u = self.predicted_times(self._beta_of(x), lambda_q, lambda_u)
        if self.response_model == "pk":
            return expected_response_time(
                lambda_q, lambda_u, t_q, t_u, self.cv_q, self.cv_u,
                slack_floor=SLACK_FLOOR,
            )
        if self.response_model == "mm1":
            return mm1_response_time(
                lambda_q, lambda_u, t_q, t_u, slack_floor=SLACK_FLOOR
            )
        # Kingman G/G/1; Poisson arrivals -> C_a^2 = 1
        return heavy_traffic_response_time(
            lambda_q, lambda_u, t_q, t_u, self.cv_q, self.cv_u,
            slack_floor=SLACK_FLOOR,
        )

    def predicted_times(
        self, beta: dict[str, float], lambda_q: float, lambda_u: float
    ) -> tuple[float, float]:
        """(t_q, t_u) the model predicts at ``beta``."""
        return (
            self.cost_model.query_time(beta, lambda_q, lambda_u),
            self.cost_model.update_time(beta),
        )

    # ------------------------------------------------------------------
    def _to_log(self, beta: dict[str, float]) -> FloatArray:
        values = [beta[name] for name in self.param_names]
        clipped = np.clip(
            np.asarray(values, dtype=np.float64), 1e-12, 1.0 - 1e-12
        )
        return np.asarray(np.log10(clipped), dtype=np.float64)

    def _starting_points(
        self, warm_start: dict[str, float] | None, quick: bool
    ) -> list[FloatArray]:
        """Log-space lattice, the model's default beta, and the warm start.

        ``quick`` shrinks the lattice for the online re-optimization
        loop, where a warm start from the previous decision makes the
        full multistart sweep unnecessary (and its cost — charged to
        the virtual server clock — unwelcome).
        """
        lattice_axis = (-5.0, -1.5) if quick else (-6.0, -4.0, -2.0, -0.7)
        dim = len(self.param_names)
        starts: list[FloatArray] = [
            np.array(point, dtype=np.float64)
            for point in itertools.product(lattice_axis, repeat=dim)
        ]
        if self.cost_model.default_beta:
            starts.append(self._to_log(self.cost_model.default_beta))
        if warm_start is not None:
            starts.append(self._to_log(warm_start))
        return starts

    def configure(
        self,
        lambda_q: float,
        lambda_u: float,
        warm_start: dict[str, float] | None = None,
        quick: bool = False,
    ) -> QuotaDecision:
        """Algorithm 1: pick the regime, optimize, return beta*.

        Raises ValueError for rates :func:`~repro.core.rates.check_rates`
        refuses (non-positive or non-finite lambda_q, negative or
        non-finite lambda_u).
        """
        check_rates(lambda_q, lambda_u)
        started = time.perf_counter()
        bounds = tuple((LOG_LO, LOG_HI) for _ in self.param_names)
        starts = self._starting_points(warm_start, quick)

        # Step A: can any beta stabilize the queue?  (line 5 of Alg. 1)
        rho_problem = ConstrainedProblem(
            objective=lambda x: self._rho(x, lambda_q, lambda_u),
            constraints=(),
            bounds=bounds,
        )
        rho_result = self.optimizer.minimize_multistart(rho_problem, starts)

        if rho_result.value >= 1.0:
            # Unstable regime: minimizing rho is the Lemma 1 objective.
            decision_x = rho_result.x
            regime = UNSTABLE
            final = rho_result
        else:
            # Stable regime: Eq. 3 with the stability constraint.
            problem = ConstrainedProblem(
                objective=lambda x: self._response_time(
                    x, lambda_q, lambda_u
                ),
                constraints=(
                    lambda x: self._rho(x, lambda_q, lambda_u)
                    - 1.0
                    + self.stability_margin,
                ),
                bounds=bounds,
            )
            # warm-start from the rho minimizer too: always feasible
            final = self.optimizer.minimize_multistart(
                problem, starts + [rho_result.x]
            )
            decision_x = final.x
            regime = STABLE

        beta = self._beta_of(decision_x)
        rho = self._rho(decision_x, lambda_q, lambda_u)
        predicted = (
            self._response_time(decision_x, lambda_q, lambda_u)
            if regime == STABLE
            else math.inf
        )
        return QuotaDecision(
            beta=beta,
            regime=regime,
            predicted_response_time=predicted,
            traffic_intensity=rho,
            configure_seconds=time.perf_counter() - started,
            optimizer_result=final,
        )


def retune(
    controller: QuotaController,
    algorithm: DynamicPPRAlgorithm,
    lambda_q: float,
    lambda_u: float,
    metrics: MetricsRegistry,
) -> tuple[QuotaDecision, float]:
    """The online loop's one solve-and-apply step.

    Warm-starts a quick solve at the algorithm's live beta and applies
    the result only when :func:`beta_moved` calls it moved (for the
    index-based algorithms, applying is an index rebuild).  Returns the
    decision and the seconds the apply took, which are also observed
    into ``service.reconfigure``; a beta that did not move costs 0.
    """
    current = algorithm.get_hyperparameters()
    decision = controller.configure(
        lambda_q, lambda_u, warm_start=current, quick=True
    )
    if not beta_moved(current, decision.beta):
        return decision, 0.0
    started = time.perf_counter()
    algorithm.set_hyperparameters(**decision.beta)
    apply_s = time.perf_counter() - started
    metrics.histogram("service.reconfigure").observe(apply_s)
    return decision, apply_s
