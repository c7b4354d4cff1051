"""Cost-model goodness-of-fit diagnostics.

Quota's decisions are only as good as the calibrated cost model, so a
deployment should *verify the fit* before trusting it: measure real
query/update times at a spread of hyperparameter settings and compare
them with the model's predictions.

:func:`model_fit_report` automates that: it probes the live algorithm
at multiplicative offsets around the current setting, measures mean
query/update times at each, and summarizes prediction quality (log-
space error statistics, since costs span decades).  The
``bench_model_fit`` benchmark prints this table for every algorithm.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.calibration import scratch_copy
from repro.core.cost_models import CostModel
from repro.graph.updates import EdgeUpdate
from repro.ppr.base import DynamicPPRAlgorithm, clip_unit


@dataclass(frozen=True, slots=True)
class FitPoint:
    """One probed hyperparameter setting with measured vs predicted."""

    beta: dict[str, float]
    measured_t_q: float
    predicted_t_q: float
    measured_t_u: float
    predicted_t_u: float

    def log_error_q(self) -> float:
        """|log10(predicted / measured)| of the query time."""
        return abs(
            math.log10(
                max(self.predicted_t_q, 1e-12)
                / max(self.measured_t_q, 1e-12)
            )
        )

    def log_error_u(self) -> float:
        return abs(
            math.log10(
                max(self.predicted_t_u, 1e-12)
                / max(self.measured_t_u, 1e-12)
            )
        )


@dataclass(slots=True)
class FitReport:
    """Aggregate fit quality over the probed settings."""

    points: list[FitPoint] = field(default_factory=list)

    def mean_log_error_q(self) -> float:
        if not self.points:
            return 0.0
        return float(np.mean([p.log_error_q() for p in self.points]))

    def mean_log_error_u(self) -> float:
        if not self.points:
            return 0.0
        return float(np.mean([p.log_error_u() for p in self.points]))

    def worst_log_error(self) -> float:
        if not self.points:
            return 0.0
        return float(
            max(max(p.log_error_q(), p.log_error_u()) for p in self.points)
        )

    def within_factor(self, factor: float) -> float:
        """Fraction of probed (t_q, t_u) predictions within ``factor``x."""
        if not self.points:
            return 1.0
        budget = math.log10(factor)
        hits = sum(
            (p.log_error_q() <= budget) + (p.log_error_u() <= budget)
            for p in self.points
        )
        return hits / (2 * len(self.points))


def model_fit_report(
    algorithm: DynamicPPRAlgorithm,
    model: CostModel,
    scales: tuple[float, ...] = (0.1, 0.3, 1.0, 3.0, 10.0),
    num_queries: int = 4,
    updates_per_query: int = 1,
    rng: np.random.Generator | int | None = None,
) -> FitReport:
    """Probe the algorithm around its current beta and score the model.

    Parameters
    ----------
    algorithm:
        Live algorithm; each point probes a
        :func:`~repro.core.calibration.scratch_copy` of it (same engine
        and knobs outside beta, as calibration measured).
    model:
        The (calibrated) cost model under test.
    scales:
        Multiplicative offsets applied to every hyperparameter.
    num_queries, updates_per_query:
        Probe workload per point; the realized update:query ratio is
        fed to the model's query-factor evaluation (Agenda's amortized
        lazy term).
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    base_beta = algorithm.get_hyperparameters()
    report = FitReport()
    for scale in scales:
        probe = scratch_copy(algorithm)
        beta = {k: clip_unit(v * scale) for k, v in base_beta.items()}
        probe.set_hyperparameters(**beta)
        nodes = probe.view.nodes
        t_updates = 0.0
        t_queries = 0.0
        num_updates = 0
        for _ in range(num_queries):
            for _ in range(updates_per_query):
                u, v = rng.choice(nodes, size=2, replace=False)
                started = time.perf_counter()
                probe.apply_update(EdgeUpdate(int(u), int(v)))
                t_updates += time.perf_counter() - started
                num_updates += 1
            source = int(rng.choice(nodes))
            started = time.perf_counter()
            probe.query(source)
            t_queries += time.perf_counter() - started
        measured_t_q = t_queries / num_queries
        measured_t_u = t_updates / max(num_updates, 1)
        lambda_q, lambda_u = 1.0, float(updates_per_query)
        report.points.append(
            FitPoint(
                beta=beta,
                measured_t_q=measured_t_q,
                predicted_t_q=model.query_time(beta, lambda_q, lambda_u),
                measured_t_u=measured_t_u,
                predicted_t_u=model.update_time(beta),
            )
        )
    return report
