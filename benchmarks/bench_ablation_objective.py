"""Ablation: the two-regime objective dispatch (why Lemma 1 matters).

Quota switches its objective from the Eq. 2 response-time estimate
(stable regime) to the raw traffic intensity rho (unstable regime).
This ablation overloads the Webs-like dataset far past saturation and
compares:

* ``Quota``      — full dispatch (detects instability, minimizes rho),
* ``Quota-eq2``  — forced to keep minimizing the (now meaningless)
  Eq. 2 continuation even when no beta can stabilize the queue,
* ``Agenda``     — the untouched default.

Expected shape: under genuine overload the rho-minimizing dispatch
yields the lowest (still large) response times; the forced-Eq. 2
variant picks inferior configurations because its objective is
dominated by the clipped denominator rather than the real growth rate.
"""

from __future__ import annotations

import math

import numpy as np

from benchmarks.common import scoped
from repro.core.calibration import calibrated_cost_model
from repro.core.optimizer import ConstrainedProblem
from repro.core.quota import LOG_HI, LOG_LO, QuotaController
from repro.core.system import QuotaSystem
from repro.evaluation.datasets import get_dataset
from repro.evaluation.report import banner, format_table
from repro.ppr.registry import build_algorithm
from repro.queueing.workload import generate_workload


class Eq2OnlyController(QuotaController):
    """Degenerate controller that never switches to the rho objective."""

    def configure(self, lambda_q, lambda_u, warm_start=None, quick=False):
        import time as _time

        started = _time.perf_counter()
        bounds = tuple((LOG_LO, LOG_HI) for _ in self.param_names)
        starts = self._starting_points(warm_start, quick)
        problem = ConstrainedProblem(
            objective=lambda x: self._response_time(x, lambda_q, lambda_u),
            constraints=(),
            bounds=bounds,
        )
        final = self.optimizer.minimize_multistart(problem, starts)
        beta = self._beta_of(final.x)
        from repro.core.quota import STABLE, QuotaDecision

        return QuotaDecision(
            beta=beta,
            regime=STABLE,  # it *believes* Eq. 2 applies
            predicted_response_time=final.value,
            traffic_intensity=self._rho(final.x, lambda_q, lambda_u),
            configure_seconds=_time.perf_counter() - started,
            optimizer_result=final,
        )


def run_variant(label, controller_cls, spec, graph, workload, lq, lu):
    algorithm = build_algorithm("Agenda", graph.copy(), spec.walk_cap, seed=0)
    controller = None
    if controller_cls is not None:
        model = calibrated_cost_model(algorithm, num_queries=4, rng=16)
        controller = controller_cls(
            model, extra_starts=[algorithm.get_hyperparameters()]
        )
    system = QuotaSystem(algorithm, controller)
    decision = None
    if controller is not None:
        decision = system.configure_static(lq, lu)
    result = system.process(workload)
    rho = decision.traffic_intensity if decision else float("nan")
    return [
        label,
        result.mean_query_response_time() * 1e3,
        result.empirical_load(),
        rho if not math.isnan(rho) else "-",
    ]


def test_ablation_objective_dispatch(benchmark, report):
    report(banner("Ablation: stable/unstable objective dispatch"))
    spec = get_dataset("webs")
    window = scoped(3.0, 6.0)
    # drive far past saturation
    lq = spec.lambda_q * 10
    lu = spec.lambda_q * 20

    def experiment():
        graph = spec.build(seed=8)
        workload = generate_workload(graph, lq, lu, window, rng=17)
        return [
            run_variant("Agenda (default)", None, spec, graph, workload, lq, lu),
            run_variant("Quota (dispatch)", QuotaController, spec, graph,
                        workload, lq, lu),
            run_variant("Quota-eq2 (no dispatch)", Eq2OnlyController, spec,
                        graph, workload, lq, lu),
        ]

    rows = benchmark.pedantic(experiment, rounds=1, iterations=1)
    report(
        format_table(
            ["variant", "R (ms)", "measured load", "model rho"],
            rows,
            title=f"webs-like overloaded: lq={lq:g}, lu={lu:g}",
        )
    )
