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

import time

from benchmarks.common import SystemSpec, record_verdict, run_system, scoped
from repro.core.optimizer import ConstrainedProblem
from repro.core.quota import LOG_HI, LOG_LO, STABLE, QuotaController, QuotaDecision
from repro.evaluation.datasets import get_dataset
from repro.evaluation.report import banner, format_table
from repro.queueing.workload import generate_workload


class Eq2OnlyController(QuotaController):
    """Degenerate controller that never switches to the rho objective."""

    def configure(self, lambda_q, lambda_u, warm_start=None, quick=False):
        started = time.perf_counter()
        bounds = tuple((LOG_LO, LOG_HI) for _ in self.param_names)
        starts = self._starting_points(warm_start, quick)
        problem = ConstrainedProblem(
            objective=lambda x: self._response_time(x, lambda_q, lambda_u),
            constraints=(),
            bounds=bounds,
        )
        final = self.optimizer.minimize_multistart(problem, starts)
        beta = self._beta_of(final.x)
        return QuotaDecision(
            beta=beta,
            regime=STABLE,  # it *believes* Eq. 2 applies
            predicted_response_time=final.value,
            traffic_intensity=self._rho(final.x, lambda_q, lambda_u),
            configure_seconds=time.perf_counter() - started,
            optimizer_result=final,
        )


VARIANTS = (
    ("Agenda (default)", None),
    ("Quota (dispatch)", QuotaController),
    ("Quota-eq2 (no dispatch)", Eq2OnlyController),
)


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
        rows = []
        for label, controller in VARIANTS:
            cell = run_system(
                SystemSpec(label, "Agenda", use_quota=controller is not None),
                spec, graph, workload, lq, lu, seed=0,
                controller=controller or QuotaController, calibration_rng=16,
            )
            decisions = cell.system.decisions
            rho = decisions[0].traffic_intensity if decisions else "-"
            rows.append(
                [label, cell.response_ms, cell.result.empirical_load(), rho]
            )
        return rows

    rows = benchmark.pedantic(experiment, rounds=1, iterations=1)
    report(
        format_table(
            ["variant", "R (ms)", "measured load", "model rho"],
            rows,
            title=f"webs-like overloaded: lq={lq:g}, lu={lu:g}",
        )
    )
    record_verdict("ablation_objective", {r[0]: r[1] for r in rows})
