"""Diagnostic bench: calibrated cost-model fit per algorithm.

Not a paper artifact — a deployment health check.  For every algorithm
Quota supports, calibrate its model on the DBLP-like dataset, probe
measured query/update times across two decades of hyperparameter
offsets, and report prediction quality (mean |log10 error| and the
fraction of predictions within 3x).

Reading guide: Quota only needs the model to *rank* configurations in
the region the optimizer explores; sub-0.5 mean log error (within ~3x)
is comfortably sufficient, and is what the multi-point calibration
delivers on this substrate.
"""

from __future__ import annotations

from benchmarks.common import record_verdict, scoped
from repro.core.calibration import calibrated_cost_model
from repro.evaluation.datasets import get_dataset
from repro.evaluation.report import banner, format_table
from repro.evaluation.validation import model_fit_report
from repro.ppr.registry import build_algorithm

ALGORITHMS = (
    "Agenda", "FORA", "FORA+", "SpeedPPR", "SpeedPPR+", "FORA-TopK",
    "TopPPR",
)


def test_model_fit(benchmark, report):
    report(banner("Diagnostic: cost-model fit per algorithm"))
    spec = get_dataset("dblp")
    scales = scoped((0.3, 1.0, 3.0), (0.1, 0.3, 1.0, 3.0, 10.0))

    def experiment():
        graph = spec.build(seed=15)
        rows = []
        for name in ALGORITHMS:
            algorithm = build_algorithm(
                name, graph.copy(), spec.walk_cap, seed=0
            )
            model = calibrated_cost_model(algorithm, num_queries=4, rng=26)
            fit = model_fit_report(
                algorithm, model, scales=scales, num_queries=3, rng=27
            )
            rows.append(
                [
                    name,
                    fit.mean_log_error_q(),
                    fit.mean_log_error_u(),
                    fit.within_factor(3.0),
                ]
            )
        return rows

    rows = benchmark.pedantic(experiment, rounds=1, iterations=1)
    report(
        format_table(
            ["algorithm", "mean |log10 err| t_q", "mean |log10 err| t_u",
             "within 3x"],
            rows,
            title=f"dblp-like, probe scales {scales}",
            float_format="{:.3f}",
        )
    )
    record_verdict("model_fit", {r[0]: r[1:] for r in rows})
