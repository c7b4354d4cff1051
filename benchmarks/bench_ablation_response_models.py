"""Ablation: choice of the stable-regime response-time estimate.

The paper uses the Eq. 2 (Pollaczek–Khinchine style) estimate but notes
other queueing estimates "are also applicable".  This bench configures
the same Agenda deployment with all three implemented estimates —
Eq. 2 ("pk"), plain M/M/1, and the Kingman heavy-traffic form — on a
moderately and a heavily loaded cell.

Expected shape: all three land in the same neighbourhood (they agree to
first order), with the heavy-traffic form at its best near saturation;
the choice of estimate matters far less than having calibrated costs at
all (see the calibration ablation).
"""

from __future__ import annotations

from functools import partial

from benchmarks.common import SystemSpec, record_verdict, run_system, scoped
from repro.core.calibration import calibrated_cost_model
from repro.core.quota import QuotaController
from repro.evaluation.datasets import get_dataset
from repro.evaluation.report import banner, format_table
from repro.ppr.registry import build_algorithm
from repro.queueing.workload import generate_workload

MODELS = ("pk", "mm1", "heavy-traffic")


def test_ablation_response_models(benchmark, report):
    report(banner("Ablation: Eq.2 vs M/M/1 vs heavy-traffic estimate"))
    spec = get_dataset("dblp")
    window = scoped(4.0, 8.0)
    base = spec.lambda_q
    cells = ((base * 2, base * 2), (base * 4, base * 4))

    def experiment():
        graph = spec.build(seed=12)
        probe = build_algorithm("Agenda", graph.copy(), spec.walk_cap, seed=0)
        model = calibrated_cost_model(probe, num_queries=4, rng=22)
        tables = {}
        for lq, lu in cells:
            workload = generate_workload(graph, lq, lu, window, rng=23)
            baseline = run_system(
                SystemSpec("Agenda", "Agenda"), spec, graph, workload, seed=0
            )
            rows = [["Agenda default", baseline.response_ms, "-"]]
            for name in MODELS:
                cell = run_system(
                    SystemSpec(f"Quota ({name})", "Agenda", use_quota=True),
                    spec, graph, workload, lq, lu, seed=0, model=model,
                    controller=partial(QuotaController, response_model=name),
                )
                r_max = cell.system.decisions[0].beta["r_max"]
                rows.append([f"Quota ({name})", cell.response_ms, f"{r_max:.2e}"])
            tables[(lq, lu)] = rows
        return tables

    tables = benchmark.pedantic(experiment, rounds=1, iterations=1)
    for (lq, lu), rows in tables.items():
        report(
            format_table(
                ["configuration", "mean R (ms)", "chosen r_max"],
                rows,
                title=f"dblp-like, lq={lq:g}, lu={lu:g}",
            )
        )
    record_verdict(
        "ablation_response_models",
        {f"{lq:g}/{lu:g}": {r[0]: r[1] for r in rows}
         for (lq, lu), rows in tables.items()},
    )
