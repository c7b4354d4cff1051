"""Ablation: sensitivity of Quota to calibration quality.

Four variants of the cost model feeding the same controller:

* ``calibrated``  — the standard multi-point tau fit,
* ``single-probe`` — taus fit from the default setting only,
* ``noisy``       — calibrated taus perturbed by 2x random factors,
* ``unit``        — all taus = 1 (the Quota-c ablation of Figure 4).

Expected shape: calibrated < single-probe < noisy in response time —
quality degrades with calibration fidelity.  Unit constants are
*erratic*: with no cost information the optimizer drifts to a box
corner, which on this capped-K pure-Python substrate can be
accidentally cheap in a static update-heavy cell, but is catastrophic
under the dynamic/online setting (see the Quota-c series of the
Figure 4 bench — the paper's actual Quota-c experiment).  Both mixes
are printed so the erraticism is visible.
"""

from __future__ import annotations

import numpy as np

from benchmarks.common import SystemSpec, record_verdict, run_system, scoped
from repro.core.calibration import calibrate_taus, calibrated_cost_model
from repro.core.cost_models import cost_model_for
from repro.evaluation.datasets import get_dataset
from repro.evaluation.report import banner, format_table
from repro.ppr.registry import build_algorithm
from repro.queueing.workload import generate_workload

AGENDA = SystemSpec("Agenda", "Agenda")
QUOTA = SystemSpec("Quota", "Agenda", use_quota=True)


def test_ablation_calibration_quality(benchmark, report):
    report(banner("Ablation: calibration quality of the tau constants"))
    spec = get_dataset("dblp")
    window = scoped(4.0, 8.0)
    # contended cells (~0.6-0.8 load at the default configuration): the
    # value of good constants only shows when queueing delay matters
    base = spec.lambda_q
    cells = (
        ("query-heavy", base * 6, base * 3),
        ("update-heavy", base * 3, base * 6),
    )

    def experiment():
        graph = spec.build(seed=9)
        probe = build_algorithm("Agenda", graph.copy(), spec.walk_cap, seed=0)

        calibrated = calibrated_cost_model(probe, num_queries=4, rng=19)
        single = cost_model_for(probe).with_taus(
            calibrate_taus(
                probe, num_queries=4, probe_scales=(1.0,), rng=19
            )
        )
        rng = np.random.default_rng(20)
        noisy_taus = {
            k: v * float(rng.uniform(0.5, 2.0))
            for k, v in calibrated.taus.items()
        }
        noisy = calibrated.with_taus(noisy_taus)
        unit = calibrated.without_constants()

        tables = {}
        for tag, lq, lu in cells:
            workload = generate_workload(graph, lq, lu, window, rng=18)
            default = run_system(AGENDA, spec, graph, workload, seed=0)
            rows = [["Agenda default (no Quota)", default.response_ms, "-"]]
            for label, model in (
                ("calibrated (multi-probe)", calibrated),
                ("single-probe", single),
                ("noisy taus (0.5x-2x)", noisy),
                ("unit taus (Quota-c)", unit),
            ):
                cell = run_system(
                    QUOTA, spec, graph, workload, lq, lu, seed=0, model=model
                )
                beta = cell.system.decisions[0].beta
                rows.append([label, cell.response_ms, f"r_max={beta['r_max']:.1e}"])
            tables[(tag, lq, lu)] = rows
        return tables

    tables = benchmark.pedantic(experiment, rounds=1, iterations=1)
    record_verdict(
        "ablation_calibration",
        {tag: {r[0]: r[1] for r in rows} for (tag, _, _), rows in tables.items()},
    )
    for (tag, lq, lu), rows in tables.items():
        report(
            format_table(
                ["model", "R (ms)", "chosen config"],
                rows,
                title=f"dblp-like {tag}, lq={lq:g}, lu={lu:g}",
            )
        )
    report(
        "\nnote: unit taus (Quota-c) are erratic — see the Figure 4 "
        "bench for the dynamic setting, where they are consistently "
        "inferior (the paper's conclusion)."
    )
