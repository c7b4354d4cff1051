"""Figure 6 reproduction: the (r_max, r_max_b) response-time landscape.

For several update/query ratios on the Pokec-like dataset, evaluate the
*measured* mean response time over a grid of hyperparameter settings —
expressed, as in the paper, as multiples of Agenda's defaults
r̄_max = 1/(alpha K) and r̄^b_max = 1/n — and mark where the default
sits versus where Quota's constrained optimization lands.

Expected shape: the default ratio (1, 1) is not the valley floor; the
Quota-selected point sits at or near the grid minimum for every
workload mix.
"""

from __future__ import annotations

import numpy as np

from benchmarks.common import scoped
from repro.core.calibration import calibrated_cost_model
from repro.core.quota import QuotaController
from repro.core.system import QuotaSystem
from repro.evaluation.datasets import get_dataset
from repro.evaluation.report import banner, format_table
from repro.ppr.registry import build_algorithm
from repro.queueing.workload import generate_workload

GRID_MULTIPLIERS = (0.05, 0.25, 1.0, 4.0)


def measure_cell(spec, graph, workload, lq, lu, r_mult, rb_mult, defaults):
    algorithm = build_algorithm("Agenda", graph.copy(), spec.walk_cap, seed=0)
    algorithm.set_hyperparameters(
        r_max=min(defaults["r_max"] * r_mult, 0.999),
        r_max_b=min(defaults["r_max_b"] * rb_mult, 0.999),
    )
    result = QuotaSystem(algorithm).process(workload)
    return result.mean_query_response_time() * 1e3


def run_ratio(dataset: str, ratio: float, window: float):
    spec = get_dataset(dataset)
    graph = spec.build(seed=0)
    lq = spec.lambda_q
    lu = lq * ratio
    workload = generate_workload(graph, lq, lu, window, rng=5)

    probe = build_algorithm("Agenda", graph.copy(), spec.walk_cap, seed=0)
    defaults = probe.default_hyperparameters()

    rows = []
    best = (None, float("inf"))
    for r_mult in GRID_MULTIPLIERS:
        for rb_mult in GRID_MULTIPLIERS:
            value = measure_cell(
                spec, graph, workload, lq, lu, r_mult, rb_mult, defaults
            )
            rows.append([f"{r_mult}x", f"{rb_mult}x", value])
            if value < best[1]:
                best = ((r_mult, rb_mult), value)

    model = calibrated_cost_model(probe, num_queries=4, rng=1)
    controller = QuotaController(model, extra_starts=[defaults])
    decision = controller.configure(lq, lu)
    quota_r = decision.beta["r_max"] / defaults["r_max"]
    quota_rb = decision.beta["r_max_b"] / defaults["r_max_b"]

    tuned = build_algorithm("Agenda", graph.copy(), spec.walk_cap, seed=0)
    tuned.set_hyperparameters(**decision.beta)
    quota_time = (
        QuotaSystem(tuned).process(workload).mean_query_response_time() * 1e3
    )
    default_time = next(
        v for rm, rb, v in rows if rm == "1.0x" and rb == "1.0x"
    )
    return rows, best, (quota_r, quota_rb, quota_time), default_time


def test_fig6_landscape(benchmark, report):
    report(banner("Figure 6: Agenda hyperparameter landscape"))
    dataset = scoped("webs", "pokec")
    ratios = scoped((0.5, 2.0), (0.25, 0.5, 1.0, 2.0))
    window = scoped(3.0, 8.0)

    def experiment():
        return {r: run_ratio(dataset, r, window) for r in ratios}

    results = benchmark.pedantic(experiment, rounds=1, iterations=1)
    for ratio, (rows, best, quota, default_time) in results.items():
        report(
            format_table(
                ["r_max/default", "r_max_b/default", "measured R (ms)"],
                rows,
                title=f"{dataset}, lambda_u/lambda_q = {ratio}",
            )
        )
        (bm, bbm), bv = best
        qr, qrb, qv = quota
        report(f"grid minimum: ({bm}x, {bbm}x) at {bv:.2f} ms")
        report(f"original Agenda setting (1x, 1x): {default_time:.2f} ms")
        report(
            f"Quota selected ({qr:.2f}x, {qrb:.2f}x) measuring {qv:.2f} ms\n"
        )
