"""Figure 4 reproduction: evolving workloads + the Quota-c ablation.

Five dynamic rate patterns on the DBLP-like dataset; response time is
tracked per 10-second tranche for Agenda (default), Quota (online
re-optimization every 1 s), and Quota-c (same loop but the cost model
ignores the hidden constants).  Empirical absolute PPR error is sampled
alongside to confirm tuning does not degrade accuracy.

Expected shape: Quota tracks the drifting rates and stays below Agenda;
Quota-c picks inferior configurations; all three keep comparable,
small, empirical error.
"""

from __future__ import annotations

import numpy as np

from benchmarks.common import scoped
from repro.core.calibration import calibrated_cost_model
from repro.core.quota import QuotaController
from repro.core.system import QuotaSystem
from repro.evaluation.datasets import get_dataset
from repro.evaluation.metrics import AccuracySummary
from repro.evaluation.report import banner, format_series
from repro.ppr.registry import build_algorithm
from repro.queueing.kinds import QUERY, UPDATE
from repro.queueing.workload import (
    dynamic_pattern_segments,
    generate_segmented_workload,
)

PATTERNS = (
    "query-inclined",
    "balanced",
    "update-inclined",
    "update-declined",
    "query-declined",
)
TRANCHE = 10.0


def tranche_means(result, total_time):
    buckets = int(np.ceil(total_time / TRANCHE))
    sums = np.zeros(buckets)
    counts = np.zeros(buckets)
    for c in result.completed:
        if c.kind != QUERY:
            continue
        b = min(int(c.arrival // TRANCHE), buckets - 1)
        sums[b] += c.response_time
        counts[b] += 1
    return [float(s / n) if n else 0.0 for s, n in zip(sums, counts)]


def run_pattern(pattern: str, total_time: float, seed: int = 0):
    spec = get_dataset("dblp")
    graph = spec.build(seed=seed)
    # The paper's absolute rates (10->30 queries/s vs ~50 ms C++ Agenda
    # queries on DBLP) put the queue under real contention; re-anchor
    # to this substrate's ~2.5 ms queries the same way (DESIGN.md §3).
    base = spec.lambda_q
    segments = dynamic_pattern_segments(
        pattern, total_time, rng=seed,
        q_range=(2.0 * base, 8.0 * base),
        u_range=(1.0 * base, 4.0 * base),
        q_fixed=1.0 * base,
        u_fixed=1.0 * base,
    )
    workload = generate_segmented_workload(graph, segments, rng=seed + 1)

    shadow = graph.copy()
    for request in workload:
        if request.kind == UPDATE:
            request.update.apply(shadow)

    series: dict[str, list[float]] = {}
    errors: dict[str, float] = {}
    variants = (
        ("Agenda", False, False),
        ("Quota", True, False),
        ("Quota-c", True, True),
    )
    for label, use_quota, drop_constants in variants:
        algorithm = build_algorithm("Agenda", graph.copy(), spec.walk_cap, seed=seed)
        controller = None
        reopt = None
        if use_quota:
            model = calibrated_cost_model(algorithm, num_queries=4, rng=seed + 2)
            if drop_constants:
                model = model.without_constants()
            controller = QuotaController(
                model, extra_starts=[algorithm.get_hyperparameters()]
            )
            reopt = 1.0
        system = QuotaSystem(algorithm, controller, reoptimize_every=reopt)

        samples: list[float] = []
        counter = {"n": 0}

        def callback(request, estimate, pending):
            counter["n"] += 1
            if counter["n"] % 25 == 0:
                summary = AccuracySummary.compare(
                    estimate, shadow, algorithm.params.alpha
                )
                samples.append(summary.max_absolute_error)

        result = system.process(workload, query_callback=callback)
        series[label] = [v * 1e3 for v in tranche_means(result, total_time)]
        errors[label] = float(np.mean(samples)) if samples else 0.0
    return series, errors, total_time


def test_fig4_dynamic_patterns(benchmark, report):
    report(banner("Figure 4: dynamic workloads (response time per tranche)"))
    total_time = scoped(20.0, 60.0)
    patterns = scoped(PATTERNS[:3], PATTERNS)

    def experiment():
        return {p: run_pattern(p, total_time) for p in patterns}

    results = benchmark.pedantic(experiment, rounds=1, iterations=1)
    for pattern, (series, errors, t) in results.items():
        windows = [
            f"{int(i * TRANCHE)}-{int((i + 1) * TRANCHE)}s"
            for i in range(int(np.ceil(t / TRANCHE)))
        ]
        report(
            format_series(
                "window",
                windows,
                series,
                title=f"pattern: {pattern} — response time (ms)",
                float_format="{:.2f}",
            )
        )
        report(
            "empirical max-abs error: "
            + ", ".join(f"{k}={v:.4f}" for k, v in errors.items())
            + "\n"
        )
