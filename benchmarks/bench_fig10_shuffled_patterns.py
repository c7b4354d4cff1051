"""Figure 10 reproduction: dynamic patterns in shuffled order.

The appendix-F robustness check: chain several of the Figure 4 rate
patterns back-to-back in a shuffled order and confirm Quota's online
loop keeps tracking (response time stays at or below Agenda's default
throughout, accuracy preserved).
"""

from __future__ import annotations

import numpy as np

from benchmarks.common import (
    SystemSpec,
    record_verdict,
    run_system,
    scoped,
    tranche_labels,
    tranche_means,
)
from repro.core.rates import RateDriftDetector
from repro.evaluation.datasets import get_dataset
from repro.evaluation.report import banner, format_series
from repro.queueing.workload import (
    dynamic_pattern_segments,
    generate_segmented_workload,
)

TRANCHE = 10.0
SYSTEMS = (
    SystemSpec("Agenda", "Agenda"),
    SystemSpec("Quota", "Agenda", use_quota=True),
)


def test_fig10_shuffled_patterns(benchmark, report):
    report(banner("Figure 10: shuffled dynamic patterns"))
    spec = get_dataset("dblp")
    per_pattern = scoped(15.0, 40.0)
    order = ["update-inclined", "query-declined", "balanced",
             "query-inclined", "update-declined"]
    order = order[: scoped(3, 5)]

    def experiment():
        rng = np.random.default_rng(3)
        graph = spec.build(seed=1)
        segments = []
        for pattern in order:
            segments += dynamic_pattern_segments(
                pattern, per_pattern, rng=rng
            )
        workload = generate_segmented_workload(graph, segments, rng=4)
        total = sum(s.duration for s in segments)
        series = {}
        for system in SYSTEMS:
            drift = RateDriftDetector.periodic(1.0) if system.use_quota else None
            cell = run_system(
                system, spec, graph, workload, seed=0, drift=drift,
                calibration_rng=5,
            )
            series[system.label] = tranche_means(cell.result, total, TRANCHE)
        return series, total

    series, total = benchmark.pedantic(experiment, rounds=1, iterations=1)
    report(
        format_series(
            "window",
            tranche_labels(total, TRANCHE),
            series,
            title=f"shuffled patterns {order} — response time (ms)",
            float_format="{:.2f}",
        )
    )
    means = {k: float(np.mean(v)) for k, v in series.items()}
    report(
        f"-> overall mean: Agenda {means['Agenda']:.2f} ms, "
        f"Quota {means['Quota']:.2f} ms"
    )
    record_verdict("fig10_shuffled_patterns", {"mean_ms": means})
