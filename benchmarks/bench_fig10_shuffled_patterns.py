"""Figure 10 reproduction: dynamic patterns in shuffled order.

The appendix-F robustness check: chain several of the Figure 4 rate
patterns back-to-back in a shuffled order and confirm Quota's online
loop keeps tracking (response time stays at or below Agenda's default
throughout, accuracy preserved).
"""

from __future__ import annotations

import numpy as np

from benchmarks.common import scoped
from repro.core.calibration import calibrated_cost_model
from repro.core.quota import QuotaController
from repro.core.system import QuotaSystem
from repro.evaluation.datasets import get_dataset
from repro.evaluation.report import banner, format_series
from repro.ppr.registry import build_algorithm
from repro.queueing.kinds import QUERY
from repro.queueing.workload import (
    dynamic_pattern_segments,
    generate_segmented_workload,
)

TRANCHE = 10.0


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
        for label, use_quota in (("Agenda", False), ("Quota", True)):
            algorithm = build_algorithm(
                "Agenda", graph.copy(), spec.walk_cap, seed=0
            )
            controller = None
            reopt = None
            if use_quota:
                controller = QuotaController(
                    calibrated_cost_model(algorithm, num_queries=4, rng=5),
                    extra_starts=[algorithm.get_hyperparameters()],
                )
                reopt = 1.0
            system = QuotaSystem(algorithm, controller, reoptimize_every=reopt)
            result = system.process(workload)
            buckets = int(np.ceil(total / TRANCHE))
            sums = np.zeros(buckets)
            counts = np.zeros(buckets)
            for c in result.completed:
                if c.kind != QUERY:
                    continue
                b = min(int(c.arrival // TRANCHE), buckets - 1)
                sums[b] += c.response_time
                counts[b] += 1
            series[label] = [
                float(s / n) * 1e3 if n else 0.0
                for s, n in zip(sums, counts)
            ]
        return series, total

    series, total = benchmark.pedantic(experiment, rounds=1, iterations=1)
    windows = [
        f"{int(i * TRANCHE)}-{int((i + 1) * TRANCHE)}s"
        for i in range(int(np.ceil(total / TRANCHE)))
    ]
    report(
        format_series(
            "window",
            windows,
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
