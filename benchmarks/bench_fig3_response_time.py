"""Figure 3 reproduction: mean query response time vs lambda_u/lambda_q.

The paper's headline experiment: on each dataset, fix lambda_q and
sweep the update/query ratio over {1/8 .. 8}; compare Quota-Agenda
(plus its Seed variant Quota*) against Agenda, FORA, FORA+, FORA*
(FORA+ with Seed), and ResAcc, all replaying the same Poisson workload.

Expected shape (paper §VIII-D): Quota matches or beats every baseline
on almost every cell, with the margin largest at high contention; in
extremely update-heavy cells Quota converges toward the cheap-update
baselines.
"""

from __future__ import annotations

from benchmarks.common import (
    FIG3_SYSTEMS,
    RATIO_LABELS,
    dataset_names,
    dataset_workload,
    ratio_sweep,
    run_system,
)
from repro.evaluation.report import banner, format_series


SEEDS = (0, 1)  # average replays: measured-time jitter is material
                 # in the near-saturation cells (REPRODUCTION.md §4)


def run_dataset(name: str) -> tuple[list[str], dict[str, list[float]]]:
    ratios = ratio_sweep()
    series: dict[str, list[float]] = {s.label: [] for s in FIG3_SYSTEMS}
    for ratio in ratios:
        sums = {s.label: 0.0 for s in FIG3_SYSTEMS}
        for seed in SEEDS:
            spec, graph, workload, lq, lu = dataset_workload(
                name, ratio, seed=seed
            )
            for system in FIG3_SYSTEMS:
                result = run_system(
                    system, spec, graph, workload, lq, lu, seed=seed
                )
                sums[system.label] += (
                    result.mean_query_response_time() * 1e3
                )
        for label, total in sums.items():
            series[label].append(total / len(SEEDS))
    labels = [RATIO_LABELS[r] for r in ratios]
    return labels, series


def test_fig3_response_time(benchmark, report):
    report(banner("Figure 3: response time (ms) vs update/query ratio"))

    def experiment():
        output = {}
        for name in dataset_names():
            output[name] = run_dataset(name)
        return output

    results = benchmark.pedantic(experiment, rounds=1, iterations=1)
    for name, (labels, series) in results.items():
        report(
            format_series(
                "lambda_u/lambda_q",
                labels,
                series,
                title=f"dataset: {name}",
                float_format="{:.2f}",
            )
        )
        quota = series["Quota"]
        agenda = series["Agenda"]
        wins = sum(1 for q, a in zip(quota, agenda) if q <= a * 1.05)
        report(
            f"-> Quota <= Agenda (5% tolerance) on {wins}/{len(quota)} "
            f"ratios of {name}\n"
        )
