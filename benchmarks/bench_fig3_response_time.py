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
    dataset_names,
    ratio_series,
    ratio_table,
    record_verdict,
)
from repro.evaluation.report import banner



def test_fig3_response_time(benchmark, report):
    report(banner("Figure 3: response time (ms) vs update/query ratio"))

    def experiment():
        output = {}
        for name in dataset_names():
            output[name] = ratio_series(name, FIG3_SYSTEMS)
        return output

    results = benchmark.pedantic(experiment, rounds=1, iterations=1)
    verdict = {}
    for name, (labels, series) in results.items():
        report(ratio_table(labels, series, f"dataset: {name}"))
        quota = series["Quota"]
        agenda = series["Agenda"]
        wins = sum(1 for q, a in zip(quota, agenda) if q <= a * 1.05)
        report(
            f"-> Quota <= Agenda (5% tolerance) on {wins}/{len(quota)} "
            f"ratios of {name}\n"
        )
        verdict[name] = {"quota_wins": wins, "ratios": len(quota)}
    record_verdict("fig3_response_time", verdict)
