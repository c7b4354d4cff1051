"""Table VIII reproduction: per-sub-process cost balance.

LJ-like dataset (quick scope: DBLP-like), lambda_u in {lambda_q/2,
2 lambda_q}; Agenda at its default vs Quota-Agenda, with the mean cost
of every sub-process (Forward Push, Lazy Index Update, Random Walk,
Reverse Push, Index Inaccuracy Update) printed alongside the mean
query/update cost and the final response time.

Expected shape: Quota *re-balances* — it typically spends more on
Forward/Reverse Push and less on the Lazy Index Update than the
default, buying a lower response time (the paper's 86% headline case).
"""

from __future__ import annotations

from benchmarks.common import SystemSpec, record_verdict, run_system, scoped
from repro.evaluation.datasets import get_dataset
from repro.evaluation.metrics import improvement_percent
from repro.evaluation.report import banner, format_table
from repro.queueing.kinds import QUERY, UPDATE
from repro.queueing.workload import generate_workload

SUBPROCESSES = (
    "Forward Push",
    "Lazy Index Update",
    "Random Walk",
    "Reverse Push",
    "Index Inaccuracy Update",
)


def subprocess_costs(cell):
    """Mean ms per query or update of every sub-process, then the
    cell's mean query/update cost and response time."""
    result = cell.result
    timers = cell.system.algorithm.timers
    queries = max(len(result.of_kind(QUERY)), 1)
    updates = max(len(result.of_kind(UPDATE)), 1)
    per_query = ("Forward Push", "Lazy Index Update", "Random Walk")
    costs = {}
    for name in SUBPROCESSES:
        divisor = queries if name in per_query else updates
        costs[name] = timers.total(name) / divisor * 1e3
    costs["Query cost"] = result.mean_service_time(QUERY) * 1e3
    costs["Update cost"] = result.mean_service_time(UPDATE) * 1e3
    costs["Response time"] = cell.response_ms
    return costs


def test_table8_cost_balance(benchmark, report):
    report(banner("Table VIII: sub-process cost balance (ms)"))
    dataset = scoped("dblp", "lj")
    spec = get_dataset(dataset)
    window = scoped(4.0, 10.0)
    lq = spec.lambda_q
    lambda_us = (lq / 2, lq * 2)

    def experiment():
        out = {}
        for lu in lambda_us:
            graph = spec.build(seed=7)
            workload = generate_workload(graph, lq, lu, window, rng=15)
            out[lu] = [
                subprocess_costs(
                    run_system(
                        SystemSpec("Agenda", "Agenda", use_quota),
                        spec, graph, workload, lq, lu,
                        seed=0, calibration_rng=14,
                    )
                )
                for use_quota in (False, True)
            ]
        return out

    results = benchmark.pedantic(experiment, rounds=1, iterations=1)
    metrics = list(SUBPROCESSES) + ["Query cost", "Update cost", "Response time"]
    headers = ["sub-process"]
    for lu in lambda_us:
        headers += [f"Agenda lu={lu:g}", f"Quota lu={lu:g}"]
    rows = []
    for metric in metrics:
        row = [metric]
        for lu in lambda_us:
            agenda, quota = results[lu]
            row += [agenda[metric], quota[metric]]
        rows.append(row)
    report(format_table(headers, rows, title=f"dataset: {dataset}"))
    reductions = {}
    for lu in lambda_us:
        agenda, quota = results[lu]
        reduced = improvement_percent(
            agenda["Response time"], quota["Response time"]
        )
        report(f"-> lu={lu:g}: response time reduced {reduced:.1f}%")
        reductions[f"{lu:g}"] = reduced
    record_verdict("table8_cost_balance", {"reduction_pct": reductions})
