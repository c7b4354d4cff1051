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

from benchmarks.common import SystemSpec, scoped
from repro.core.calibration import calibrated_cost_model
from repro.core.quota import QuotaController
from repro.core.system import QuotaSystem
from repro.evaluation.datasets import get_dataset
from repro.evaluation.report import banner, format_table
from repro.ppr.registry import build_algorithm
from repro.queueing.kinds import QUERY, UPDATE
from repro.queueing.workload import generate_workload

SUBPROCESSES = (
    "Forward Push",
    "Lazy Index Update",
    "Random Walk",
    "Reverse Push",
    "Index Inaccuracy Update",
)


def run_cell(spec, graph, workload, lq, lu, use_quota):
    algorithm = build_algorithm("Agenda", graph.copy(), spec.walk_cap, seed=0)
    controller = None
    if use_quota:
        controller = QuotaController(
            calibrated_cost_model(algorithm, num_queries=4, rng=14),
            extra_starts=[algorithm.get_hyperparameters()],
        )
    system = QuotaSystem(algorithm, controller)
    if controller is not None:
        system.configure_static(lq, lu)
    algorithm.timers.reset()
    result = system.process(workload)
    queries = max(len(result.of_kind(QUERY)), 1)
    updates = max(len(result.of_kind(UPDATE)), 1)
    per_query = ("Forward Push", "Lazy Index Update", "Random Walk")
    costs = {}
    for name in SUBPROCESSES:
        divisor = queries if name in per_query else updates
        costs[name] = algorithm.timers.total(name) / divisor * 1e3
    costs["Query cost"] = result.mean_service_time(QUERY) * 1e3
    costs["Update cost"] = result.mean_service_time(UPDATE) * 1e3
    costs["Response time"] = result.mean_query_response_time() * 1e3
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
            out[lu] = (
                run_cell(spec, graph, workload, lq, lu, use_quota=False),
                run_cell(spec, graph, workload, lq, lu, use_quota=True),
            )
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
    for lu in lambda_us:
        agenda, quota = results[lu]
        from repro.evaluation.metrics import improvement_percent

        report(
            f"-> lu={lu:g}: response time reduced "
            f"{improvement_percent(agenda['Response time'], quota['Response time']):.1f}%"
        )
