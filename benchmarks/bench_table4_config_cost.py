"""Table IV reproduction: configuration cost of Quota vs search baselines.

Grid Search, Random Search, and Bayesian Optimization must *measure*
each candidate's response time by replaying a probe workload through
the live system; Quota solves its calibrated model in closed form.

Expected shape: the black-box searches cost seconds-to-minutes (and
scale with graph size, since every evaluation runs real PPR work);
Quota configures in well under a second on every dataset, orders of
magnitude faster — and the configurations found are comparable.
"""

from __future__ import annotations

from benchmarks.common import SystemSpec, record_verdict, run_system, scoped
from repro.baselines.search import (
    BayesianOptimizationSearch,
    GridSearch,
    RandomSearch,
)
from repro.core.calibration import calibrated_cost_model
from repro.core.quota import QuotaController
from repro.evaluation.datasets import get_dataset
from repro.evaluation.report import banner, format_table
from repro.ppr.registry import build_algorithm
from repro.queueing.workload import generate_workload


def run_dataset(name: str, probe_window: float, budgets):
    spec = get_dataset(name)
    graph = spec.build(seed=5)
    lq = spec.lambda_q
    lu = lq
    workload = generate_workload(graph, lq, lu, probe_window, rng=11)

    def evaluate(beta):
        """Black-box objective: replay the probe workload, return R_q."""
        return run_system(
            SystemSpec("Agenda", "Agenda"), spec, graph, workload,
            seed=0, beta=beta,
        ).result.mean_query_response_time()

    param_names = ["r_max", "r_max_b"]

    searchers = [
        GridSearch(grid=budgets["grid"]),
        RandomSearch(num_samples=budgets["random"]),
        BayesianOptimizationSearch(
            num_initial=3, num_iterations=budgets["bayes"] - 3
        ),
    ]
    row = [name]
    for searcher in searchers:
        outcome = searcher.search(evaluate, param_names, rng=0)
        row.append(outcome.elapsed_seconds)

    algorithm = build_algorithm("Agenda", graph.copy(), spec.walk_cap, seed=0)
    model = calibrated_cost_model(algorithm, num_queries=3, rng=12)
    controller = QuotaController(model)
    decision = controller.configure(lq, lu)
    row.append(decision.configure_seconds)
    return row


def test_table4_config_cost(benchmark, report):
    report(banner("Table IV: time cost of configuration (seconds)"))
    names = scoped(("webs", "dblp"), ("webs", "dblp", "lj", "twitter"))
    probe_window = scoped(1.0, 3.0)
    budgets = scoped(
        {"grid": [1e-4, 1e-3, 1e-2], "random": 9, "bayes": 9},
        {"grid": [10 ** e for e in (-5, -4, -3, -2, -1)], "random": 25,
         "bayes": 25},
    )

    def experiment():
        return [run_dataset(n, probe_window, budgets) for n in names]

    rows = benchmark.pedantic(experiment, rounds=1, iterations=1)
    report(
        format_table(
            ["dataset", "Grid Search", "Random Search",
             "Bayesian Opt.", "Quota"],
            rows,
            float_format="{:.3f}",
        )
    )
    speedups = {}
    for row in rows:
        speedups[row[0]] = min(row[1], row[2], row[3]) / max(row[4], 1e-9)
        report(
            f"-> {row[0]}: Quota {speedups[row[0]]:,.0f}x faster than the "
            "best search"
        )
    record_verdict("table4_config_cost", {"quota_speedup": speedups})
    report(
        "\nnote: Quota's solve time does not depend on graph size — it "
        "never executes PPR work; the searches replay real workloads "
        "per candidate."
    )
