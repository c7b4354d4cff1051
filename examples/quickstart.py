#!/usr/bin/env python3
"""Quickstart: serve a mixed PPR query/update workload with Quota.

Walks through the full pipeline in ~30 lines of user code:

1. build a dynamic graph,
2. pick a base PPR algorithm (Agenda),
3. calibrate its cost model and build the Quota controller,
4. configure for the expected arrival rates,
5. replay a workload and compare response time against the
   paper-default configuration.

Pass ``--cache`` (and optionally ``--cache-epsilon``) to also serve
the Quota run through the staleness-bounded result cache: repeated
query sources are answered from cache while every applied update
charges their entries a Lemma-2-style staleness increment, evicting
past the ``epsilon_c`` budget.

Run:  python examples/quickstart.py [--cache] [--cache-epsilon 0.2]
"""

from repro.cache.store import PPRCache
from repro.core.calibration import calibrated_cost_model
from repro.core.quota import QuotaController
from repro.core.system import QuotaSystem
from repro.evaluation.metrics import improvement_percent
from repro.graph.generators import barabasi_albert_graph
from repro.ppr.agenda import Agenda
from repro.ppr.base import PPRParams
from repro.queueing.workload import generate_workload

LAMBDA_Q = 20.0  # queries per (virtual) second
LAMBDA_U = 40.0  # edge updates per second
WINDOW = 6.0     # seconds of workload


def main(
    seed: int = 0, cache: bool = False, cache_epsilon: float = 0.2
) -> None:
    graph = barabasi_albert_graph(500, attach=3, seed=seed + 7)
    params = PPRParams(alpha=0.2, epsilon=0.5, walk_cap=2000)
    workload = generate_workload(
        graph, LAMBDA_Q, LAMBDA_U, WINDOW, rng=seed + 1
    )
    print(
        f"graph: n={graph.num_nodes} m={graph.num_edges}; "
        f"workload: {workload.num_queries} queries + "
        f"{workload.num_updates} updates over {WINDOW:.0f}s"
    )

    # --- baseline: Agenda at its paper-default hyperparameters --------
    baseline = Agenda(graph.copy(), params)
    baseline.seed(seed)
    base_result = QuotaSystem(baseline).process(workload)
    base_r = base_result.mean_query_response_time()
    print(f"Agenda (default):      mean response time {base_r * 1e3:8.2f} ms")

    # --- Quota: calibrate, optimize for the workload, replay -----------
    algorithm = Agenda(graph.copy(), params)
    algorithm.seed(seed)
    model = calibrated_cost_model(algorithm, rng=seed)
    controller = QuotaController(model)
    result_cache = PPRCache(epsilon_c=cache_epsilon) if cache else None
    system = QuotaSystem(algorithm, controller, cache=result_cache)
    decision = system.configure_static(LAMBDA_Q, LAMBDA_U)
    print(
        f"Quota picked beta = {{"
        + ", ".join(f"{k}: {v:.2e}" for k, v in decision.beta.items())
        + f"}} in {decision.configure_seconds * 1e3:.0f} ms "
        f"({decision.regime} regime)"
    )
    quota_result = system.process(workload)
    quota_r = quota_result.mean_query_response_time()
    print(f"Quota-Agenda:          mean response time {quota_r * 1e3:8.2f} ms")
    print(
        f"response time reduction: "
        f"{improvement_percent(base_r, quota_r):.1f}%"
    )
    if result_cache is not None:
        stats = result_cache.stats()
        print(
            f"result cache (epsilon_c={cache_epsilon:g}): "
            f"hit rate {stats['hit_rate']:.2f} over "
            f"{stats['lookups']:.0f} lookups"
        )


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(
        description="Quota quickstart (seeded, reproducible)"
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="base seed offsetting every RNG in the example "
        "(default 0 reproduces the documented output)",
    )
    parser.add_argument(
        "--cache",
        action="store_true",
        help="serve the Quota run through the staleness-bounded "
        "result cache",
    )
    parser.add_argument(
        "--cache-epsilon",
        type=float,
        default=0.2,
        metavar="EPS_C",
        help="staleness budget per cached entry (default 0.2)",
    )
    cli_args = parser.parse_args()
    main(
        seed=cli_args.seed,
        cache=cli_args.cache,
        cache_epsilon=cli_args.cache_epsilon,
    )
