#!/usr/bin/env python3
"""Player win-back incentives (the paper's Tencent scenario).

A player-interaction network evolves as matches are played (edge
inserts) and friendships lapse (edge deletes).  Periodically, an
*active* player issues a top-k PPR query to rank their proximity to
*inactive* players; the closest inactive players receive an invite-back
message (the incentive strategy of [6]).

This example exercises the top-k path of the library: FORA-TopK served
through QuotaSystem, with the invite list extracted from each query via
the query callback, and a comparison of the default vs Quota-tuned
configuration under a match-heavy (update-heavy) workload.

Run:  python examples/gaming_incentive.py
"""

import numpy as np

from repro.core.calibration import calibrated_cost_model
from repro.core.quota import QuotaController
from repro.core.system import QuotaSystem
from repro.evaluation.metrics import improvement_percent
from repro.graph.generators import barabasi_albert_graph
from repro.ppr.base import PPRParams
from repro.ppr.topk import ForaTopK
from repro.queueing.workload import generate_workload

NUM_PLAYERS = 600
INACTIVE_FRACTION = 0.3
TOP_K = 5

QUERIES_PER_SECOND = 15.0
MATCHES_PER_SECOND = 30.0
WINDOW = 5.0


def main(seed: int = 0) -> None:
    rng = np.random.default_rng(seed + 21)
    graph = barabasi_albert_graph(NUM_PLAYERS, attach=4, seed=seed + 5)
    inactive = set(
        rng.choice(
            NUM_PLAYERS,
            size=int(NUM_PLAYERS * INACTIVE_FRACTION),
            replace=False,
        ).tolist()
    )
    print(
        f"player network: {graph.num_nodes} players, {graph.num_edges} "
        f"interactions; {len(inactive)} inactive players"
    )

    params = PPRParams(alpha=0.2, epsilon=0.5, walk_cap=2000)

    # --- one illustrative invite list ----------------------------------
    demo = ForaTopK(graph.copy(), params, k=50)
    demo.seed(seed)
    active_player = int(
        next(v for v in range(NUM_PLAYERS) if v not in inactive)
    )
    ranked = demo.query(active_player).top_k(100)
    invites = [
        (node, score) for node, score in ranked if node in inactive
    ][:TOP_K]
    print(f"\ninvite-back list for active player {active_player}:")
    for node, score in invites:
        print(f"  player {node:<4d} proximity={score:.4f}")

    # --- workload: proximity queries + match stream --------------------
    workload = generate_workload(
        graph, QUERIES_PER_SECOND, MATCHES_PER_SECOND, WINDOW, rng=seed + 3
    )
    print(
        f"\nserving {workload.num_queries} proximity queries and "
        f"{workload.num_updates} match updates over {WINDOW:.0f}s"
    )

    baseline = ForaTopK(graph.copy(), params, k=TOP_K)
    baseline.seed(seed + 1)
    base = QuotaSystem(baseline).process(workload)
    base_r = base.mean_query_response_time()
    print(f"FORA-TopK (default): {base_r * 1e3:8.2f} ms mean response")

    tuned = ForaTopK(graph.copy(), params, k=TOP_K)
    tuned.seed(seed + 1)
    controller = QuotaController(calibrated_cost_model(tuned, rng=seed + 4))
    system = QuotaSystem(tuned, controller)
    decision = system.configure_static(
        QUERIES_PER_SECOND, MATCHES_PER_SECOND
    )

    invite_counts: list[int] = []

    def collect_invites(request, estimate, pending):
        ranked = estimate.top_k(50)
        invite_counts.append(
            sum(1 for node, _ in ranked[:TOP_K * 3] if node in inactive)
        )

    quota = system.process(workload, query_callback=collect_invites)
    quota_r = quota.mean_query_response_time()
    print(
        f"Quota-FORA-TopK:     {quota_r * 1e3:8.2f} ms mean response "
        f"({improvement_percent(base_r, quota_r):+.1f}% vs default, "
        f"r_max {decision.beta['r_max']:.2e})"
    )
    print(
        f"average inactive players surfaced per query: "
        f"{np.mean(invite_counts):.1f}"
    )


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(
        description="player win-back incentive demo (seeded, reproducible)"
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="base seed offsetting every RNG in the example "
        "(default 0 reproduces the documented output)",
    )
    main(seed=parser.parse_args().seed)
