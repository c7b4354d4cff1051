"""Extension bench: parallel serving, modeled.

The paper's single-server queue is the bottleneck its whole design
optimizes; the natural deployment question is how far parallelism (the
"parallel PPR processing" direction [23]) moves the stability frontier.
Two views, both ``replay(..., servers=k)`` in virtual time:

1. **Modeled FCFS** — k = 1, 2, 4, 8 virtual servers replaying
   deterministic modeled service times (a
   :class:`~repro.queueing.replay.ModeledExecutor`: the timeline is a
   cost-model projection, not a measurement).
2. **Modeled Seed-aware** — the same k servers plus a
   :class:`~repro.core.seed.SeedQueue`: Seed deferral/reordering and
   idle-time draining, updates really mutating the graph so the Lemma 2
   bound tracks true degrees.

There is no measured k-thread view: the serving runtime is one thread
per shard, and on CPython the measured unit of parallelism is the
process fleet (``benchmarks/bench_shard_scaling.py``).

Expected shape: response time collapses once k pushes the per-server
load below 1; beyond that, extra servers yield diminishing returns —
and Quota's configuration still helps at every k because it reduces
the *work per request*, which parallelism cannot.
"""

from __future__ import annotations

from benchmarks.common import scoped
from repro.core.calibration import calibrated_cost_model
from repro.core.quota import QuotaController
from repro.core.seed import SeedQueue
from repro.evaluation.datasets import get_dataset
from repro.evaluation.report import banner, format_table
from repro.ppr.registry import build_algorithm
from repro.queueing.kinds import QUERY
from repro.queueing.replay import ModeledExecutor, replay
from repro.queueing.workload import generate_workload

SERVER_COUNTS = (1, 2, 4, 8)


def modeled_service_fn(model, beta, lq, lu):
    t_q = model.query_time(beta, lq, lu)
    t_u = model.update_time(beta)
    return lambda request: t_q if request.kind == QUERY else t_u


def test_ablation_parallel_serving(benchmark, report):
    report(banner("Extension: multi-server FCFS (modeled service)"))
    spec = get_dataset("dblp")
    window = scoped(20.0, 60.0)
    lq = spec.lambda_q * 28  # overloads a single server (~1.5x)
    lu = lq

    def experiment():
        graph = spec.build(seed=13)
        workload = generate_workload(graph, lq, lu, window, rng=24)
        probe = build_algorithm("Agenda", graph.copy(), spec.walk_cap, seed=0)
        model = calibrated_cost_model(probe, num_queries=4, rng=25)
        default_beta = probe.get_hyperparameters()
        controller = QuotaController(model, extra_starts=[default_beta])
        quota_beta = controller.configure(lq, lu).beta

        rows = []
        for servers in SERVER_COUNTS:
            row = [f"{servers} server(s)"]
            for beta in (default_beta, quota_beta):
                result = replay(
                    workload,
                    ModeledExecutor(modeled_service_fn(model, beta, lq, lu)),
                    servers=servers,
                )
                row.append(result.mean_query_response_time() * 1e3)
            rows.append(row)

        # Seed-aware event-driven replay: same servers, updates now
        # deferred/reordered within epsilon_r and drained during idle
        # gaps.  Fresh graph per cell — the executor mutates it.
        seed_rows = []
        alpha = probe.params.alpha
        for servers in SERVER_COUNTS:
            row = [f"{servers} server(s)"]
            for eps in (0.0, 0.5):  # FCFS vs the Fig. 8 Seed budget
                cell_graph = spec.build(seed=13)
                result = replay(
                    workload,
                    ModeledExecutor(
                        modeled_service_fn(model, quota_beta, lq, lu),
                        graph=cell_graph,
                    ),
                    seed_queue=SeedQueue(cell_graph, alpha, eps),
                    servers=servers,
                )
                row.append(result.mean_query_response_time() * 1e3)
            seed_rows.append(row)

        per_server_load = (
            lq * model.query_time(default_beta, lq, lu)
            + lu * model.update_time(default_beta)
        )
        return rows, seed_rows, per_server_load

    rows, seed_rows, load = benchmark.pedantic(
        experiment, rounds=1, iterations=1
    )
    report(
        format_table(
            ["servers", "default beta R (ms)", "Quota beta R (ms)"],
            rows,
            title=f"dblp-like, lq=lu={lq:g} "
            f"(single-server offered load {load:.2f})",
        )
    )
    report(
        format_table(
            ["servers", "eps_r=0 R (ms)", "eps_r=paper R (ms)"],
            seed_rows,
            title="Seed-aware event-driven replay (Quota beta)",
        )
    )
    report(
        "-> parallelism moves the stability frontier; Quota reduces "
        "work per request on top of it at every k, and Seed reordering "
        "stacks on both."
    )
