"""Extension bench: the staleness-bounded PPR result cache.

Three views of ``repro.cache`` (ISSUE 4):

1. **Modeled sweep** — FCFS replays over Zipf query skew x update rate
   x ``epsilon_c``, cached vs no-cache, on the virtual clock.  Modeled
   entries carry no vector, so staleness charging falls back to the
   conservative degree-only bound (``pi_hat = 1``) — orders of
   magnitude above typical true mass, so this table *understates* the
   cache (over-eviction by design, never under-protection).  Read the
   shape, not the absolute hit rates.
2. **Measured serving** — the real :class:`~repro.serving.
   ServingRuntime` worker pool, cached vs no-cache, with value-aware
   charging (the cached vector prices its own staleness).  Includes a
   deliberately cache-hostile regime (uniform sources, tight budget,
   update-heavy) reported alongside the win.
3. **Exactness oracle** — an exact power-iteration algorithm serves a
   skewed workload through the cached path; every answer (hit or miss)
   is compared against a fresh recompute on the current graph.  The
   normalized-L1 drift of a served answer must stay within
   ``epsilon_c`` + the base algorithm's error (~0 here).  Violations
   fail the bench.

Honest notes: hits are near-free, so the win grows with skew and with
the query cost; with uniform sources over many nodes, or budgets
tighter than the update stream, the cache buys nothing — those cells
are printed, not hidden.
"""

from __future__ import annotations

import numpy as np

from benchmarks.common import scoped
from repro.cache.staleness import ReplayCache
from repro.cache.store import PPRCache
from repro.core.system import QuotaSystem
from repro.evaluation.report import banner, format_table
from repro.graph.generators import erdos_renyi_graph
from repro.obs.metrics import MetricsRegistry
from repro.ppr.base import DynamicPPRAlgorithm, PPRParams, PPRVector
from repro.ppr.power_iteration import ppr_exact
from repro.ppr.registry import build_algorithm
from repro.queueing.kinds import QUERY
from repro.queueing.simulator import FCFSQueueSimulator
from repro.queueing.workload import generate_workload, Request, Workload
from repro.serving.runtime import ServingRuntime

ALPHA = 0.2
HIT_SERVICE_S = 50e-6  # modeled dict-lookup cost of a cache hit


def zipf_skewed(workload: Workload, n_nodes: int, skew: float, rng) -> Workload:
    """Redraw query sources with popularity ~ 1/rank^skew (0 = uniform)."""
    if skew <= 0.0:
        return workload
    weights = 1.0 / np.arange(1, n_nodes + 1) ** skew
    weights /= weights.sum()
    requests = [
        Request(r.arrival, QUERY, source=int(rng.choice(n_nodes, p=weights)))
        if r.kind == QUERY
        else r
        for r in workload.requests
    ]
    return Workload(requests, workload.t_end, workload.lambda_q, workload.lambda_u)


# ----------------------------------------------------------------------
# 1. modeled sweep
# ----------------------------------------------------------------------
def test_cache_modeled_sweep(benchmark, report):
    report(banner("Cache (modeled): Zipf skew x update rate x epsilon_c"))
    t_q, t_u = 5e-3, 1e-3
    lambda_q = 40.0
    window = scoped(20.0, 60.0)
    skews = (0.0, 1.0, 1.5)
    update_rates = (10.0, 40.0, 160.0)
    epsilons = (0.2, 1.0, 5.0)

    def service_fn(request):
        return t_q if request.kind == QUERY else t_u

    def experiment():
        rows = []
        for skew in skews:
            for lambda_u in update_rates:
                graph = erdos_renyi_graph(400, 16000, directed=True, seed=7)
                base = generate_workload(
                    graph, lambda_q, lambda_u, window, rng=11
                )
                workload = zipf_skewed(
                    base, graph.num_nodes, skew, np.random.default_rng(13)
                )
                plain = FCFSQueueSimulator(service_fn, modeled=True).run(
                    workload
                )
                r_plain = plain.mean_query_response_time() * 1e3
                for eps in epsilons:
                    metrics = MetricsRegistry()
                    cache = PPRCache(
                        capacity=256, epsilon_c=eps, metrics=metrics
                    )
                    replay = ReplayCache(
                        cache,
                        graph.copy(),
                        alpha=ALPHA,
                        hit_service_s=HIT_SERVICE_S,
                    )
                    cached = FCFSQueueSimulator(
                        service_fn, modeled=True, cache=replay
                    ).run(workload)
                    rows.append(
                        [
                            f"s={skew:.1f} lu={lambda_u:.0f} eps={eps}",
                            r_plain,
                            cached.mean_query_response_time() * 1e3,
                            replay.hit_rate(),
                            float(
                                metrics.counter(
                                    "cache.evictions_staleness"
                                ).value
                            ),
                        ]
                    )
        return rows

    rows = benchmark.pedantic(experiment, rounds=1, iterations=1)
    report(
        format_table(
            ["regime", "R_q off (ms)", "R_q on (ms)", "hit rate", "stale evict"],
            rows,
            float_format="{:.3f}",
        )
    )
    report(
        "note: modeled entries store no vector -> degree-only staleness\n"
        "bound (pi_hat = 1) over-evicts; measured rows below are the\n"
        "realistic view.  Cells with hit rate ~0 show the cache buying\n"
        "nothing at low skew or tight budgets - expected, not a bug."
    )


# ----------------------------------------------------------------------
# 2. measured serving
# ----------------------------------------------------------------------
def test_cache_measured_serving(benchmark, report):
    report(banner("Cache (measured): ServingRuntime cached vs no-cache"))
    n, m = scoped((300, 6000), (800, 24000))
    queries = scoped(300, 1200)
    update_ratio = 0.5  # moderate update traffic

    def run_once(skew, epsilon_c, use_cache, seed=5):
        graph = erdos_renyi_graph(n, m, directed=True, seed=seed)
        algorithm = build_algorithm("Agenda", graph, 1500, seed=0)
        lambda_q, window = 50.0, queries / 50.0
        base = generate_workload(
            graph, lambda_q, lambda_q * update_ratio, window, rng=seed + 1
        )
        workload = zipf_skewed(
            base, graph.num_nodes, skew, np.random.default_rng(seed + 2)
        )
        metrics = MetricsRegistry()
        cache = (
            PPRCache(capacity=512, epsilon_c=epsilon_c, metrics=metrics)
            if use_cache
            else None
        )
        runtime = ServingRuntime(
            algorithm,
                queue_capacity=len(workload) + 8,
            cache=cache,
            metrics=metrics,
        ).start()
        try:
            served = runtime.serve(workload)
        finally:
            runtime.stop()
        return (
            served.mean_query_response_s() * 1e3,
            served.wall_s,
            served.cache_hit_rate(),
            float(metrics.counter("cache.evictions_staleness").value),
        )

    def experiment():
        rows = []
        # the win regime: skewed queries, workable budget
        for skew, eps in ((1.2, 0.5), (1.2, 0.1)):
            off = run_once(skew, eps, use_cache=False)
            on = run_once(skew, eps, use_cache=True)
            rows.append(
                [f"skew={skew} eps={eps}", off[0], on[0], on[2], on[3]]
            )
        # the honest no-win regime: uniform sources, tight budget
        off = run_once(0.0, 0.01, use_cache=False)
        on = run_once(0.0, 0.01, use_cache=True)
        rows.append(["uniform eps=0.01", off[0], on[0], on[2], on[3]])
        return rows

    rows = benchmark.pedantic(experiment, rounds=1, iterations=1)
    report(
        format_table(
            [
                "regime",
                "R_q off (ms)",
                "R_q on (ms)",
                "hit rate",
                "stale evict",
            ],
            rows,
            float_format="{:.3f}",
        )
    )
    win = rows[0][1] > rows[0][2]
    report(
        f"skewed regime win: {'YES' if win else 'NO'} "
        f"(hit rate {rows[0][3]:.2f}); uniform/tight-budget row shows "
        f"hit rate {rows[-1][3]:.2f} - the cache cannot help there and "
        f"costs only the lookup."
    )


# ----------------------------------------------------------------------
# 3. exactness oracle
# ----------------------------------------------------------------------
class ExactPPR(DynamicPPRAlgorithm):
    """Deterministic oracle algorithm: exact PPR, toggle updates."""

    name = "exact"

    def query(self, source: int) -> PPRVector:
        return ppr_exact(self.graph, source, alpha=self.params.alpha)

    def apply_update(self, update):
        return update.apply(self.graph)


def l1_distance(served, fresh) -> float:
    nodes = set(served.as_dict()) | set(fresh.as_dict())
    return float(
        sum(abs(served.get(n, 0.0) - fresh.get(n, 0.0)) for n in nodes)
    )


def test_cache_exactness_oracle(benchmark, report):
    report(banner("Cache oracle: served answers vs fresh recompute"))
    epsilons = (0.05, 0.2, 0.5)
    window = scoped(3.0, 8.0)

    def run_oracle(epsilon_c, seed=3):
        graph = erdos_renyi_graph(60, 360, directed=True, seed=seed)
        algorithm = ExactPPR(graph, PPRParams(alpha=ALPHA))
        metrics = MetricsRegistry()
        cache = PPRCache(capacity=128, epsilon_c=epsilon_c, metrics=metrics)
        system = QuotaSystem(algorithm, cache=cache, metrics=metrics)
        base = generate_workload(graph, 30.0, 15.0, window, rng=seed + 1)
        workload = zipf_skewed(
            base, 20, 1.2, np.random.default_rng(seed + 2)
        )
        violations = 0
        worst = 0.0

        def callback(request, estimate, pending):
            nonlocal violations, worst
            fresh = ppr_exact(graph, request.source, alpha=ALPHA)
            drift = l1_distance(estimate, fresh)
            worst = max(worst, drift / epsilon_c)
            if drift > epsilon_c + 1e-9:
                violations += 1

        system.process(workload, query_callback=callback)
        return [
            epsilon_c,
            violations,
            worst,
            cache.hit_rate(),
            float(metrics.counter("cache.evictions_staleness").value),
        ]

    def experiment():
        return [run_oracle(eps) for eps in epsilons]

    rows = benchmark.pedantic(experiment, rounds=1, iterations=1)
    report(
        format_table(
            [
                "epsilon_c",
                "violations",
                "worst drift/eps",
                "hit rate",
                "stale evict",
            ],
            rows,
            float_format="{:.3f}",
        )
    )
    total = sum(int(row[1]) for row in rows)
    report(f"total violations: {total} (must be 0)")
    assert total == 0, "cache served an answer outside its staleness budget"
