"""Incremental CSR maintenance vs rebuild-per-update.

The acceptance bar for the delta/apply layer: on an update-heavy
Barabasi-Albert graph (n >= 20k, lambda_u >= lambda_q) the mean update
service time of the incremental path must be at least 5x lower than
rebuilding the CSR arrays from scratch on every update.

Both paths see the same seeded toggle stream (paired comparison).  The
update-heavy mix is modeled by catching the view up after *every*
update — the worst case for the incremental path, since no updates are
batched between queries.
"""

from __future__ import annotations

import random
import time

from benchmarks.common import scoped
from repro.evaluation.report import banner, format_series
from repro.graph.generators import barabasi_albert_graph
from repro.graph.updates import random_update_stream
from repro.obs.metrics import get_metrics
from repro.ppr.csr import csr_view, CSRView

N_NODES = 20_000
ATTACH = 3
NUM_INCREMENTAL = 2_000
#: full rebuilds are ~four orders slower; a small sample is plenty
NUM_REBUILD = 10


def measure_incremental(graph, num_updates: int) -> float:
    """Mean seconds per update for the delta/apply path."""
    csr_view(graph)  # warm store; exclude initial build from timing
    rng = random.Random(1)
    updates = list(random_update_stream(graph, num_updates, rng))
    start = time.perf_counter()
    for update in updates:
        update.apply(graph)
        csr_view(graph)
    return (time.perf_counter() - start) / num_updates


def measure_rebuild(graph, num_updates: int) -> float:
    """Mean seconds per update when every update rebuilds from scratch."""
    rng = random.Random(2)
    updates = list(random_update_stream(graph, num_updates, rng))
    start = time.perf_counter()
    for update in updates:
        update.apply(graph)
        CSRView(graph)
    return (time.perf_counter() - start) / num_updates


def test_csr_incremental_vs_rebuild(benchmark, report):
    report(banner("Incremental CSR maintenance vs rebuild-per-update"))
    n = scoped(N_NODES, 4 * N_NODES)

    def experiment():
        graph = barabasi_albert_graph(n, attach=ATTACH, seed=3)
        metrics = get_metrics()
        before = metrics.snapshot()["counters"]
        incremental = measure_incremental(graph, NUM_INCREMENTAL)
        after = metrics.snapshot()["counters"]
        rebuild = measure_rebuild(graph, NUM_REBUILD)
        deltas = {
            key: after.get(key, 0) - before.get(key, 0)
            for key in (
                "csr_delta_applies",
                "csr_rebuilds",
                "csr_compactions",
                "csr_cache_misses",
            )
        }
        return incremental, rebuild, deltas

    incremental, rebuild, deltas = benchmark.pedantic(
        experiment, rounds=1, iterations=1
    )
    speedup = rebuild / incremental
    report(
        format_series(
            "path",
            ["incremental", "rebuild/update"],
            {"mean update service time (us)": [
                incremental * 1e6, rebuild * 1e6,
            ]},
            title=f"BA graph n={n}, attach={ATTACH} (update-heavy mix)",
            float_format="{:.1f}",
        )
    )
    report(f"-> speedup {speedup:.0f}x over rebuild-per-update")
    report(
        "-> counters during incremental phase: "
        + ", ".join(f"{key}={value}" for key, value in sorted(deltas.items()))
    )
    assert speedup >= 5.0, (
        f"incremental path only {speedup:.1f}x faster; acceptance needs >= 5x"
    )
