"""Closed-loop load bench: throughput vs shard count (repro.shard).

The first measurement in this repo that can show *multi-core* scaling:
every shard is a separate worker process with its own interpreter, so
PPR compute escapes the GIL that caps the threaded ServingRuntime.  A
``repro.scenarios`` Zipf-hot-set workload (skewed sources — the case
shard-local caches and Seed queues care about) is replayed closed-loop
by a fixed pool of client threads against 1/2/4-shard fleets of the
same total workload; updates broadcast through the versioned fabric
path while queries run.

Honesty notes
-------------
* **Closed-loop**: throughput is ``completed / wall`` with a fixed
  client count, so it measures service capacity, not an open-loop
  arrival process.  p50/p99 are client-observed round-trips (manager
  routing + IPC + runtime), not bare kernel times.
* **Hardware caveat**: scaling requires cores.  On a 1-core container
  the expected curve is *flat-to-degraded* (IPC overhead, no added
  compute) — that is the honest result there, and the JSON artifact
  records ``cpu_count`` so trajectory comparisons don't mix hosts.
  The >=1.5x at 4 shards acceptance bar is asserted only when the
  host actually has >=4 CPUs.
* The equivalence oracle (bit-for-bit sharded == single-runtime) lives
  in ``tests/shard/test_equivalence.py``; this bench checks end-state
  convergence (every shard at the same fabric version, zero order
  faults) rather than re-running it under load.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass

from benchmarks.common import bench_seed, scoped, write_bench_json
from repro.evaluation.report import banner, format_table
from repro.graph.generators import erdos_renyi_graph
from repro.obs.metrics import MetricsRegistry
from repro.queueing.kinds import QUERY, UPDATE
from repro.queueing.workload import Workload
from repro.scenarios.dsl import zipf_hotset
from repro.shard.manager import ShardManager

SHARD_COUNTS = (1, 2, 4)
CLIENTS = 8


@dataclass(slots=True)
class LoadResult:
    """One fleet's closed-loop measurement."""

    shards: int
    wall_s: float
    ok: int
    shed: int
    timeout: int
    failed: int
    updates_applied: int
    p50_ms: float
    p99_ms: float

    @property
    def completed(self) -> int:
        return self.ok + self.shed + self.timeout + self.failed

    @property
    def throughput_qps(self) -> float:
        return self.ok / self.wall_s if self.wall_s > 0 else 0.0


def _percentile(samples: list[float], q: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(q * (len(ordered) - 1) + 0.5))
    return ordered[index]


def _drive_fleet(
    manager: ShardManager,
    sources: list[int],
    updates: list[tuple[int, int]],
    clients: int,
) -> LoadResult:
    """Replay the workload closed-loop; return the measurement."""
    counts = {"ok": 0, "shed": 0, "timeout": 0, "failed": 0}
    latencies: list[float] = []
    tally_lock = threading.Lock()
    next_index = [0]

    def client() -> None:
        while True:
            with tally_lock:
                i = next_index[0]
                if i >= len(sources):
                    return
                next_index[0] = i + 1
            t0 = time.perf_counter()
            outcome = manager.query_sync(sources[i], timeout_s=120.0)
            dt = time.perf_counter() - t0
            status = (
                outcome.status
                if outcome.status in counts
                else "failed"
            )
            with tally_lock:
                counts[status] += 1
                if outcome.ok:
                    latencies.append(dt)

    applied = [0]

    def updater() -> None:
        for u, v in updates:
            outcome = manager.update(u, v)
            if outcome.acked_shards:
                applied[0] += 1
            # pace the stream so updates interleave with queries
            # instead of front-loading all broadcasts
            time.sleep(0.002)

    threads = [
        threading.Thread(target=client, name=f"client-{i}", daemon=True)
        for i in range(clients)
    ]
    update_thread = threading.Thread(
        target=updater, name="updater", daemon=True
    )
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    update_thread.start()
    for thread in threads:
        thread.join()
    update_thread.join()
    wall = time.perf_counter() - started
    return LoadResult(
        shards=manager.num_shards,
        wall_s=wall,
        ok=counts["ok"],
        shed=counts["shed"],
        timeout=counts["timeout"],
        failed=counts["failed"],
        updates_applied=applied[0],
        p50_ms=_percentile(latencies, 0.50) * 1e3,
        p99_ms=_percentile(latencies, 0.99) * 1e3,
    )


def test_shard_scaling(report):
    seed = bench_seed()
    n_nodes = scoped(300, 2_000)
    graph = erdos_renyi_graph(n_nodes, scoped(0.02, 0.004), seed=seed)
    scenario = zipf_hotset(
        t_end=scoped(5.0, 20.0),
        lambda_q=scoped(60.0, 120.0),
        lambda_u=scoped(6.0, 12.0),
    )
    workload: Workload = scenario.compile(graph, rng=seed + 7)
    sources = [r.source for r in workload.requests if r.kind == QUERY]
    updates = [
        (r.update.u, r.update.v)
        for r in workload.requests
        if r.kind == UPDATE and r.update is not None
    ]
    walk_cap = scoped(400, 2_000)

    report(banner("Extension: sharded serving scaling (worker processes)"))
    report(
        f"scenario {scenario.name}: {len(sources)} queries + "
        f"{len(updates)} updates over n={graph.num_nodes} "
        f"m={graph.num_edges}; {CLIENTS} closed-loop clients; "
        f"host has {os.cpu_count()} CPU core(s)"
    )

    results: list[LoadResult] = []
    for shards in SHARD_COUNTS:
        manager = ShardManager(
            graph,
            shards,
            backend="process",
            algorithm="FORA",
            walk_cap=walk_cap,
            seed=seed,
            max_inflight_per_shard=CLIENTS * 4,
            metrics=MetricsRegistry(),
        )
        try:
            result = _drive_fleet(manager, sources, updates, CLIENTS)
            health = manager.healthz()
            # convergence: every shard observed the same gap-free
            # broadcast sequence, and none died on an order fault
            assert manager.healthy_shard_count() == shards, health
            versions = {
                shard["applied_broadcasts"] for shard in health["shards"]
            }
            assert versions == {manager.fabric_version}, versions
            order_faults = manager.metrics.snapshot()["counters"].get(
                "shard.order_faults", 0
            )
            assert order_faults == 0, f"{order_faults} order faults"
        finally:
            manager.stop()
        results.append(result)

    base = results[0]
    rows = [
        [
            r.shards,
            r.wall_s,
            r.ok,
            r.shed + r.timeout,
            r.updates_applied,
            r.throughput_qps,
            (r.throughput_qps / base.throughput_qps)
            if base.throughput_qps > 0
            else 0.0,
            r.p50_ms,
            r.p99_ms,
        ]
        for r in results
    ]
    report(
        format_table(
            ["shards", "wall (s)", "ok", "shed", "updates",
             "qps", "speedup", "p50 (ms)", "p99 (ms)"],
            rows,
        )
    )
    cpus = os.cpu_count() or 1
    speedup_at_max = rows[-1][6]
    if cpus >= 4:
        report(
            f"-> {speedup_at_max:.2f}x at {SHARD_COUNTS[-1]} shards on "
            f"{cpus} cores (bar: >=1.5x)"
        )
        assert speedup_at_max >= 1.5, (
            f"expected >=1.5x scaling at {SHARD_COUNTS[-1]} shards on "
            f"a {cpus}-core host, measured {speedup_at_max:.2f}x"
        )
    else:
        report(
            f"-> {speedup_at_max:.2f}x at {SHARD_COUNTS[-1]} shards on "
            f"{cpus} core(s): flat-to-degraded is the expected honest "
            "result without spare cores (IPC overhead, no added "
            "compute); re-run on a multi-core host for the scaling "
            "claim"
        )

    # every query must resolve one way or another (closed loop: no loss)
    for r in results:
        assert r.completed == len(sources), (r.shards, r.completed)

    artifact = write_bench_json(
        "shard_scaling",
        {
            "scenario": scenario.name,
            "clients": CLIENTS,
            "queries": len(sources),
            "updates": len(updates),
            "graph": {"nodes": graph.num_nodes, "edges": graph.num_edges},
            "walk_cap": walk_cap,
            "fleets": [
                {
                    "shards": r.shards,
                    "wall_s": round(r.wall_s, 4),
                    "ok": r.ok,
                    "shed": r.shed,
                    "timeout": r.timeout,
                    "failed": r.failed,
                    "updates_applied": r.updates_applied,
                    "throughput_qps": round(r.throughput_qps, 2),
                    "speedup_vs_1_shard": round(
                        r.throughput_qps / base.throughput_qps, 3
                    )
                    if base.throughput_qps > 0
                    else None,
                    "p50_ms": round(r.p50_ms, 3),
                    "p99_ms": round(r.p99_ms, 3),
                }
                for r in results
            ],
        },
    )
    report(f"-> machine-readable results: {artifact}")
