"""Patched graph rows vs a full repack per update.

The acceptance bar for the graph's slack-slot rows: on an update-heavy
Barabasi-Albert graph (n >= 20k, lambda_u >= lambda_q) the mean cost of
``toggle_edge`` + ``csr_view`` must be at least 5x lower than repacking
every row on every update (``csr_view(graph.copy())``: the packed copy
of the rows a compaction makes, and the view over it).

Both paths see the same kind of seeded toggle stream.  The update-heavy
mix is modeled by reading the view after *every* update — no updates
are batched between queries.

``test_row_scan_paths`` times the two ways a row is searched (a Python
list scan, one numpy compare) by row length, for the cutoff
``LIST_SCAN_MAX`` between them.
"""

from __future__ import annotations

import random
import time
import timeit

import numpy as np

from benchmarks.common import scoped
from repro.evaluation.report import banner, format_series
from repro.graph import adjacency
from repro.graph.generators import barabasi_albert_graph
from repro.graph.updates import random_update_stream
from repro.ppr.csr import csr_view

N_NODES = 20_000
ATTACH = 3
NUM_INCREMENTAL = 2_000
#: full repacks are orders of magnitude slower; a small sample is plenty
NUM_REBUILD = 10


def toggles(graph, num_updates: int, seed: int) -> list[tuple[int, int]]:
    rng = random.Random(seed)
    return [
        (update.u, update.v)
        for update in random_update_stream(graph, num_updates, rng)
    ]


def measure_incremental(graph, num_updates: int) -> float:
    """Mean seconds per update when the rows are patched in place."""
    pairs = toggles(graph, num_updates, 1)
    start = time.perf_counter()
    for u, v in pairs:
        graph.toggle_edge(u, v)
        csr_view(graph)
    return (time.perf_counter() - start) / num_updates


def measure_rebuild(graph, num_updates: int) -> float:
    """Mean seconds per update when every update repacks every row."""
    pairs = toggles(graph, num_updates, 2)
    start = time.perf_counter()
    for u, v in pairs:
        graph.toggle_edge(u, v)
        csr_view(graph.copy())
    return (time.perf_counter() - start) / num_updates


def test_csr_incremental_vs_rebuild(benchmark, report):
    report(banner("Patched graph rows vs a full repack per update"))
    n = scoped(N_NODES, 4 * N_NODES)

    def experiment():
        graph = barabasi_albert_graph(n, attach=ATTACH, seed=3)
        incremental = measure_incremental(graph, NUM_INCREMENTAL)
        rebuild = measure_rebuild(graph, NUM_REBUILD)
        return incremental, rebuild

    incremental, rebuild = benchmark.pedantic(
        experiment, rounds=1, iterations=1
    )
    speedup = rebuild / incremental
    report(
        format_series(
            "path",
            ["patched rows", "repack/update"],
            {"mean update service time (us)": [
                incremental * 1e6, rebuild * 1e6,
            ]},
            title=f"BA graph n={n}, attach={ATTACH} (update-heavy mix)",
            float_format="{:.1f}",
        )
    )
    report(f"-> speedup {speedup:.0f}x over a repack per update")
    assert speedup >= 5.0, (
        f"patched rows only {speedup:.1f}x faster; acceptance needs >= 5x"
    )


ROW_LENGTHS = [8, 32, 64, 96, 128, 160, 192, 256, 1024]


def scan_us(rows: adjacency.Adjacency, i: int, list_max: int) -> float:
    """Best-of-five microseconds of a missing-entry search of row
    ``i`` (a full scan, as every insert makes) with cutoff ``list_max``."""
    saved = adjacency.LIST_SCAN_MAX
    adjacency.LIST_SCAN_MAX = list_max
    try:
        best = min(timeit.repeat(lambda: rows.find(i, -1), number=5_000, repeat=5))
    finally:
        adjacency.LIST_SCAN_MAX = saved
    return best / 5_000 * 1e6


def test_row_scan_paths(benchmark, report):
    report(banner("Row search: list scan vs numpy compare, by row length"))
    lengths = np.array(ROW_LENGTHS)
    rows = adjacency.Adjacency(lengths, np.arange(lengths.sum()))

    def experiment():
        return (
            [scan_us(rows, i, 1 << 30) for i in range(lengths.size)],
            [scan_us(rows, i, -1) for i in range(lengths.size)],
        )

    listed, vectorised = benchmark.pedantic(experiment, rounds=1, iterations=1)
    report(
        format_series(
            "row length",
            ROW_LENGTHS,
            {"list scan (us)": listed, "numpy compare (us)": vectorised},
            title=f"missing entry; cutoff LIST_SCAN_MAX = {adjacency.LIST_SCAN_MAX}",
            float_format="{:.2f}",
        )
    )
    graph = barabasi_albert_graph(N_NODES, attach=ATTACH, seed=3)
    degrees = np.array([graph.out_degree(v) for v in graph.nodes()])
    report(
        f"BA n={N_NODES}, attach={ATTACH}: max out-degree {degrees.max()}, "
        f"{np.mean(degrees <= adjacency.LIST_SCAN_MAX):.4f} of rows "
        f"list-scanned"
    )
