"""Extension bench: vectorized frontier/batched push kernels.

Three views of ``repro.ppr.kernels`` (the ``engine=`` switch) plus the
``repro.ppr.dispatch`` router on top:

1. **Equivalence oracle** — >= 1000 randomized cases (packed and
   slack-patched CSR views, dangling nodes, swept ``r_max``) where the
   vectorized kernels must match the pure-Python synchronous reference
   bit-for-bit, every batched row must equal its single-source push,
   executing *any* dispatcher routing decision (whole batch, locality
   split, sequential fallback — resident budget randomized per case)
   must reproduce the same bits, and the scipy SpMM power backend must
   match a pure-Python jj-order sweep oracle bit-for-bit, chunked and
   whole.  Any mismatch fails the bench.
2. **Frontier throughput** — scalar deque push vs the whole-frontier
   kernel on BA/ER graphs (up to n = 20k).  Both schedules run to the
   same residue threshold; the table reports wall-clock per query,
   pushes/s, and the speedup.  The scalar deque does *fewer* pushes
   (Gauss–Seidel propagates fresh residue immediately), so the honest
   headline is wall-clock, with push counts printed alongside.
3. **Batched dispatch** — serving B same-snapshot sources as one
   ``(B, n)`` batch vs B sequential frontier pushes, across batch
   sizes including B >= 8.  One sweep loop drives all rows, so per-
   sweep numpy dispatch is amortized — a real win while the B x n
   state stays cache-resident (small/mid graphs).  On large graphs
   sequential pushes keep one cache-hot (n,) state each and the batch
   loses it back; those honest losing cells are reported too, along
   with an ``auto`` column that executes the ``KernelDispatcher``
   routing decision for the same cell and must track the better
   static engine everywhere (the cost model caps the effective batch
   to the cache-resident budget and splits the rest by locality).

Run as a script (CI smoke: ``python benchmarks/bench_vectorized_kernels.py
--quick``) or through pytest (``pytest benchmarks/bench_vectorized_kernels.py``).
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from benchmarks.common import bench_seed, scoped
from repro.evaluation import banner, format_table
from repro.graph import DynamicGraph, barabasi_albert_graph, erdos_renyi_graph
from repro.obs import MetricsRegistry
from repro.ppr import csr_view, forward_push
from repro.ppr.dispatch import (
    DispatchCostModel,
    KernelDispatcher,
    scipy_probe,
)
from repro.ppr.kernels import (
    batched_frontier_push,
    frontier_push,
    reference_frontier_push,
)

ALPHA = 0.2


def make_dispatcher(resident_bytes: int | None = None) -> KernelDispatcher:
    """A dispatcher isolated from process env and global metrics.

    The oracle passes a randomized ``resident_bytes`` (with the
    profitability floor lowered so sequential / split / whole-batch
    decisions all occur on tiny graphs); the speedup table omits it to
    bench the real default routing.
    """
    cost = (
        DispatchCostModel(
            resident_bytes=resident_bytes,
            min_push_work=0.0,
            min_resident_rows=1,
        )
        if resident_bytes is not None
        else DispatchCostModel()
    )
    return KernelDispatcher(cost_model=cost, metrics=MetricsRegistry())


def execute_push_decision(view, decision, sources, r_max):
    """Execute a push routing decision; (B, n) results in input order."""
    b = len(sources)
    reserve = np.zeros((b, view.n), dtype=np.float64)
    residue = np.zeros((b, view.n), dtype=np.float64)
    if decision.backend != "batched":
        for i, s in enumerate(sources):
            single = frontier_push(view, int(s), ALPHA, r_max)
            reserve[i] = single.reserve
            residue[i] = single.residue
        return reserve, residue, 0
    arr = np.asarray(sources, dtype=np.int64)
    chunks = decision.chunks
    if chunks is None:
        chunks = (np.arange(b, dtype=np.int64),)
    sweeps = 0
    for chunk in chunks:
        part = batched_frontier_push(view, arr[chunk], ALPHA, r_max)
        reserve[chunk] = part.reserve
        residue[chunk] = part.residue
        sweeps = max(sweeps, part.sweeps)
    return reserve, residue, sweeps


# ----------------------------------------------------------------------
# 1. equivalence oracle
# ----------------------------------------------------------------------
def random_case_view(rng) -> tuple:
    """A random small graph view: packed or slack-patched, with
    isolated and dangling nodes left in on purpose."""
    n = int(rng.integers(4, 16))
    graph = DynamicGraph(num_nodes=n)
    for _ in range(int(rng.integers(0, 4 * n))):
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v)
    if rng.random() < 0.5:
        # materialize the packed store, then patch rows in place so the
        # fresh view carries slack slots (indptr[t+1] != end of row t)
        csr_view(graph)
        for _ in range(int(rng.integers(1, n))):
            u, v = int(rng.integers(n)), int(rng.integers(n))
            if u != v and not graph.has_edge(u, v):
                graph.add_edge(u, v)
    return csr_view(graph), n


def spmm_jj_order_sweeps(matrix_t, sources, n: int, stop_mass: float):
    """Pure-Python power sweeps in scipy's per-element jj order.

    scipy's CSR matvec/SpMM kernels accumulate each output element
    sequentially over the row's jj index range, so this loop performs
    the exact IEEE-754 operations of the C kernels — the scalar oracle
    of the ``spmm`` backend.
    """
    indptr, indices, data = matrix_t.indptr, matrix_t.indices, matrix_t.data

    def matvec(x):
        out = np.zeros(n, dtype=np.float64)
        for i in range(n):
            acc = 0.0
            for jj in range(indptr[i], indptr[i + 1]):
                acc += data[jj] * x[indices[jj]]
            out[i] = acc
        return out

    results = []
    for s in sources:
        residue = np.zeros(n, dtype=np.float64)
        residue[int(s)] = 1.0
        reserve = np.zeros(n, dtype=np.float64)
        sweeps = 0
        while residue.sum() > stop_mass and sweeps < 200:
            reserve = reserve + ALPHA * residue
            residue = (1.0 - ALPHA) * matvec(residue)
            sweeps += 1
        results.append((reserve, residue))
    return results


def spmm_case_matches(view, sources, rng) -> bool:
    """One SpMM oracle case: route a power-phase batch (randomized
    resident budget, so whole-batch and chunked decisions both occur),
    execute it through the scipy kernels, and compare bit-for-bit to
    the pure-Python jj-order sweeps."""
    from repro.ppr.power_iteration import transition_matrix

    matrix_t = transition_matrix(view).T.tocsr()
    stop_mass = 1e-3
    resident_rows = int(rng.integers(1, len(sources) + 2))
    dispatcher = make_dispatcher(2 * 8 * view.n * resident_rows)
    decision = dispatcher.route_power(view, len(sources))
    if decision.backend != "spmm":  # pragma: no cover - scipy absent
        return True
    arr = np.asarray(sources, dtype=np.int64)
    chunks = decision.chunks
    if chunks is None:
        chunks = (np.arange(arr.size, dtype=np.int64),)
    got: list = [None] * arr.size
    for chunk in chunks:
        cols = arr[chunk]
        residues = np.zeros((view.n, cols.size), dtype=np.float64)
        residues[cols, np.arange(cols.size)] = 1.0
        reserves = np.zeros((view.n, cols.size), dtype=np.float64)
        sweeps = 0
        while residues[:, 0].sum() > stop_mass and sweeps < 200:
            reserves += ALPHA * residues
            residues = (1.0 - ALPHA) * (matrix_t @ residues)
            sweeps += 1
        for j, pos in enumerate(chunk):
            got[pos] = (reserves[:, j], residues[:, j])
    want = spmm_jj_order_sweeps(matrix_t, arr, view.n, stop_mass)
    return all(
        np.array_equal(g_res, w_res) and np.array_equal(g_rem, w_rem)
        for (g_res, g_rem), (w_res, w_rem) in zip(got, want)
    )


def equivalence_oracle(cases: int, seed: int) -> tuple[int, int]:
    """Run ``cases`` randomized comparisons; return (cases, mismatches)."""
    rng = np.random.default_rng(seed)
    spmm_ok = scipy_probe()
    mismatches = 0
    for _ in range(cases):
        view, n = random_case_view(rng)
        source = int(rng.integers(n))
        r_max = 10.0 ** float(rng.uniform(-6, -1))
        got = frontier_push(view, source, ALPHA, r_max)
        want = reference_frontier_push(view, source, ALPHA, r_max)
        if not (
            np.array_equal(got.reserve, want.reserve)
            and np.array_equal(got.residue, want.residue)
            and got.pushes == want.pushes
        ):
            mismatches += 1
            continue
        b = int(rng.integers(1, 5))
        sources = rng.integers(0, n, size=b)
        batch = batched_frontier_push(view, sources, ALPHA, r_max)
        row_ok = True
        for row, row_source in enumerate(sources):
            single = frontier_push(view, int(row_source), ALPHA, r_max)
            if not (
                np.array_equal(batch.reserve[row], single.reserve)
                and np.array_equal(batch.residue[row], single.residue)
            ):
                mismatches += 1
                row_ok = False
                break
        if not row_ok:
            continue
        # dispatcher routing must be result-invariant: a randomized
        # resident budget forces whole-batch, locality-split, and
        # sequential decisions across cases, and executing any of them
        # must reproduce the batch kernel's bits exactly
        resident_rows = int(rng.integers(1, b + 3))
        dispatcher = make_dispatcher(2 * 8 * view.n * resident_rows)
        decision = dispatcher.route_push(
            view, b, r_max, alpha=ALPHA, source_indices=sources
        )
        routed_res, routed_rem, _ = execute_push_decision(
            view, decision, sources, r_max
        )
        if not (
            np.array_equal(routed_res, batch.reserve)
            and np.array_equal(routed_rem, batch.residue)
        ):
            mismatches += 1
            continue
        if spmm_ok and not spmm_case_matches(view, sources, rng):
            mismatches += 1
    return cases, mismatches


# ----------------------------------------------------------------------
# 2. frontier throughput
# ----------------------------------------------------------------------
def throughput_graphs(quick: bool):
    seed = bench_seed()
    if quick:
        yield "BA n=20k", barabasi_albert_graph(20_000, attach=3, seed=seed)
        yield "ER n=10k", erdos_renyi_graph(
            10_000, m=50_000, directed=True, seed=seed + 1
        )
    else:
        yield "BA n=20k", barabasi_albert_graph(20_000, attach=3, seed=seed)
        yield "BA n=50k", barabasi_albert_graph(50_000, attach=3, seed=seed)
        yield "ER n=10k", erdos_renyi_graph(
            10_000, m=50_000, directed=True, seed=seed + 1
        )
        yield "ER n=40k", erdos_renyi_graph(
            40_000, m=200_000, directed=True, seed=seed + 1
        )


def time_kernel(kernel, view, sources, r_max) -> tuple[float, int]:
    """Total wall seconds and pushes for ``sources`` single queries."""
    started = time.perf_counter()
    pushes = 0
    for source in sources:
        pushes += kernel(view, source, ALPHA, r_max).pushes
    return time.perf_counter() - started, pushes


def frontier_throughput(quick: bool, r_max: float = 1e-5) -> list[list]:
    rng = np.random.default_rng(bench_seed() + 3)
    num_sources = 2 if quick else 5
    rows = []
    for label, graph in throughput_graphs(quick):
        view = csr_view(graph)
        sources = [int(s) for s in rng.integers(view.n, size=num_sources)]
        t_scalar, p_scalar = time_kernel(forward_push, view, sources, r_max)
        t_frontier, p_frontier = time_kernel(
            frontier_push, view, sources, r_max
        )
        rows.append(
            [
                label,
                t_scalar / num_sources * 1e3,
                t_frontier / num_sources * 1e3,
                t_scalar / t_frontier,
                p_scalar / max(t_scalar, 1e-12),
                p_frontier / max(t_frontier, 1e-12),
            ]
        )
    return rows


# ----------------------------------------------------------------------
# 3. batched dispatch
# ----------------------------------------------------------------------
def batched_speedup(quick: bool) -> list[list]:
    """Sequential pushes vs one (B, n) batch vs the dispatcher.

    The batch kernel wins while the B x n state fits in cache (small
    and mid-size graphs) and loses it back on large graphs, where B
    sequential pushes each keep a single cache-hot (n,) state while
    the batch streams the whole matrix every sweep.  Both regimes are
    reported.  The ``auto`` column executes the dispatcher's routing
    decision for the same cell — the cost model caps the effective
    batch to what stays cache-resident and splits by locality, so
    ``auto`` tracks the better static engine in every regime instead
    of inheriting the large-graph losing cells.
    """
    seed = bench_seed()
    rng = np.random.default_rng(seed + 4)
    # (label, graph, r_max): small graphs push to a moderate r_max so
    # the per-sweep numpy dispatch overhead being amortized is real
    # work, not noise; the large graph keeps the throughput-section
    # r_max to show the cache-residency cliff at the same setting.
    cells = [
        (
            "BA n=500",
            barabasi_albert_graph(500, attach=3, seed=seed),
            1e-4,
        ),
        (
            "BA n=2k",
            barabasi_albert_graph(2_000, attach=3, seed=seed),
            1e-4,
        ),
        (
            "BA n=20k",
            barabasi_albert_graph(20_000, attach=3, seed=seed),
            1e-5,
        ),
    ]
    if not quick:
        cells.insert(
            2,
            (
                "ER n=5k",
                erdos_renyi_graph(
                    5_000, m=25_000, directed=True, seed=seed + 1
                ),
                1e-4,
            ),
        )
    batch_sizes = (8, 16) if quick else (2, 4, 8, 16, 32)
    repeats = 3 if quick else 5
    dispatcher = make_dispatcher()
    rows = []
    for label, graph, r_max in cells:
        view = csr_view(graph)
        for b in batch_sizes:
            sources = rng.integers(view.n, size=b)
            decision = dispatcher.route_push(
                view, b, r_max, alpha=ALPHA, source_indices=sources
            )
            t_sequential = []
            t_batched = []
            t_auto = []
            for _ in range(repeats):
                started = time.perf_counter()
                for source in sources:
                    frontier_push(view, int(source), ALPHA, r_max)
                t_sequential.append(time.perf_counter() - started)
                started = time.perf_counter()
                batch = batched_frontier_push(view, sources, ALPHA, r_max)
                t_batched.append(time.perf_counter() - started)
                started = time.perf_counter()
                execute_push_decision(view, decision, sources, r_max)
                t_auto.append(time.perf_counter() - started)
            best_seq = min(t_sequential)
            best_batch = min(t_batched)
            best_auto = min(t_auto)
            best_static = min(best_seq, best_batch)
            rows.append(
                [
                    f"{label} B={b}",
                    best_seq * 1e3,
                    best_batch * 1e3,
                    best_auto * 1e3,
                    f"B_eff={decision.effective_batch}"
                    + (
                        f" x{len(decision.chunks)}"
                        if decision.chunks is not None
                        and len(decision.chunks) > 1
                        else ""
                    ),
                    best_static / max(best_auto, 1e-12),
                    batch.sweeps,
                ]
            )
    return rows


# ----------------------------------------------------------------------
# shared reporting
# ----------------------------------------------------------------------
def run_all(quick: bool, reporter, cases: int | None = None) -> int:
    """Run the three sections; return the oracle mismatch count."""
    if cases is None:
        cases = 1000 if quick else 2000
    reporter(banner("Kernel oracle: vectorized vs pure-Python reference"))
    ran, mismatches = equivalence_oracle(cases, bench_seed() + 17)
    spmm_note = (
        "incl. routed decisions + scipy SpMM vs jj-order oracle"
        if scipy_probe()
        else "incl. routed decisions; scipy absent, SpMM path skipped"
    )
    reporter(
        f"{ran} randomized cases (packed + slack views, dangling nodes, "
        f"{spmm_note}): "
        f"{mismatches} bit-for-bit mismatches (must be 0)"
    )

    reporter(banner("Frontier kernel: scalar deque vs whole-frontier"))
    reporter(
        format_table(
            [
                "graph",
                "scalar (ms/q)",
                "frontier (ms/q)",
                "speedup",
                "scalar pushes/s",
                "frontier pushes/s",
            ],
            frontier_throughput(quick),
            float_format="{:,.2f}",
        )
    )
    reporter(
        "note: the deque schedule needs fewer pushes (Gauss-Seidel) but\n"
        "pays Python per push; the frontier kernel pays numpy per sweep."
    )

    reporter(
        banner("Batched kernel: sequential vs (B, n) batch vs dispatcher")
    )
    reporter(
        format_table(
            [
                "cell",
                "sequential (ms)",
                "batched (ms)",
                "auto (ms)",
                "auto route",
                "auto vs best",
                "sweeps",
            ],
            batched_speedup(quick),
            float_format="{:,.2f}",
        )
    )
    reporter(
        "note: the full batch wins while the B x n state is cache-resident\n"
        "(small/mid graphs, B >= 8) and loses it back on large graphs; the\n"
        "dispatcher caps the effective batch to the resident budget and\n"
        "splits by source locality, so `auto vs best` stays ~1.0 in every\n"
        "regime (>= 0.9 allowing timer noise) instead of inheriting the\n"
        "n=20k losing cells."
    )
    return mismatches


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------
def test_vectorized_kernels(benchmark, report):
    quick = scoped(True, False)
    mismatches = benchmark.pedantic(
        lambda: run_all(quick, report), rounds=1, iterations=1
    )
    assert mismatches == 0, (
        f"{mismatches} kernel results diverged from the scalar oracle"
    )


# ----------------------------------------------------------------------
# script entry point (CI smoke)
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI-sized run: fewer graphs/batch sizes (oracle stays >= 1000 cases)",
    )
    parser.add_argument(
        "--cases", type=int, default=None,
        help="override the number of oracle cases",
    )
    args = parser.parse_args(argv)
    mismatches = run_all(args.quick, print, cases=args.cases)
    if mismatches:
        print(f"FAIL: {mismatches} oracle mismatches", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
