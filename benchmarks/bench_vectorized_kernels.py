"""Extension bench: the vectorized whole-frontier push kernel.

Two views of ``repro.ppr.kernels`` (the ``engine=`` switch):

1. **Equivalence oracle** — >= 1000 randomized cases (packed and
   slack-patched CSR views, dangling nodes, swept ``r_max``) where
   ``frontier_push`` must match the pure-Python synchronous reference
   bit-for-bit, and the scipy matvec power sweeps must match a
   pure-Python jj-order sweep oracle bit-for-bit.  Any mismatch fails
   the bench.
2. **Frontier throughput** — scalar deque push vs the whole-frontier
   kernel on BA/ER graphs (up to n = 20k).  Both schedules run to the
   same residue threshold; the table reports wall-clock per query,
   pushes/s, and the speedup.  The scalar deque does *fewer* pushes
   (Gauss–Seidel propagates fresh residue immediately), so the honest
   headline is wall-clock, with push counts printed alongside.

Run as a script (CI smoke: ``python benchmarks/bench_vectorized_kernels.py
--quick``) or through pytest (``pytest benchmarks/bench_vectorized_kernels.py``).
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from benchmarks.common import bench_seed, scoped
from repro.evaluation.report import banner, format_table
from repro.graph.digraph import DynamicGraph
from repro.graph.generators import barabasi_albert_graph, erdos_renyi_graph
from repro.ppr.csr import csr_view
from repro.ppr.forward_push import forward_push
from repro.ppr.kernels import (
    frontier_push,
    reference_frontier_push,
    scipy_probe,
)

ALPHA = 0.2


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


def jj_order_sweeps(matrix_t, source: int, n: int, stop_mass: float):
    """Pure-Python power sweeps in scipy's per-element jj order.

    scipy's CSR matvec kernel accumulates each output element
    sequentially over the row's jj index range, so this loop performs
    the exact IEEE-754 operations of the C kernel — the scalar oracle
    of SpeedPPR's ``scipy`` power backend.
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

    residue = np.zeros(n, dtype=np.float64)
    residue[source] = 1.0
    reserve = np.zeros(n, dtype=np.float64)
    sweeps = 0
    while residue.sum() > stop_mass and sweeps < 200:
        reserve = reserve + ALPHA * residue
        residue = (1.0 - ALPHA) * matvec(residue)
        sweeps += 1
    return reserve, residue


def matvec_case_matches(view, source: int) -> bool:
    """One scipy oracle case: SpeedPPR's matvec sweep loop against the
    pure-Python jj-order sweeps, bit-for-bit."""
    from repro.ppr.power_iteration import transition_matrix

    matrix_t = transition_matrix(view).T.tocsr()
    stop_mass = 1e-3
    residue = np.zeros(view.n, dtype=np.float64)
    residue[source] = 1.0
    reserve = np.zeros(view.n, dtype=np.float64)
    sweeps = 0
    while residue.sum() > stop_mass and sweeps < 200:
        reserve += ALPHA * residue
        residue = (1.0 - ALPHA) * (matrix_t @ residue)
        sweeps += 1
    want_reserve, want_residue = jj_order_sweeps(
        matrix_t, source, view.n, stop_mass
    )
    return np.array_equal(reserve, want_reserve) and np.array_equal(
        residue, want_residue
    )


def equivalence_oracle(cases: int, seed: int) -> tuple[int, int]:
    """Run ``cases`` randomized comparisons; return (cases, mismatches)."""
    rng = np.random.default_rng(seed)
    scipy_ok = scipy_probe()
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
        if scipy_ok and not matvec_case_matches(view, source):
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
# shared reporting
# ----------------------------------------------------------------------
def run_all(quick: bool, reporter, cases: int | None = None) -> int:
    """Run both sections; return the oracle mismatch count."""
    if cases is None:
        cases = 1000 if quick else 2000
    reporter(banner("Kernel oracle: vectorized vs pure-Python reference"))
    ran, mismatches = equivalence_oracle(cases, bench_seed() + 17)
    scipy_note = (
        "incl. scipy matvec vs jj-order oracle"
        if scipy_probe()
        else "scipy absent, matvec path skipped"
    )
    reporter(
        f"{ran} randomized cases (packed + slack views, dangling nodes, "
        f"{scipy_note}): "
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
        help="CI-sized run: fewer graphs (oracle stays >= 1000 cases)",
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
