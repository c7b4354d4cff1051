"""Stress tests for the serving runtime's one thread.

Randomized query/update interleavings — several producer threads
racing their submissions into one runtime — checked against a
*sequential oracle*: every completed query records the graph version
it ran on; replaying the applied updates in version order on a shadow
copy of the initial graph reconstructs each snapshot, and the query's
answer must equal ``ppr_exact`` on that snapshot.  Zero tolerance
beyond float noise — any torn read, lost update, or mis-versioned
snapshot shows up as a violation.

Marked ``stress`` (see pyproject) so CI can run them in a dedicated
job; they stay fast enough for the default suite too.
"""

import random
import sys
import threading

import numpy as np
import pytest

from repro.graph.digraph import DynamicGraph
from repro.graph.updates import EdgeUpdate
from repro.obs.metrics import MetricsRegistry
from repro.ppr.base import PPRParams
from repro.ppr.fora import Fora
from repro.ppr.power_iteration import ppr_exact
from repro.queueing.kinds import QUERY, UPDATE
from repro.queueing.workload import Request
from repro.serving.runtime import FAILED, OK, ServingRuntime

ALPHA = 0.2


def make_graph(rng):
    n = 40
    edges = set()
    for u in range(n):
        edges.add((u, (u + 1) % n))  # ring: keeps the graph connected
    while len(edges) < 3 * n:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((u, v))
    return DynamicGraph.from_edges(sorted(edges))


def exact_query_fn(graph, source):
    """Deterministic executor: answers are a pure function of the
    snapshot, so the oracle comparison is exact (up to float noise)."""
    return ppr_exact(graph, source, alpha=ALPHA).as_dict()


def make_workload(graph, rng, num_queries=60, num_updates=30):
    nodes = list(graph.nodes())
    requests = []
    for i in range(num_queries):
        requests.append(Request(i * 1e-4, QUERY, source=rng.choice(nodes)))
    for i in range(num_updates):
        u, v = rng.sample(nodes, 2)
        requests.append(Request(i * 1e-4, UPDATE, update=EdgeUpdate(u, v)))
    rng.shuffle(requests)
    return requests


def submit_concurrently(runtime, chunks):
    """Submit each chunk from its own thread, switching threads far more
    often than the interpreter's default; returns once all are in."""
    threads = [
        threading.Thread(target=lambda c=chunk: [runtime.submit(r) for r in c])
        for chunk in chunks
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)


def check_oracle(initial_graph, final_graph, records):
    """Sequential-oracle check; returns a list of violation strings."""
    violations = []
    applied = sorted(
        (r for r in records if r.kind == UPDATE and r.status == OK),
        key=lambda r: r.version,
    )
    versions = [r.version for r in applied]
    if len(set(versions)) != len(versions):
        violations.append("duplicate update versions (writer not serial)")

    # replaying the applied updates must reproduce the final structure
    shadow = initial_graph.copy()
    for record in applied:
        record.request.update.apply(shadow)
    if set(shadow.edges()) != set(final_graph.edges()):
        violations.append("replay of applied updates != final edge set")

    # each query's answer must equal exact PPR on its snapshot
    snapshots = {initial_graph.version: initial_graph.copy()}
    shadow = initial_graph.copy()
    for record in applied:
        record.request.update.apply(shadow)
        snapshots[record.version] = shadow.copy()
    valid_versions = set(snapshots)
    for record in records:
        if record.kind != QUERY or record.status != OK:
            continue
        if record.version not in valid_versions:
            violations.append(
                f"query saw version {record.version}, never produced"
            )
            continue
        expected = ppr_exact(
            snapshots[record.version], record.request.source, alpha=ALPHA
        ).as_dict()
        got = record.result
        keys = set(expected) | set(got)
        diff = max(
            abs(expected.get(k, 0.0) - got.get(k, 0.0)) for k in keys
        )
        if diff > 1e-9:
            violations.append(
                f"query@v{record.version} diverges from oracle by {diff}"
            )
    return violations


@pytest.mark.stress
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("producers", [3, 4])
def test_randomized_interleavings_match_sequential_oracle(seed, producers):
    rng = random.Random(seed)
    graph = make_graph(rng)
    initial = graph.copy()
    runtime = ServingRuntime(
        Fora(graph, PPRParams(walk_cap=100)),
        epsilon_r=50.0,
        queue_capacity=0,
        query_fn=exact_query_fn,
        idle_tick_s=0.002,
        metrics=MetricsRegistry(),
    )
    workload = make_workload(graph, rng)
    with runtime:
        submit_concurrently(runtime, [
            workload[i::producers] for i in range(producers)
        ])
        runtime.drain()
        assert runtime.pending_updates == 0
    records = runtime.records
    assert len(records) == len(workload)
    assert all(r.status == OK for r in records)
    violations = check_oracle(initial, graph, records)
    assert violations == []


@pytest.mark.stress
def test_concurrent_producers(dummy=None):
    """Submissions racing from several threads stay consistent."""
    rng = random.Random(7)
    graph = make_graph(rng)
    initial = graph.copy()
    runtime = ServingRuntime(
        Fora(graph, PPRParams(walk_cap=100)),
        epsilon_r=50.0,
        queue_capacity=0,
        query_fn=exact_query_fn,
        idle_tick_s=0.002,
        metrics=MetricsRegistry(),
    )
    chunks = [make_workload(graph, random.Random(100 + i), 20, 10)
              for i in range(4)]
    with runtime:
        submit_concurrently(runtime, chunks)
        runtime.drain()
    total = sum(len(c) for c in chunks)
    assert len(runtime.records) == total
    violations = check_oracle(initial, graph, runtime.records)
    assert violations == []


@pytest.mark.stress
def test_injected_faults_keep_survivors_consistent():
    """Random update failures degrade the runtime but never corrupt
    the surviving state: the oracle still holds for everything that
    completed, and failed updates are not applied."""
    rng = random.Random(11)
    graph = make_graph(rng)
    initial = graph.copy()
    algorithm = Fora(graph, PPRParams(walk_cap=100))
    original = algorithm.apply_update
    fail_rng = random.Random(13)

    def flaky(update):
        if fail_rng.random() < 0.15:
            raise RuntimeError("injected fault")
        return original(update)

    algorithm.apply_update = flaky
    runtime = ServingRuntime(
        algorithm,
        epsilon_r=50.0,
        queue_capacity=0,
        query_fn=exact_query_fn,
        idle_tick_s=0.002,
        metrics=MetricsRegistry(),
    )
    with runtime:
        report = runtime.serve(make_workload(graph, rng, 40, 30))
    failed = report.of_status(FAILED)
    assert failed, "fault injection never fired (adjust the rate)"
    assert runtime.degraded
    assert runtime.pending_updates == 0
    violations = check_oracle(initial, graph, report.records)
    assert violations == []
    # every submitted request is accounted for exactly once
    assert len(report.records) == 70


@pytest.mark.stress
def test_fcfs_mode_applies_updates_inline():
    """epsilon_r=0 (strict FCFS): updates apply inline, still correct."""
    rng = random.Random(21)
    graph = make_graph(rng)
    initial = graph.copy()
    runtime = ServingRuntime(
        Fora(graph, PPRParams(walk_cap=100)),
        epsilon_r=0.0,
        queue_capacity=0,
        query_fn=exact_query_fn,
        idle_tick_s=0.002,
        metrics=MetricsRegistry(),
    )
    with runtime:
        report = runtime.serve(make_workload(graph, rng, 40, 20))
    assert report.fault_count == 0
    violations = check_oracle(initial, graph, report.records)
    assert violations == []


@pytest.mark.stress
def test_deterministic_result_values():
    """The same workload served twice yields identical final graphs
    and, per snapshot version, identical query answers."""
    def run_once(seed):
        rng = random.Random(seed)
        graph = make_graph(rng)
        runtime = ServingRuntime(
            Fora(graph, PPRParams(walk_cap=100)),
            epsilon_r=50.0,
            queue_capacity=0,
            query_fn=exact_query_fn,
            idle_tick_s=0.002,
            metrics=MetricsRegistry(),
        )
        with runtime:
            runtime.serve(make_workload(graph, rng))
        return graph

    g1, g2 = run_once(5), run_once(5)
    assert set(g1.edges()) == set(g2.edges())
    node = next(iter(g1.nodes()))
    np.testing.assert_allclose(
        ppr_exact(g1, node, alpha=ALPHA).values,
        ppr_exact(g2, node, alpha=ALPHA).values,
    )


@pytest.mark.stress
@pytest.mark.parametrize("seed", [0, 3])
def test_incremental_fora_plus_under_concurrency(seed):
    """Incremental walk-index maintenance on the runtime thread: FORA+inc
    serves a query/update mix (Seed-deferred flushes included via
    epsilon_r) with zero snapshot-version violations, and the edge→walk
    map plus the per-node walk-budget invariant hold on the final
    graph."""
    from repro.ppr.csr import csr_view
    from repro.ppr.fora import ForaPlusIncremental

    rng = random.Random(seed)
    graph = make_graph(rng)
    initial = graph.copy()
    algorithm = ForaPlusIncremental(graph, PPRParams(walk_cap=100))
    algorithm.seed(seed)
    runtime = ServingRuntime(
        algorithm,
        epsilon_r=50.0,
        queue_capacity=0,
        query_fn=exact_query_fn,
        idle_tick_s=0.002,
        metrics=MetricsRegistry(),
    )
    with runtime:
        report = runtime.serve(make_workload(graph, rng))
    assert report.shed_count == 0 and report.fault_count == 0
    assert runtime.pending_updates == 0
    violations = check_oracle(initial, graph, report.records)
    assert violations == []
    # updates went through the incremental path, never a rebuild
    assert algorithm.timers.count("Index Update") == 30
    # the patched index is structurally consistent with the final graph
    view = csr_view(graph)
    index = algorithm._walk_index()
    assert index.validate_edge_map(view) == []
    expected = np.maximum(
        np.ceil(
            index.walks_per_unit * np.maximum(view.out_deg, 1)
        ).astype(np.int64),
        1,
    )
    assert (index.counts == expected).all()
