"""End-to-end fuzzing: random configurations must never crash and must
keep the cross-subsystem invariants.

Hypothesis drives random graph shapes, algorithm choices, rates, Seed
budgets and seeds through the full QuotaSystem pipeline; every run
checks the structural invariants (request conservation, FCFS start
order, graph consistency, non-negative estimates) rather than timing.
"""

import random

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.system import QuotaSystem
from repro.graph.generators import barabasi_albert_graph, erdos_renyi_graph
from repro.graph.updates import random_update_stream
from repro.ppr.base import PPRParams
from repro.ppr.csr import csr_view
from repro.ppr.registry import ALGORITHMS
from repro.queueing.kinds import QUERY, UPDATE
from repro.queueing.workload import generate_workload
from tests.ppr.test_csr import tracked

FAST_ALGORITHMS = ["FORA", "FORA+", "SpeedPPR", "Agenda", "ResAcc"]


def build_graph(kind: str, n: int, seed: int):
    if kind == "ba":
        return barabasi_albert_graph(max(n, 6), attach=2, seed=seed)
    return erdos_renyi_graph(max(n, 6), m=3 * max(n, 6), seed=seed)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    kind=st.sampled_from(["ba", "er"]),
    n=st.integers(8, 60),
    algorithm=st.sampled_from(FAST_ALGORITHMS),
    lambda_q=st.floats(1.0, 50.0),
    ratio=st.floats(0.1, 8.0),
    epsilon_r=st.sampled_from([0.0, 0.3, 2.0]),
    seed=st.integers(0, 1000),
)
def test_pipeline_never_crashes_and_conserves(
    kind, n, algorithm, lambda_q, ratio, epsilon_r, seed
):
    graph = build_graph(kind, n, seed % 7)
    params = PPRParams(walk_cap=200)
    alg = ALGORITHMS[algorithm](graph.copy(), params)
    alg.seed(seed)
    workload = generate_workload(
        graph, lambda_q, lambda_q * ratio, 0.5, rng=seed
    )
    system = QuotaSystem(alg, epsilon_r=epsilon_r)

    estimates = []
    result = system.process(
        workload,
        query_callback=lambda req, est, pending: estimates.append(est),
    )

    # conservation: every request completes exactly once
    assert len(result) == len(workload)
    assert len(result.of_kind(QUERY)) == workload.num_queries
    assert len(result.of_kind(UPDATE)) == workload.num_updates

    # the server never runs backwards
    starts = [c.start for c in result.completed]
    assert starts == sorted(starts)
    for c in result.completed:
        assert c.finish >= c.start >= 0.0
        assert c.start >= c.arrival - 1e-12

    # graph ends in the deterministic post-update state
    shadow = graph.copy()
    for request in workload:
        if request.kind == UPDATE:
            request.update.apply(shadow)
    assert set(alg.graph.edges()) == set(shadow.edges())

    # estimates stay sane regardless of configuration
    for est in estimates:
        assert np.all(est.values >= 0.0)
        assert est.values.sum() < 1.5


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    n=st.integers(8, 40),
    r_max_exp=st.floats(-6.0, -0.5),
    r_max_b_exp=st.floats(-6.0, -0.5),
    seed=st.integers(0, 100),
)
def test_agenda_any_hyperparameters_stay_consistent(
    n, r_max_exp, r_max_b_exp, seed
):
    """Agenda must serve correctly at *any* beta Quota could pick."""
    graph = barabasi_albert_graph(max(n, 6), attach=2, seed=1)
    alg = ALGORITHMS["Agenda"](graph, PPRParams(walk_cap=150))
    alg.seed(seed)
    alg.set_hyperparameters(
        r_max=10.0**r_max_exp, r_max_b=10.0**r_max_b_exp
    )
    workload = generate_workload(graph, 20.0, 20.0, 0.3, rng=seed)
    result = QuotaSystem(alg).process(workload)
    assert len(result) == len(workload)
    estimate = alg.query(0)
    assert np.all(estimate.values >= 0.0)
    assert 0.3 < estimate.values.sum() < 1.5


# ----------------------------------------------------------------------
# Incremental CSR equivalence: a patched view must list every row exactly
# as reference Python lists under the same mutations do, order included.
# ----------------------------------------------------------------------
def test_incremental_csr_equivalence_long_stream():
    """>= 1000 randomized insert/delete updates with interleaved
    view reads at varying strides; zero divergence allowed."""
    rng = random.Random(42)
    g = barabasi_albert_graph(150, attach=2, seed=6)
    rows = tracked(g, reverse=True)  # in-rows too
    applied = 0
    for stride in (1, 3, 7, 20):
        for i, update in enumerate(random_update_stream(g, 300, rng)):
            rows.apply(update.apply(g))
            applied += 1
            if i % stride == 0:
                rows.check(csr_view(g))
        rows.check(csr_view(g))
    assert applied >= 1000


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    n=st.integers(5, 40),
    num_updates=st.integers(1, 120),
    stride=st.integers(1, 10),
    seed=st.integers(0, 10_000),
)
def test_incremental_csr_equivalence_random_shapes(
    n, num_updates, stride, seed
):
    rng = random.Random(seed)
    g = barabasi_albert_graph(n, attach=2, seed=seed % 13)
    rows = tracked(g, reverse=True)  # in-rows too
    for i, update in enumerate(random_update_stream(g, num_updates, rng)):
        rows.apply(update.apply(g))
        if i % stride == 0:
            rows.check(csr_view(g))
    rows.check(csr_view(g))


def test_incremental_csr_equivalence_with_node_churn():
    """Edge toggles interleaved with brand-new node ids and occasional
    node removals (which re-index every later node)."""
    rng = random.Random(7)
    g = barabasi_albert_graph(40, attach=2, seed=2)
    rows = tracked(g, reverse=True)  # in-rows too
    next_id = g.num_nodes
    for step in range(400):
        roll = rng.random()
        if roll < 0.80:
            u = rng.randrange(g.num_nodes)
            v = rng.randrange(g.num_nodes)
            u = sorted(g.nodes())[u % g.num_nodes]
            v = sorted(g.nodes())[v % g.num_nodes]
            g.toggle_edge(u, v)
            rows.toggle(u, v)
        elif roll < 0.95:
            # attach a never-seen node via an edge, as in the paper's
            # "insert of a new node u is linked with an update (u, v)"
            anchor = rng.choice(sorted(g.nodes()))
            g.add_edge(next_id, anchor)
            rows.link(next_id, anchor)
            next_id += 1
        else:
            victim = rng.choice(sorted(g.nodes()))
            g.remove_node(victim)
            rows.remove_node(victim)
        if step % 5 == 0:
            rows.check(csr_view(g))
    rows.check(csr_view(g))
