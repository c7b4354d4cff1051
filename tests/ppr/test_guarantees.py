"""Statistical validation of the Eq. 1 accuracy guarantee.

Definition 1 promises |pi - pi_hat| <= eps * pi for every pi > delta,
with failure probability p_f.  These tests measure the *empirical*
failure rate of each SSPPR algorithm over many seeded runs and check it
stays below the configured p_f with slack — the end-to-end payoff of
all the push/walk machinery.
"""

import numpy as np
import pytest

from repro.graph.generators import barabasi_albert_graph
from repro.ppr.base import PPRParams
from repro.ppr.power_iteration import ppr_exact
from repro.ppr.registry import ALGORITHMS

SSPPR = ["FORA", "FORA+", "SpeedPPR", "SpeedPPR+", "Agenda", "ResAcc"]


@pytest.fixture(scope="module")
def setting():
    graph = barabasi_albert_graph(80, attach=3, seed=40)
    # generous delta/p_f so the guarantee is meaningful yet the test
    # stays fast: with eps=0.5 and delta=0.01, K ~ O(1e3)
    params = PPRParams(
        alpha=0.2, epsilon=0.5, delta=0.01, p_f=0.1, walk_cap=100_000
    )
    exact = ppr_exact(graph, 0, alpha=params.alpha)
    return graph, params, exact


@pytest.mark.parametrize("name", SSPPR)
def test_relative_error_guarantee(name, setting):
    graph, params, exact = setting
    runs = 12
    delta = params.resolved_delta(80)
    failures = 0
    for seed in range(runs):
        alg = ALGORITHMS[name](graph.copy(), params)
        alg.seed(seed)
        estimate = alg.query(0)
        run_failed = any(
            abs(estimate[v] - exact[v]) > params.epsilon * exact[v]
            for v in range(80)
            if exact[v] > delta
        )
        failures += run_failed
    # empirical failure rate must not exceed p_f with slack for the
    # finite sample (p_f = 0.1, 12 runs -> tolerate <= 3 failures)
    assert failures <= 3, f"{name}: {failures}/{runs} runs broke Eq. 1"


def test_walk_count_drives_accuracy(setting):
    """Raising K (via walk_cap on a tight budget) tightens estimates."""
    graph, _, exact = setting
    errors = {}
    for cap in (50, 50_000):
        params = PPRParams(
            alpha=0.2, epsilon=0.5, delta=0.01, p_f=0.1, walk_cap=cap
        )
        per_seed = []
        for seed in range(5):
            alg = ALGORITHMS["FORA"](graph.copy(), params)
            alg.seed(seed)
            estimate = alg.query(0)
            per_seed.append(
                max(abs(estimate[v] - exact[v]) for v in range(80))
            )
        errors[cap] = float(np.mean(per_seed))
    assert errors[50_000] < errors[50]


def test_hyperparameter_tuning_preserves_guarantee(setting):
    """Quota's knob (r_max) shifts work, never the guarantee."""
    graph, params, exact = setting
    delta = params.resolved_delta(80)
    for r_scale in (0.1, 1.0, 10.0):
        failures = 0
        runs = 8
        for seed in range(runs):
            alg = ALGORITHMS["FORA"](graph.copy(), params)
            alg.set_hyperparameters(
                r_max=min(max(alg.r_max * r_scale, 1e-9), 0.99)
            )
            alg.seed(seed)
            estimate = alg.query(0)
            failures += any(
                abs(estimate[v] - exact[v]) > params.epsilon * exact[v]
                for v in range(80)
                if exact[v] > delta
            )
        assert failures <= 2, f"r_max x{r_scale}: {failures}/{runs} failed"
