"""Tests for the Grid / Random / Bayesian search baselines."""

import math

import numpy as np
import pytest

from repro.baselines.search import (
    BayesianOptimizationSearch,
    GridSearch,
    RandomSearch,
)


def bowl(beta):
    """Convex-in-log objective with minimum at r_max = 1e-3."""
    return (math.log10(beta["r_max"]) + 3.0) ** 2


def bowl2(beta):
    return (math.log10(beta["r_max"]) + 3.0) ** 2 + (
        math.log10(beta["r_max_b"]) + 2.0
    ) ** 2


ALL_SEARCHERS = [
    GridSearch(),
    RandomSearch(num_samples=60),
    BayesianOptimizationSearch(num_initial=6, num_iterations=12),
]


@pytest.mark.parametrize("searcher", ALL_SEARCHERS, ids=lambda s: s.name)
class TestCommonContract:
    def test_finds_near_optimum_1d(self, searcher):
        result = searcher.search(bowl, ["r_max"], rng=0)
        assert math.log10(result.best_beta["r_max"]) == pytest.approx(
            -3.0, abs=1.0
        )

    def test_history_and_counters(self, searcher):
        result = searcher.search(bowl, ["r_max"], rng=1)
        assert result.evaluations == len(result.history)
        assert result.elapsed_seconds > 0
        values = [v for _, v in result.history]
        assert result.best_value == min(values)

    def test_betas_in_unit_interval(self, searcher):
        result = searcher.search(bowl2, ["r_max", "r_max_b"], rng=2)
        for beta, _ in result.history:
            assert all(0 < v < 1 for v in beta.values())

    def test_requires_params(self, searcher):
        with pytest.raises(ValueError):
            searcher.search(bowl, [], rng=3)


class TestGridSearch:
    def test_exhaustive_evaluation_count(self):
        searcher = GridSearch(grid=[0.1, 0.01, 0.001])
        result = searcher.search(bowl2, ["r_max", "r_max_b"], rng=0)
        assert result.evaluations == 9

    def test_custom_grid_validation(self):
        with pytest.raises(ValueError):
            GridSearch(grid=[])
        with pytest.raises(ValueError):
            GridSearch(grid=[2.0])

    def test_finds_exact_grid_optimum(self):
        searcher = GridSearch(grid=[1e-4, 1e-3, 1e-2])
        result = searcher.search(bowl, ["r_max"], rng=0)
        assert result.best_beta["r_max"] == 1e-3


class TestRandomSearch:
    def test_sample_count(self):
        result = RandomSearch(num_samples=17).search(bowl, ["r_max"], rng=0)
        assert result.evaluations == 17

    def test_invalid_sample_count(self):
        with pytest.raises(ValueError):
            RandomSearch(num_samples=0)

    def test_deterministic_given_seed(self):
        a = RandomSearch(25).search(bowl, ["r_max"], rng=7)
        b = RandomSearch(25).search(bowl, ["r_max"], rng=7)
        assert a.best_beta == b.best_beta


class TestBayesianOptimization:
    def test_evaluation_budget(self):
        searcher = BayesianOptimizationSearch(num_initial=4, num_iterations=6)
        result = searcher.search(bowl, ["r_max"], rng=0)
        assert result.evaluations == 10

    def test_beats_random_on_same_budget(self):
        """On a smooth objective, GP guidance should (statistically)
        find a better optimum than random sampling with equal budget."""
        budget = 20
        bo_values = []
        rs_values = []
        for seed in range(5):
            bo = BayesianOptimizationSearch(
                num_initial=5, num_iterations=budget - 5
            ).search(bowl, ["r_max"], rng=seed)
            rs = RandomSearch(num_samples=budget).search(
                bowl, ["r_max"], rng=seed
            )
            bo_values.append(bo.best_value)
            rs_values.append(rs.best_value)
        assert np.mean(bo_values) <= np.mean(rs_values) + 0.05

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BayesianOptimizationSearch(num_initial=0)
        with pytest.raises(ValueError):
            BayesianOptimizationSearch(num_iterations=-1)

    def test_handles_constant_objective(self):
        result = BayesianOptimizationSearch(
            num_initial=3, num_iterations=3
        ).search(lambda beta: 1.0, ["r_max"], rng=1)
        assert result.best_value == 1.0
