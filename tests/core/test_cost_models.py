"""Tests for the Table I cost models."""

import math

import pytest

from repro.core.cost_models import (
    COST_MODELS,
    AgendaCostModel,
    CacheAwareCostModel,
    ForaCostModel,
    ForaPlusCostModel,
    SpeedPPRCostModel,
    SpeedPPRPlusCostModel,
    TopPPRCostModel,
    cost_model_for,
    ForaPlusIncrementalCostModel,
    SpeedPPRPlusIncrementalCostModel,
)
from repro.core.quota import QuotaController
from repro.graph.generators import barabasi_albert_graph
from repro.ppr.base import PPRParams
from repro.ppr.registry import ALGORITHMS


class TestAgendaModel:
    def setup_method(self):
        self.model = AgendaCostModel(
            n=1000,
            m=5000,
            taus={
                "Forward Push": 1e-6,
                "Lazy Index Update": 1e-2,
                "Random Walk": 1e-3,
                "Reverse Push": 1e-6,
                "Index Inaccuracy Update": 1e-5,
                "Graph Update": 1e-5,
            },
        )

    def test_query_time_formula(self):
        beta = {"r_max": 1e-3, "r_max_b": 1e-3}
        expected = (
            1e-6 / 1e-3
            + 1e-2 * (2.0) * 1e-3 * (1000 * 1e-3 + 1)
            + 1e-3 * 1e-3
        )
        got = self.model.query_time(beta, lambda_q=10, lambda_u=20)
        assert got == pytest.approx(expected)

    def test_update_time_formula(self):
        beta = {"r_max": 1e-3, "r_max_b": 1e-3}
        expected = 1e-6 / 1e-3 + 1e-5 + 1e-5
        assert self.model.update_time(beta) == pytest.approx(expected)

    def test_lazy_cost_scales_with_update_ratio(self):
        beta = {"r_max": 1e-3, "r_max_b": 1e-3}
        light = self.model.query_time(beta, lambda_q=10, lambda_u=1)
        heavy = self.model.query_time(beta, lambda_q=10, lambda_u=100)
        assert heavy > light

    def test_query_cost_convex_in_r_max(self):
        """1/r + c r has an interior minimum: both extremes are worse."""
        betas = [
            {"r_max": r, "r_max_b": 1e-3} for r in (1e-7, 1e-3, 0.9)
        ]
        times = [self.model.query_time(b, 10, 10) for b in betas]
        assert times[1] < times[0]
        assert times[1] < times[2]

    def test_reverse_push_tradeoff(self):
        """Smaller r_max_b: cheaper queries (tighter bounds), costlier updates."""
        tight = {"r_max": 1e-3, "r_max_b": 1e-5}
        loose = {"r_max": 1e-3, "r_max_b": 1e-1}
        assert self.model.update_time(tight) > self.model.update_time(loose)
        assert self.model.query_time(tight, 10, 10) < self.model.query_time(
            loose, 10, 10
        )


class TestOtherModels:
    def test_fora_constant_update(self):
        model = ForaCostModel(100, 500, taus={"Graph Update": 2e-4})
        assert model.update_time({"r_max": 1e-5}) == pytest.approx(2e-4)
        assert model.update_time({"r_max": 0.5}) == pytest.approx(2e-4)

    def test_fora_plus_update_scales_with_r_max(self):
        model = ForaPlusCostModel(100, 500, taus={"Index Build": 1.0})
        assert model.update_time({"r_max": 0.2}) == pytest.approx(0.2)
        assert model.update_time({"r_max": 0.4}) > model.update_time(
            {"r_max": 0.2}
        )

    def test_speedppr_log_surrogate(self):
        model = SpeedPPRCostModel(100, 1000, taus={"Power Iteration": 1.0,
                                                   "Random Walk": 0.0})
        # log(1 + 1/(r m)) ~ log(1/(r m)) for small r
        small = model.query_time({"r_max": 1e-9}, 1, 1)
        assert small == pytest.approx(math.log(1.0 / (1e-9 * 1000)), rel=1e-3)
        # decays toward zero (not negative) for large r m
        large = model.query_time({"r_max": 0.9}, 1, 1)
        assert 0 < large < 0.01

    def test_speedppr_plus_update(self):
        model = SpeedPPRPlusCostModel(100, 1000, taus={"Index Build": 3.0})
        assert model.update_time({"r_max": 0.1}) == pytest.approx(0.3)

    def test_fora_plus_incremental_update_terms(self):
        model = ForaPlusIncrementalCostModel(
            100, 500, taus={"Graph Update": 1e-4, "Index Update": 1e-2}
        )
        assert model.update_time({"r_max": 0.2}) == pytest.approx(
            1e-4 + 1e-2 * 0.2
        )
        # query side is inherited from the FORA+ row unchanged
        plain = ForaPlusCostModel(100, 500)
        assert model.query_factors(
            {"r_max": 0.1}, 1, 1
        ) == plain.query_factors({"r_max": 0.1}, 1, 1)

    def test_speedppr_plus_incremental_update_terms(self):
        model = SpeedPPRPlusIncrementalCostModel(
            100, 1000, taus={"Graph Update": 1e-4, "Index Update": 2e-2}
        )
        assert model.update_time({"r_max": 0.1}) == pytest.approx(
            1e-4 + 2e-2 * 0.1
        )

    def test_quota_flips_to_index_based_under_churn(self):
        """The point of the incremental row: with representative taus
        (incremental maintenance ~100x cheaper than a rebuild), an
        update-heavy rate pair that drives FORA+ unstable leaves
        FORA+inc stable — so an argmin over predicted response times
        now selects an index-based method where it previously could
        not."""
        taus_q = {"Forward Push": 2e-5, "Random Walk": 2e-3}
        rebuild = ForaPlusCostModel(
            5000, 25000, taus={**taus_q, "Index Build": 5.0}
        )
        incremental = ForaPlusIncrementalCostModel(
            5000, 25000,
            taus={**taus_q, "Graph Update": 1e-4, "Index Update": 0.05},
        )
        # update-heavy enough that no r_max keeps rho < 1 for the
        # rebuild row (its rho_min = 2 sqrt(lq tau_fp (lq tau_rw +
        # lu tau_ib)) ~ 2.0) while the incremental row stays ~0.4
        lambda_q, lambda_u = 5.0, 2000.0
        d_rebuild = QuotaController(rebuild).configure(lambda_q, lambda_u)
        d_inc = QuotaController(incremental).configure(lambda_q, lambda_u)
        assert not d_rebuild.is_stable
        assert d_inc.is_stable
        assert (
            d_inc.predicted_response_time
            < d_rebuild.predicted_response_time
        )

    def test_topppr_three_terms(self):
        model = TopPPRCostModel(
            100, 500,
            taus={"Forward Push": 1.0, "Random Walk": 1.0, "Reverse Push": 1.0},
        )
        got = model.query_time({"r_max": 0.1, "r_max_b": 0.2}, 1, 1)
        assert got == pytest.approx(1 / 0.1 + 0.1 + 1 / 0.2)


class TestModelInfrastructure:
    def test_default_tau_is_one(self):
        model = ForaCostModel(10, 20)
        assert model.tau("Forward Push") == 1.0

    def test_without_constants(self):
        model = ForaCostModel(10, 20, taus={"Forward Push": 5.0})
        ablated = model.without_constants()
        assert ablated.tau("Forward Push") == 1.0
        assert ablated.n == 10

    def test_with_taus_copy(self):
        model = ForaCostModel(10, 20)
        updated = model.with_taus({"Random Walk": 2.0})
        assert updated.tau("Random Walk") == 2.0
        assert model.tau("Random Walk") == 1.0

    def test_beta_dict_roundtrip(self):
        model = AgendaCostModel(10, 20)
        beta = model.beta_dict([0.1, 0.2])
        assert beta == {"r_max": 0.1, "r_max_b": 0.2}

    def test_beta_dict_wrong_size(self):
        with pytest.raises(ValueError):
            AgendaCostModel(10, 20).beta_dict([0.1])

    def test_invalid_graph_stats(self):
        with pytest.raises(ValueError):
            ForaCostModel(0, 10)

    def test_registry_covers_quota_algorithms(self):
        for name in ("Agenda", "FORA", "FORA+", "SpeedPPR", "SpeedPPR+",
                     "FORA-TopK", "TopPPR"):
            assert name in COST_MODELS

    def test_cost_model_for_matches_algorithm(self):
        graph = barabasi_albert_graph(60, attach=2, seed=0)
        params = PPRParams(walk_cap=500)
        for name, cls in ALGORITHMS.items():
            if name == "ResAcc":
                continue  # baseline-only, no model (as in the paper)
            alg = cls(graph.copy(), params)
            model = cost_model_for(alg)
            assert model.algorithm_name == name
            assert model.n == 60

    def test_cost_model_for_unknown_raises(self):
        graph = barabasi_albert_graph(60, attach=2, seed=0)
        alg = ALGORITHMS["ResAcc"](graph, PPRParams(walk_cap=500))
        with pytest.raises(ValueError, match="no cost model"):
            cost_model_for(alg)


class TestCacheAwareCostModel:
    BETA = {"r_max": 1e-3}

    def make_inner(self):
        return ForaCostModel(
            n=1000, m=5000,
            taus={
                "Forward Push": 1e-6,
                "Random Walk": 1e-3,
                "Graph Update": 1e-5,
            },
        )

    def test_mirrors_inner_interface_but_mixes_query_time(self):
        inner = self.make_inner()
        wrapped = CacheAwareCostModel(
            inner, hit_time_s=1e-5, hit_fraction=0.25
        )
        assert wrapped.algorithm_name == "FORA"
        assert wrapped.param_names == ("r_max",)
        assert wrapped.query_subprocesses == ("Forward Push", "Random Walk")
        assert wrapped.query_factors(self.BETA, 10, 20) == (
            inner.query_factors(self.BETA, 10, 20)
        )
        assert wrapped.update_time(self.BETA) == inner.update_time(self.BETA)
        assert wrapped.query_time(self.BETA, 10, 20) == pytest.approx(
            0.25 * 1e-5 + 0.75 * inner.query_time(self.BETA, 10, 20)
        )

    def test_without_constants_and_with_taus_stay_wrapped(self):
        wrapped = CacheAwareCostModel(
            self.make_inner(), hit_time_s=1e-5, hit_fraction=0.25
        )
        stripped = wrapped.without_constants()
        assert isinstance(stripped, CacheAwareCostModel)
        assert stripped.hit_time_s == 1e-5
        assert stripped.inner.taus == self.make_inner().without_constants().taus
        retau = wrapped.with_taus(
            {"Forward Push": 2e-6, "Random Walk": 1e-3,
             "Graph Update": 1e-5}
        )
        assert isinstance(retau, CacheAwareCostModel)
        assert retau.inner.taus["Forward Push"] == 2e-6
        assert wrapped.inner.taus["Forward Push"] == 1e-6  # copy, not alias
