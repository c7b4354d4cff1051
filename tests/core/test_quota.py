"""Tests for the Quota controller (regime dispatch + optimization)."""

import math

import pytest

from repro.core.cost_models import (
    COST_MODELS,
    AgendaCostModel,
    ForaCostModel,
    ForaPlusCostModel,
    cost_model_for,
)
from repro.core.quota import STABLE, UNSTABLE, QuotaController
from repro.graph.generators import barabasi_albert_graph
from repro.ppr.registry import build_algorithm
from repro.queueing.theory import expected_response_time


def fora_model(
    tau_push=1e-5, tau_walk=1e-3, tau_update=1e-4, default_beta=None
):
    return ForaCostModel(
        1000,
        5000,
        taus={
            "Forward Push": tau_push,
            "Random Walk": tau_walk,
            "Graph Update": tau_update,
        },
        default_beta=default_beta,
    )


#: plausible per-unit constants for every sub-process any family has
FAMILY_TAUS = {
    "Forward Push": 1e-6,
    "Power Iteration": 1e-3,
    "Random Walk": 1e-2,
    "Lazy Index Update": 1e-2,
    "Reverse Push": 1e-6,
    "Index Inaccuracy Update": 1e-5,
    "Graph Update": 1e-5,
    "Index Build": 1e-1,
    "Index Update": 1e-2,
}


class TestStableRegime:
    def test_light_load_is_stable(self):
        controller = QuotaController(fora_model())
        decision = controller.configure(lambda_q=1.0, lambda_u=1.0)
        assert decision.regime == STABLE
        assert decision.traffic_intensity < 1.0
        assert decision.predicted_response_time < math.inf

    def test_beta_in_unit_interval(self):
        controller = QuotaController(fora_model())
        decision = controller.configure(5.0, 5.0)
        for value in decision.beta.values():
            assert 0.0 < value < 1.0

    def test_finds_analytic_optimum_at_zero_load(self):
        """As rates -> 0, Eq. 2 -> t_q; optimal r_max = sqrt(tau1/tau2)."""
        model = fora_model(tau_push=1e-5, tau_walk=1e-3)
        controller = QuotaController(model)
        decision = controller.configure(lambda_q=1e-6, lambda_u=0.0)
        expected = math.sqrt(1e-5 / 1e-3)
        assert decision.beta["r_max"] == pytest.approx(expected, rel=0.05)

    def test_predicted_response_matches_eq2(self):
        model = fora_model()
        controller = QuotaController(model)
        decision = controller.configure(3.0, 2.0)
        t_q, t_u = controller.predicted_times(decision.beta, 3.0, 2.0)
        expected = expected_response_time(3.0, 2.0, t_q, t_u)
        assert decision.predicted_response_time == pytest.approx(
            expected, rel=1e-6
        )

    def test_beats_default_setting(self):
        """The optimized beta never predicts worse than the model's
        default, which is always one of the starting points."""
        default = {"r_max": 0.01}
        controller = QuotaController(fora_model(default_beta=default))
        decision = controller.configure(4.0, 4.0)
        t_q_d, t_u_d = controller.predicted_times(default, 4.0, 4.0)
        default_r = expected_response_time(4.0, 4.0, t_q_d, t_u_d)
        assert decision.predicted_response_time <= default_r + 1e-9

    @pytest.mark.parametrize("family", sorted(COST_MODELS))
    def test_never_worse_than_default_by_its_own_model(self, family):
        """Every family's model records the algorithm's default beta, and
        Quota always starts from it: at a (lambda_q, lambda_u) where the
        default runs at rho = 0.5, the decision's predicted Eq. 2 response
        time is no worse than the default's."""
        graph = barabasi_albert_graph(200, attach=3, seed=4)
        algorithm = build_algorithm(family, graph, 500, seed=0)
        model = cost_model_for(algorithm, taus=FAMILY_TAUS)
        default = algorithm.default_hyperparameters()
        assert model.default_beta == default
        ratio = 2.0
        t_q, t_u = model.query_time(default, 1.0, ratio), model.update_time(
            default
        )
        lq = 0.5 / (t_q + ratio * t_u)
        lu = ratio * lq
        decision = QuotaController(model).configure(lq, lu)
        assert decision.regime == STABLE
        default_r = expected_response_time(lq, lu, t_q, t_u)
        assert decision.predicted_response_time <= default_r + 1e-9

    def test_update_heavy_shifts_index_based_beta(self):
        """FORA+ update cost is tau * r_max (index rebuild), so an
        update-heavy workload should favor a smaller r_max."""
        model = ForaPlusCostModel(
            1000,
            5000,
            taus={
                "Forward Push": 1e-5,
                "Random Walk": 1e-3,
                "Index Build": 1e-1,
            },
        )
        controller = QuotaController(model)
        light = controller.configure(lambda_q=1.0, lambda_u=0.01)
        heavy = controller.configure(lambda_q=1.0, lambda_u=8.0)
        assert heavy.beta["r_max"] < light.beta["r_max"]

    def test_agenda_two_dimensional(self):
        model = AgendaCostModel(
            1000,
            5000,
            taus={
                "Forward Push": 1e-5,
                "Lazy Index Update": 1e-2,
                "Random Walk": 1e-3,
                "Reverse Push": 1e-6,
                "Index Inaccuracy Update": 1e-5,
                "Graph Update": 1e-5,
            },
        )
        controller = QuotaController(model)
        decision = controller.configure(10.0, 10.0)
        assert set(decision.beta) == {"r_max", "r_max_b"}
        assert decision.regime == STABLE


class TestUnstableRegime:
    def _overloaded_controller(self):
        # update cost has a floor of 0.5 s; lambda_u = 4 -> rho >= 2
        model = fora_model(tau_update=0.5)
        return QuotaController(model)

    def test_detects_unstable(self):
        controller = self._overloaded_controller()
        decision = controller.configure(lambda_q=1.0, lambda_u=4.0)
        assert decision.regime == UNSTABLE
        assert decision.traffic_intensity >= 1.0
        assert decision.predicted_response_time == math.inf

    def test_unstable_minimizes_rho(self):
        """In the unstable regime the chosen beta minimizes query time
        (the only tunable contribution to rho for FORA)."""
        controller = self._overloaded_controller()
        decision = controller.configure(1.0, 4.0)
        # optimal query time at r* = sqrt(tau1/tau2)
        expected_r = math.sqrt(1e-5 / 1e-3)
        assert decision.beta["r_max"] == pytest.approx(expected_r, rel=0.05)


class TestValidation:
    def test_rates_validated(self):
        controller = QuotaController(fora_model())
        with pytest.raises(ValueError):
            controller.configure(0.0, 1.0)
        with pytest.raises(ValueError):
            controller.configure(1.0, -1.0)

    def test_configure_seconds_recorded(self):
        decision = QuotaController(fora_model()).configure(1.0, 1.0)
        assert decision.configure_seconds > 0.0

    def test_is_stable_property(self):
        decision = QuotaController(fora_model()).configure(1.0, 1.0)
        assert decision.is_stable


class TestRobustness:
    def test_deterministic(self):
        controller = QuotaController(fora_model())
        a = controller.configure(2.0, 3.0)
        b = controller.configure(2.0, 3.0)
        assert a.beta == b.beta

    def test_pure_query_stream(self):
        decision = QuotaController(fora_model()).configure(5.0, 0.0)
        assert decision.regime == STABLE

    @pytest.mark.parametrize("rates", [(0.1, 0.1), (10, 1), (1, 10), (100, 100)])
    def test_wide_rate_span(self, rates):
        decision = QuotaController(fora_model()).configure(*rates)
        assert 0 < decision.beta["r_max"] < 1
