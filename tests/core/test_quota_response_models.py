"""Controller behaviour across response models and regime boundaries."""

import math

import pytest

from repro.core.cost_models import ForaPlusCostModel
from repro.core.quota import QuotaController
from repro.queueing.theory import (
    expected_response_time,
    heavy_traffic_response_time,
    mm1_response_time,
)


def model(tau_push=1e-5, tau_walk=1e-3, tau_index=1e-2):
    return ForaPlusCostModel(
        1000,
        5000,
        taus={
            "Forward Push": tau_push,
            "Random Walk": tau_walk,
            "Index Build": tau_index,
        },
    )


class TestRegimeBoundary:
    def test_regime_flips_with_update_rate(self):
        """Sweeping lambda_u across the capacity limit flips regimes."""
        controller = QuotaController(model(tau_index=0.1))
        # t_u >= 0 but scales with r_max; at huge lambda_u even the
        # cheapest beta cannot fit the work into one server-second
        stable = controller.configure(1.0, 1.0)
        assert stable.regime == "stable"
        # the minimum possible rho: at r_max -> 0, t_u -> 0 but t_q -> inf;
        # drive lambda_q high enough that min rho >= 1
        unstable = controller.configure(1e5, 1.0)
        assert unstable.regime == "unstable"
        assert unstable.predicted_response_time == math.inf

    def test_unstable_decision_minimizes_rho_not_eq2(self):
        controller = QuotaController(model())
        decision = controller.configure(1e6, 1e6)
        assert decision.regime == "unstable"
        # the chosen beta yields the smallest achievable rho among probes
        probes = [1e-6, 1e-4, 1e-2, 0.5]
        best_probe = min(
            controller._rho(controller._to_log({"r_max": p}), 1e6, 1e6)
            for p in probes
        )
        assert decision.traffic_intensity <= best_probe * 1.01


class TestWarmStartAndQuick:
    def test_quick_mode_close_to_full(self):
        controller = QuotaController(model())
        full = controller.configure(10.0, 10.0)
        quick = controller.configure(
            10.0, 10.0, warm_start=full.beta, quick=True
        )
        assert quick.beta["r_max"] == pytest.approx(
            full.beta["r_max"], rel=0.2
        )

    def test_quick_without_warm_start_still_valid(self):
        controller = QuotaController(model())
        decision = controller.configure(10.0, 10.0, quick=True)
        assert 0 < decision.beta["r_max"] < 1
        assert decision.regime == "stable"

    def test_quick_mode_is_faster(self):
        controller = QuotaController(model())
        full = controller.configure(10.0, 10.0)
        quick = controller.configure(
            10.0, 10.0, warm_start=full.beta, quick=True
        )
        assert quick.configure_seconds < full.configure_seconds

    def test_quick_mode_evaluates_the_model_fewer_times(self):
        """The deterministic twin of the wall-clock test above: quick
        mode's smaller lattice means fewer cost-model evaluations."""
        controller = QuotaController(model())
        calls = []
        query_time = controller.cost_model.query_time

        def counted(*args):
            calls.append(1)
            return query_time(*args)

        controller.cost_model.query_time = counted
        full = controller.configure(10.0, 10.0)
        full_calls = len(calls)
        calls.clear()
        controller.configure(10.0, 10.0, warm_start=full.beta, quick=True)
        assert 0 < len(calls) < full_calls


class TestOneEq2:
    """Quota's objective is :mod:`repro.queueing.theory`, not a copy."""

    @pytest.mark.parametrize(
        "name, estimate",
        [
            ("pk", lambda lq, lu, tq, tu, c: expected_response_time(
                lq, lu, tq, tu, c.cv_q, c.cv_u)),
            ("mm1", lambda lq, lu, tq, tu, c: mm1_response_time(
                lq, lu, tq, tu)),
            ("heavy-traffic", lambda lq, lu, tq, tu, c: (
                heavy_traffic_response_time(lq, lu, tq, tu, c.cv_q, c.cv_u))),
        ],
    )
    def test_prediction_is_the_theory_function(self, name, estimate):
        controller = QuotaController(
            model(), cv_q=1.5, cv_u=0.5, response_model=name
        )
        lq, lu = 10.0, 10.0
        decision = controller.configure(lq, lu)
        assert decision.regime == "stable"
        t_q, t_u = controller.predicted_times(decision.beta, lq, lu)
        assert decision.predicted_response_time == estimate(
            lq, lu, t_q, t_u, controller
        )


class TestResponseModelDivergence:
    def test_models_differ_under_asymmetric_variance(self):
        """With very different CV inputs the estimates separate."""
        base = model()
        pk = QuotaController(base, cv_q=3.0, cv_u=0.0, response_model="pk")
        mm1 = QuotaController(base, response_model="mm1")
        lq, lu = 20.0, 20.0
        beta = {"r_max": 1e-3}
        x = pk._to_log(beta)
        r_pk = pk._response_time(x, lq, lu)
        r_mm1 = mm1._response_time(x, lq, lu)
        assert r_pk != pytest.approx(r_mm1, rel=0.01)

    def test_heavy_traffic_with_deterministic_service_below_pk_cv1(self):
        base = model()
        ht = QuotaController(
            base, cv_q=0.0, cv_u=0.0, response_model="heavy-traffic"
        )
        pk = QuotaController(base, cv_q=1.0, cv_u=1.0, response_model="pk")
        beta = {"r_max": 1e-3}
        x = ht._to_log(beta)
        assert ht._response_time(x, 50.0, 50.0) < pk._response_time(
            x, 50.0, 50.0
        )
