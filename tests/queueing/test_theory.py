"""Tests for the Eq. 2 / Lemma 1 queueing formulas."""

import math

import pytest

from repro.queueing.theory import (
    expected_response_time,
    is_stable,
    traffic_intensity,
    unstable_response_growth,
    heavy_traffic_response_time,
    mm1_response_time,
)


class TestTrafficIntensity:
    def test_definition(self):
        assert traffic_intensity(2.0, 3.0, 0.1, 0.2) == pytest.approx(0.8)

    def test_stability_boundary(self):
        assert is_stable(1.0, 1.0, 0.4, 0.4)
        assert not is_stable(1.0, 1.0, 0.5, 0.5)  # rho == 1 is unstable
        assert not is_stable(1.0, 1.0, 0.6, 0.6)


class TestExpectedResponseTime:
    def test_reduces_to_mm1(self):
        """With only queries and CV=1, Eq. 2 equals the M/M/1 formula
        W = rho/(mu - lambda) + 1/mu."""
        lam, mu = 5.0, 10.0
        t_q = 1.0 / mu
        rho = lam * t_q
        expected_mm1 = rho / (mu - lam) + t_q
        got = expected_response_time(lam, 0.0, t_q, 0.0, cv_q=1.0)
        assert got == pytest.approx(expected_mm1)

    def test_infinite_when_unstable(self):
        assert expected_response_time(10.0, 10.0, 0.1, 0.1) == math.inf

    def test_increases_with_load(self):
        low = expected_response_time(1.0, 1.0, 0.1, 0.1)
        high = expected_response_time(4.0, 4.0, 0.1, 0.1)
        assert high > low

    def test_update_service_contributes_waiting_only(self):
        """Updates inflate waiting but not the final t_q term."""
        base = expected_response_time(1.0, 0.0, 0.1, 0.0)
        with_updates = expected_response_time(1.0, 1.0, 0.1, 0.1)
        assert with_updates > base

    def test_zero_load_equals_service_time(self):
        assert expected_response_time(0.0, 0.0, 0.25, 0.1) == pytest.approx(0.25)

    def test_cv_raises_waiting(self):
        smooth = expected_response_time(5.0, 0.0, 0.1, 0.0, cv_q=0.0)
        noisy = expected_response_time(5.0, 0.0, 0.1, 0.0, cv_q=2.0)
        assert noisy > smooth

    def test_negative_service_rejected(self):
        with pytest.raises(ValueError):
            expected_response_time(1.0, 1.0, -0.1, 0.1)


class TestUnstableGrowth:
    def test_lemma1_formula(self):
        # rho = 2.0, lambda_q = 4 -> growth (2 - 1)/4
        got = unstable_response_growth(4.0, 4.0, 0.25, 0.25)
        assert got == pytest.approx(1.0 / 4.0)

    def test_zero_growth_when_stable(self):
        assert unstable_response_growth(1.0, 1.0, 0.1, 0.1) == 0.0

    def test_requires_positive_lambda_q(self):
        with pytest.raises(ValueError):
            unstable_response_growth(0.0, 1.0, 0.1, 0.1)

    def test_growth_monotone_in_update_rate(self):
        slow = unstable_response_growth(2.0, 2.0, 0.3, 0.3)
        fast = unstable_response_growth(2.0, 8.0, 0.3, 0.3)
        assert fast > slow


class TestNegativeRateValidation:
    """Negative lambdas yield rho < 0 and negative waiting times the
    optimizer would chase; every formula must reject them."""

    def test_traffic_intensity_rejects_negative_rates(self):
        with pytest.raises(ValueError):
            traffic_intensity(-1.0, 1.0, 0.1, 0.1)
        with pytest.raises(ValueError):
            traffic_intensity(1.0, -1.0, 0.1, 0.1)

    def test_expected_response_time_rejects_negative_rates(self):
        with pytest.raises(ValueError):
            expected_response_time(-1.0, 1.0, 0.1, 0.1)
        with pytest.raises(ValueError):
            expected_response_time(1.0, -1.0, 0.1, 0.1)

    def test_mm1_rejects_negative_rates(self):
        with pytest.raises(ValueError):
            mm1_response_time(-1.0, 1.0, 0.1, 0.1)
        with pytest.raises(ValueError):
            mm1_response_time(1.0, -1.0, 0.1, 0.1)

    def test_heavy_traffic_rejects_negative_rates(self):
        with pytest.raises(ValueError):
            heavy_traffic_response_time(-1.0, 1.0, 0.1, 0.1)
        with pytest.raises(ValueError):
            heavy_traffic_response_time(1.0, -1.0, 0.1, 0.1)

    def test_unstable_growth_rejects_negative_lambda_u(self):
        with pytest.raises(ValueError):
            unstable_response_growth(1.0, -1.0, 0.1, 0.1)

    def test_zero_rates_still_accepted(self):
        assert traffic_intensity(0.0, 0.0, 0.1, 0.1) == 0.0
        assert expected_response_time(0.0, 0.0, 0.25, 0.1) == pytest.approx(
            0.25
        )
        assert mm1_response_time(0.0, 0.0, 0.25, 0.1) == pytest.approx(0.25)
        assert heavy_traffic_response_time(
            0.0, 0.0, 0.25, 0.1
        ) == pytest.approx(0.25)
