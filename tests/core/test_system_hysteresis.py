"""Unit tests for the online loop's hysteresis (rate/beta thresholds)."""

import pytest

from repro.core.quota import beta_moved
from repro.core.system import QuotaSystem
from repro.graph.generators import barabasi_albert_graph
from repro.ppr.base import PPRParams
from repro.ppr.fora import Fora


@pytest.fixture
def system():
    graph = barabasi_albert_graph(60, attach=2, seed=0)
    return QuotaSystem(Fora(graph, PPRParams(walk_cap=200)))


class TestRatesMoved:
    def test_small_drift_ignored(self, system):
        system._configured_rates = (10.0, 10.0)
        assert not system._rates_moved(10.5, 10.5)
        assert not system._rates_moved(11.0, 9.0)

    def test_large_drift_detected(self, system):
        system._configured_rates = (10.0, 10.0)
        assert system._rates_moved(12.0, 10.0)
        assert system._rates_moved(10.0, 5.0)

    def test_zero_to_positive_is_movement(self, system):
        system._configured_rates = (10.0, 0.0)
        assert system._rates_moved(10.0, 1.0)
        assert not system._rates_moved(10.0, 0.0)


class TestBetaMoved:
    def test_tiny_change_skipped(self):
        assert not beta_moved({"r_max": 1e-3}, {"r_max": 1.05e-3})

    def test_material_change_applied(self):
        assert beta_moved({"r_max": 1e-3}, {"r_max": 2e-3})

    def test_new_parameter_is_movement(self):
        assert beta_moved({}, {"r_max": 1e-3})

    def test_zero_old_value_is_movement(self):
        assert beta_moved({"r_max": 0.0}, {"r_max": 1e-3})

    def test_multi_parameter_any_moves(self):
        current = {"r_max": 1e-3, "r_max_b": 1e-3}
        proposed = {"r_max": 1.01e-3, "r_max_b": 5e-3}
        assert beta_moved(current, proposed)
