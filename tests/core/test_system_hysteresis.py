"""Unit tests for the online loop's beta hysteresis.

The rate hysteresis is the drift detector's threshold
(``tests/core/test_drift_detector.py::TestFixedPeriodHysteresis``).
"""

from repro.core.quota import beta_moved


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
