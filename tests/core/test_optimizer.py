"""Tests for the Augmented Lagrangian optimizer on known problems."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.optimizer import (
    AugmentedLagrangianOptimizer,
    ConstrainedProblem,
    OptimizationResult,
)


def quadratic(center):
    center = np.asarray(center, dtype=float)
    return lambda x: float(np.sum((x - center) ** 2))


class TestUnconstrained:
    def test_reaches_interior_minimum(self):
        problem = ConstrainedProblem(
            objective=quadratic([2.0]), constraints=(), bounds=((0.0, 10.0),)
        )
        result = AugmentedLagrangianOptimizer().minimize(problem, np.array([9.0]))
        assert result.x[0] == pytest.approx(2.0, abs=1e-5)
        assert result.value == pytest.approx(0.0, abs=1e-8)
        assert result.feasible

    def test_bound_clipping(self):
        """Minimum outside the box lands on the boundary."""
        problem = ConstrainedProblem(
            objective=quadratic([5.0]), constraints=(), bounds=((0.0, 1.0),)
        )
        result = AugmentedLagrangianOptimizer().minimize(problem, np.array([0.5]))
        assert result.x[0] == pytest.approx(1.0, abs=1e-6)

    def test_start_outside_bounds_is_clipped(self):
        problem = ConstrainedProblem(
            objective=quadratic([0.5]), constraints=(), bounds=((0.0, 1.0),)
        )
        result = AugmentedLagrangianOptimizer().minimize(problem, np.array([99.0]))
        assert result.x[0] == pytest.approx(0.5, abs=1e-5)


class TestConstrained:
    def test_active_inequality(self):
        """min (x-2)^2 s.t. x <= 1 has solution x = 1."""
        problem = ConstrainedProblem(
            objective=quadratic([2.0]),
            constraints=(lambda x: float(x[0] - 1.0),),
            bounds=((-10.0, 10.0),),
        )
        result = AugmentedLagrangianOptimizer().minimize(problem, np.array([-5.0]))
        assert result.x[0] == pytest.approx(1.0, abs=1e-3)
        assert result.feasible

    def test_inactive_inequality(self):
        """Constraint satisfied at the unconstrained optimum is ignored."""
        problem = ConstrainedProblem(
            objective=quadratic([0.5]),
            constraints=(lambda x: float(x[0] - 1.0),),
            bounds=((-10.0, 10.0),),
        )
        result = AugmentedLagrangianOptimizer().minimize(problem, np.array([5.0]))
        assert result.x[0] == pytest.approx(0.5, abs=1e-4)

    def test_two_dimensional_budget(self):
        """min (x-3)^2 + (y-3)^2 s.t. x + y <= 2 -> x = y = 1."""
        problem = ConstrainedProblem(
            objective=quadratic([3.0, 3.0]),
            constraints=(lambda x: float(x[0] + x[1] - 2.0),),
            bounds=((-5.0, 5.0), (-5.0, 5.0)),
        )
        result = AugmentedLagrangianOptimizer().minimize(
            problem, np.array([0.0, 0.0])
        )
        assert result.x[0] == pytest.approx(1.0, abs=1e-2)
        assert result.x[1] == pytest.approx(1.0, abs=1e-2)

    def test_objective_history_recorded(self):
        problem = ConstrainedProblem(
            objective=quadratic([2.0]),
            constraints=(lambda x: float(x[0] - 1.0),),
            bounds=((-10.0, 10.0),),
        )
        result = AugmentedLagrangianOptimizer().minimize(problem, np.array([0.0]))
        assert len(result.history) == result.outer_iterations


class TestMultistart:
    def _bimodal_problem(self):
        """Two local minima at x = -2 (value 1) and x = 2 (value 0)."""

        def objective(x):
            v = float(x[0])
            return min((v + 2.0) ** 2 + 1.0, (v - 2.0) ** 2)

        return ConstrainedProblem(
            objective=objective, constraints=(), bounds=((-5.0, 5.0),)
        )

    def test_multistart_escapes_local_minimum(self):
        problem = self._bimodal_problem()
        optimizer = AugmentedLagrangianOptimizer()
        result = optimizer.minimize_multistart(
            problem, [np.array([-4.0]), np.array([4.0])]
        )
        assert result.x[0] == pytest.approx(2.0, abs=1e-3)

    def test_multistart_requires_starts(self):
        with pytest.raises(ValueError):
            AugmentedLagrangianOptimizer().minimize_multistart(
                self._bimodal_problem(), []
            )

    def test_infeasible_problem_returns_least_violating(self):
        """x <= -1 and x >= 1 cannot both hold; result reports violation."""
        problem = ConstrainedProblem(
            objective=quadratic([0.0]),
            constraints=(
                lambda x: float(x[0] + 1.0),   # x <= -1
                lambda x: float(1.0 - x[0]),   # x >= 1
            ),
            bounds=((-5.0, 5.0),),
        )
        result = AugmentedLagrangianOptimizer(max_outer=8).minimize_multistart(
            problem, [np.array([0.0])]
        )
        assert not result.feasible
        assert result.constraint_violation > 0.5


class TestValidation:
    def test_invalid_constructor_args(self):
        with pytest.raises(ValueError):
            AugmentedLagrangianOptimizer(max_outer=0)
        with pytest.raises(ValueError):
            AugmentedLagrangianOptimizer(mu0=-1.0)
        with pytest.raises(ValueError):
            AugmentedLagrangianOptimizer(mu_growth=1.0)

    def test_empty_bound_interval(self):
        with pytest.raises(ValueError):
            ConstrainedProblem(
                objective=quadratic([0.0]), constraints=(), bounds=((1.0, 0.0),)
            )

    def test_violation_helper(self):
        problem = ConstrainedProblem(
            objective=quadratic([0.0]),
            constraints=(lambda x: float(x[0] - 1.0),),
            bounds=((-5.0, 5.0),),
        )
        assert problem.violation(np.array([0.0])) == 0.0
        assert problem.violation(np.array([3.0])) == pytest.approx(2.0)


# ----------------------------------------------------------------------
# Property: solutions respect bounds and (when possible) constraints.
# ----------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(
    center=st.floats(-3.0, 3.0),
    cap=st.floats(-2.0, 2.0),
    start=st.floats(-4.0, 4.0),
)
def test_solution_feasible_and_bounded(center, cap, start):
    problem = ConstrainedProblem(
        objective=quadratic([center]),
        constraints=(lambda x: float(x[0] - cap),),
        bounds=((-4.0, 4.0),),
    )
    result = AugmentedLagrangianOptimizer(max_outer=15).minimize(
        problem, np.array([start])
    )
    assert -4.0 - 1e-9 <= result.x[0] <= 4.0 + 1e-9
    assert result.constraint_violation < 1e-3
    # optimum is min(center, cap) clipped to bounds
    expected = min(max(min(center, cap), -4.0), 4.0)
    assert result.x[0] == pytest.approx(expected, abs=1e-2)
