"""Augmented Lagrangian constrained optimization (Algorithm 1).

Minimizes an objective S(beta) subject to inequality constraints
C_i(beta) <= 0 and box bounds, by solving a sequence of unconstrained
problems

    Phi^k(beta) = S(beta) + mu^k/2 sum_i max(0, C_i)^2
                          + sum_i v_i^k max(0, C_i)

with L-BFGS-B as the inner solver (the paper's choice [36]), growing the
penalty factor mu and updating the multipliers
v_i <- max(0, v_i + mu C_i(beta-hat)) between iterations.  Under the
conditions of Theorem 1 the iterates converge to a constrained global
minimum; Theorem 2 bounds the iteration count by O(1/sqrt(eps)).

The caller can supply multiple starting points; each runs the full
outer loop and the best feasible solution wins — cheap insurance
against local minima, since each evaluation is a closed-form cost
model, not a PPR run (the whole point of Table IV).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np
from numpy.typing import NDArray

FloatArray = NDArray[np.float64]
Objective = Callable[[FloatArray], float]
Constraint = Callable[[FloatArray], float]


@dataclass(frozen=True, slots=True)
class ConstrainedProblem:
    """min f(x)  s.t.  C_i(x) <= 0,  lo_j <= x_j <= hi_j."""

    objective: Objective
    constraints: tuple[Constraint, ...]
    bounds: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        for lo, hi in self.bounds:
            if lo > hi:
                raise ValueError(f"empty bound interval ({lo}, {hi})")

    @property
    def dim(self) -> int:
        return len(self.bounds)

    def violation(self, x: FloatArray) -> float:
        """Largest constraint violation (0 when feasible)."""
        if not self.constraints:
            return 0.0
        return max(max(0.0, c(x)) for c in self.constraints)


@dataclass(slots=True)
class OptimizationResult:
    """Outcome of one Augmented Lagrangian run."""

    x: FloatArray
    value: float
    outer_iterations: int
    converged: bool
    constraint_violation: float
    history: list[float] = field(default_factory=list)

    @property
    def feasible(self) -> bool:
        return self.constraint_violation <= 1e-6


class AugmentedLagrangianOptimizer:
    """Penalty/multiplier loop around scipy L-BFGS-B.

    Parameters
    ----------
    max_outer:
        Cap on outer (multiplier-update) iterations.
    mu0, mu_growth:
        Initial penalty factor and its growth per outer iteration
        (the ensmallen-style schedule [34]).
    tol:
        Outer-loop convergence: stop when both the solution movement
        and the constraint violation fall below ``tol``.
    inner_options:
        Extra options forwarded to L-BFGS-B.
    """

    def __init__(
        self,
        max_outer: int = 25,
        mu0: float = 10.0,
        mu_growth: float = 5.0,
        tol: float = 1e-9,
        inner_options: dict[str, Any] | None = None,
    ) -> None:
        if max_outer < 1:
            raise ValueError("max_outer must be >= 1")
        if mu0 <= 0 or mu_growth <= 1:
            raise ValueError("need mu0 > 0 and mu_growth > 1")
        self.max_outer = max_outer
        self.mu0 = mu0
        self.mu_growth = mu_growth
        self.tol = tol
        self.inner_options: dict[str, Any] = {
            "maxiter": 200,
            **(inner_options or {}),
        }

    # ------------------------------------------------------------------
    def minimize(
        self, problem: ConstrainedProblem, x0: FloatArray
    ) -> OptimizationResult:
        """Run the Augmented Lagrangian loop from one starting point."""
        # imported on first use: a serving process that never configures
        # Quota should not pay scipy's import time and memory
        from scipy import optimize

        x: FloatArray = np.clip(
            np.asarray(x0, dtype=np.float64),
            [lo for lo, _ in problem.bounds],
            [hi for _, hi in problem.bounds],
        )
        mu = self.mu0
        multipliers = np.zeros(len(problem.constraints))
        history: list[float] = []
        converged = False

        for outer in range(1, self.max_outer + 1):
            phi = self._penalized(problem, mu, multipliers)
            inner = optimize.minimize(
                phi,
                x,
                method="L-BFGS-B",
                bounds=problem.bounds,
                options=self.inner_options,
            )
            x_new: FloatArray = np.asarray(inner.x, dtype=np.float64)
            history.append(float(problem.objective(x_new)))
            violation = problem.violation(x_new)
            moved = float(np.linalg.norm(x_new - x))
            # multiplier update: v <- max(0, v + mu * C(x-hat))
            for i, constraint in enumerate(problem.constraints):
                multipliers[i] = max(
                    0.0, multipliers[i] + mu * constraint(x_new)
                )
            x = x_new
            if violation <= self.tol and moved <= self.tol and outer > 1:
                converged = True
                break
            mu *= self.mu_growth

        return OptimizationResult(
            x=x,
            value=float(problem.objective(x)),
            outer_iterations=outer,
            converged=converged,
            constraint_violation=problem.violation(x),
            history=history,
        )

    def minimize_multistart(
        self,
        problem: ConstrainedProblem,
        starts: Sequence[FloatArray],
    ) -> OptimizationResult:
        """Run from every start; return the best feasible result.

        Falls back to the least-infeasible result if no start reaches
        feasibility (e.g. the stability constraint cannot be met — the
        unstable regime, which the caller handles separately).
        """
        if not starts:
            raise ValueError("need at least one starting point")
        results = [self.minimize(problem, x0) for x0 in starts]
        feasible = [r for r in results if r.feasible]
        if feasible:
            return min(feasible, key=lambda r: r.value)
        return min(results, key=lambda r: r.constraint_violation)

    # ------------------------------------------------------------------
    def _penalized(
        self,
        problem: ConstrainedProblem,
        mu: float,
        multipliers: FloatArray,
    ) -> Objective:
        def phi(x: FloatArray) -> float:
            value = problem.objective(x)
            for i, constraint in enumerate(problem.constraints):
                excess = max(0.0, constraint(x))
                value += 0.5 * mu * excess * excess
                value += multipliers[i] * excess
            return value

        return phi
