"""Black-box hyperparameter search baselines.

All three searchers optimize an arbitrary evaluation function

    evaluate(beta: dict[str, float]) -> float      (lower is better)

over thresholds in (0, 1), sampling/optimizing in log10 space.  In the
Table IV experiment the evaluation function replays a probe workload
through the PPR system and returns the measured mean response time —
the expensive feedback loop Quota's closed-form model avoids.

The Bayesian optimizer is a compact Gaussian-process + expected-
improvement implementation (RBF kernel, scipy only), the textbook
method of Snoek et al. [44].
"""

from __future__ import annotations

import itertools
import time
from abc import ABC, abstractmethod
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

Evaluator = Callable[[dict[str, float]], float]

#: log10 search box matching the Quota controller's
LOG_LO = -8.0
LOG_HI = -1e-6


@dataclass(slots=True)
class SearchResult:
    """Outcome of one hyperparameter search."""

    best_beta: dict[str, float]
    best_value: float
    evaluations: int
    elapsed_seconds: float
    history: list[tuple[dict[str, float], float]] = field(default_factory=list)


class HyperparameterSearch(ABC):
    """Common driver: subclasses yield candidate points to evaluate."""

    name: str = "search"

    def search(
        self,
        evaluate: Evaluator,
        param_names: Sequence[str],
        rng: np.random.Generator | int | None = None,
    ) -> SearchResult:
        """Run the search; returns the best candidate found."""
        if not param_names:
            raise ValueError("need at least one hyperparameter")
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        started = time.perf_counter()
        history: list[tuple[dict[str, float], float]] = []

        def record(beta: dict[str, float]) -> float:
            value = float(evaluate(beta))
            history.append((beta, value))
            return value

        self._drive(record, tuple(param_names), rng)
        if not history:
            raise RuntimeError(f"{self.name} evaluated no candidates")
        best_beta, best_value = min(history, key=lambda item: item[1])
        return SearchResult(
            best_beta=best_beta,
            best_value=best_value,
            evaluations=len(history),
            elapsed_seconds=time.perf_counter() - started,
            history=history,
        )

    @abstractmethod
    def _drive(
        self,
        record: Evaluator,
        param_names: tuple[str, ...],
        rng: np.random.Generator,
    ) -> None:
        """Evaluate candidates through ``record``."""


class GridSearch(HyperparameterSearch):
    """Exhaustive evaluation of a per-parameter value grid.

    The default grid is the paper's incomplete space
    {0.1, 0.2, ..., 1.0} scaled logarithmically into the threshold
    range; a custom grid may be supplied.
    """

    name = "Grid Search"

    def __init__(self, grid: Sequence[float] | None = None) -> None:
        if grid is None:
            grid = [10.0**e for e in np.linspace(-6.0, -0.5, 10)]
        if not grid:
            raise ValueError("grid must be non-empty")
        if any(not 0 < g < 1 for g in grid):
            raise ValueError("grid values must lie in (0, 1)")
        self.grid = list(grid)

    def _drive(self, record, param_names, rng):
        for combo in itertools.product(self.grid, repeat=len(param_names)):
            record(dict(zip(param_names, combo)))


class RandomSearch(HyperparameterSearch):
    """Log-uniform random sampling of the threshold box."""

    name = "Random Search"

    def __init__(self, num_samples: int = 50) -> None:
        if num_samples < 1:
            raise ValueError("num_samples must be >= 1")
        self.num_samples = num_samples

    def _drive(self, record, param_names, rng):
        for _ in range(self.num_samples):
            exponents = rng.uniform(LOG_LO, LOG_HI, size=len(param_names))
            record(dict(zip(param_names, (10.0**exponents).tolist())))


class BayesianOptimizationSearch(HyperparameterSearch):
    """GP + expected-improvement Bayesian optimization in log space.

    Parameters
    ----------
    num_initial:
        Random (log-uniform) warm-up evaluations.
    num_iterations:
        GP-guided evaluations after the warm-up.
    length_scale, noise:
        RBF kernel hyperparameters (log10 units) and observation noise.
    """

    name = "Bayesian Optimization"

    def __init__(
        self,
        num_initial: int = 5,
        num_iterations: int = 15,
        length_scale: float = 1.5,
        noise: float = 1e-6,
    ) -> None:
        if num_initial < 1 or num_iterations < 0:
            raise ValueError("need num_initial >= 1, num_iterations >= 0")
        self.num_initial = num_initial
        self.num_iterations = num_iterations
        self.length_scale = length_scale
        self.noise = noise

    # -- GP internals ----------------------------------------------------
    def _kernel(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        sq = (
            np.sum(a**2, axis=1)[:, None]
            + np.sum(b**2, axis=1)[None, :]
            - 2.0 * a @ b.T
        )
        return np.exp(-0.5 * np.maximum(sq, 0.0) / self.length_scale**2)

    def _posterior(
        self, xs: np.ndarray, ys: np.ndarray, grid: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """GP posterior mean/std on ``grid`` given observations."""
        from scipy.linalg import cho_factor, cho_solve

        y_mean = ys.mean()
        y_std = ys.std() or 1.0
        ys_n = (ys - y_mean) / y_std
        k_xx = self._kernel(xs, xs) + self.noise * np.eye(len(xs))
        k_xg = self._kernel(xs, grid)
        chol = cho_factor(k_xx, lower=True)
        alpha = cho_solve(chol, ys_n)
        mean = k_xg.T @ alpha
        v = cho_solve(chol, k_xg)
        var = np.maximum(1.0 - np.sum(k_xg * v, axis=0), 1e-12)
        return mean * y_std + y_mean, np.sqrt(var) * y_std

    def _expected_improvement(
        self, mean: np.ndarray, std: np.ndarray, best: float
    ) -> np.ndarray:
        from scipy.stats import norm

        gap = best - mean
        z = gap / std
        return gap * norm.cdf(z) + std * norm.pdf(z)

    def _drive(self, record, param_names, rng):
        dim = len(param_names)
        xs: list[np.ndarray] = []
        ys: list[float] = []

        def observe(x: np.ndarray) -> None:
            beta = dict(zip(param_names, (10.0**x).tolist()))
            ys.append(record(beta))
            xs.append(x)

        for _ in range(self.num_initial):
            observe(rng.uniform(LOG_LO, LOG_HI, size=dim))
        for _ in range(self.num_iterations):
            grid = rng.uniform(LOG_LO, LOG_HI, size=(256, dim))
            mean, std = self._posterior(
                np.asarray(xs), np.asarray(ys), grid
            )
            ei = self._expected_improvement(mean, std, min(ys))
            observe(grid[int(np.argmax(ei))])
