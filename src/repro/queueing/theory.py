"""Queueing-theory formulas of Section IV-A.

Two regimes:

* **Stable** (rho = lambda_q t_q + lambda_u t_u < 1): Eq. 2, an
  M/G/1-style Pollaczek–Khinchine estimate of the mean query response
  time over a mixed query/update stream (from Toain [31]).
* **Unstable** (rho >= 1): Lemma 1, the asymptotic linear growth of the
  N-th query's response time; minimizing rho minimizes per-query delay.

These are the objective functions Quota optimizes: its controller
calls the three response-time estimates below with a ``slack_floor``,
the finite continuation past rho = 1 that L-BFGS-B needs.
"""

from __future__ import annotations

import math


def _require_rates(lambda_q: float, lambda_u: float) -> None:
    """Reject negative arrival rates.

    A negative lambda yields rho < 0 and negative "waiting" times that
    an optimizer will happily chase; rates are frequencies and must be
    non-negative.
    """
    if lambda_q < 0 or lambda_u < 0:
        raise ValueError(
            f"arrival rates must be non-negative, got "
            f"lambda_q={lambda_q}, lambda_u={lambda_u}"
        )


def traffic_intensity(
    lambda_q: float, lambda_u: float, t_q: float, t_u: float
) -> float:
    """rho = lambda_q * t_q + lambda_u * t_u (Definition 2)."""
    _require_rates(lambda_q, lambda_u)
    return lambda_q * t_q + lambda_u * t_u


def is_stable(
    lambda_q: float, lambda_u: float, t_q: float, t_u: float
) -> bool:
    """Stability predicate: the offered load fits in one server-second."""
    return traffic_intensity(lambda_q, lambda_u, t_q, t_u) < 1.0


def expected_response_time(
    lambda_q: float,
    lambda_u: float,
    t_q: float,
    t_u: float,
    cv_q: float = 1.0,
    cv_u: float = 1.0,
    slack_floor: float = 0.0,
) -> float:
    """Eq. 2: mean query response time in the stable regime.

        R_q = [lambda_u t_u^2 (1 + CV_u^2) + lambda_q t_q^2 (1 + CV_q^2)]
              / (2 (1 - rho))  +  t_q

    Returns ``math.inf`` when the queue is unstable (rho >= 1), where
    the formula is undefined — callers switch to
    :func:`unstable_response_growth` there, exactly as Quota's
    objective dispatch does.

    Parameters
    ----------
    cv_q, cv_u:
        Coefficients of variation of the service times.  The paper
        treats these as fixed (tuning them is "insignificant compared
        with tuning mean query/update times"); 1.0 matches
        exponential-like service variability.
    slack_floor:
        Floor of the ``1 - rho`` denominator.  0 keeps ``inf`` for
        rho >= 1; a positive floor gives the finite continuation an
        optimizer that cannot digest ``inf`` needs (Quota passes 1e-12).
    """
    _require_rates(lambda_q, lambda_u)
    if t_q < 0 or t_u < 0:
        raise ValueError("service times must be non-negative")
    rho = traffic_intensity(lambda_q, lambda_u, t_q, t_u)
    slack = max(1.0 - rho, slack_floor)
    if slack <= 0.0:
        return math.inf
    waiting = (
        lambda_u * t_u**2 * (1.0 + cv_u**2)
        + lambda_q * t_q**2 * (1.0 + cv_q**2)
    ) / (2.0 * slack)
    return waiting + t_q


def unstable_response_growth(
    lambda_q: float, lambda_u: float, t_q: float, t_u: float
) -> float:
    """Lemma 1: lim W_{N_q} / N_q = (rho - 1) / lambda_q for rho >= 1.

    The response time of the N-th query grows linearly at this rate in
    an overloaded queue; it is zero (no asymptotic growth) when the
    queue is stable.
    """
    if lambda_q <= 0:
        raise ValueError("lambda_q must be positive")
    if lambda_u < 0:
        raise ValueError(f"lambda_u must be non-negative, got {lambda_u}")
    rho = traffic_intensity(lambda_q, lambda_u, t_q, t_u)
    return max(rho - 1.0, 0.0) / lambda_q


# ----------------------------------------------------------------------
# Alternative response-time estimates.
#
# The paper notes (after Eq. 2) that "other estimates in [31] that are
# under different models are also applicable in our framework".  These
# are the two standard alternatives; QuotaController accepts any of the
# three via its ``response_model`` option.
# ----------------------------------------------------------------------
def mm1_response_time(
    lambda_q: float,
    lambda_u: float,
    t_q: float,
    t_u: float,
    slack_floor: float = 0.0,
) -> float:
    """M/M/1 estimate: treat the mixed stream as one exponential server.

    The combined arrival rate is lambda_q + lambda_u and the effective
    mean service time is the load-weighted mixture; response time is
    the classic W = 1 / (mu - lambda), of which the query's share keeps
    the final t_q service term (waiting is shared FCFS).

    Cruder than Eq. 2 — it ignores the service-time mixture's true
    variance — but needs no CV inputs.  ``slack_floor`` as in
    :func:`expected_response_time`.
    """
    _require_rates(lambda_q, lambda_u)
    if t_q < 0 or t_u < 0:
        raise ValueError("service times must be non-negative")
    rho = traffic_intensity(lambda_q, lambda_u, t_q, t_u)
    slack = max(1.0 - rho, slack_floor)
    total_rate = lambda_q + lambda_u
    if total_rate <= 0:
        return t_q
    if slack <= 0.0:
        return math.inf
    mean_service = rho / total_rate
    return rho * mean_service / slack + t_q


def heavy_traffic_response_time(
    lambda_q: float,
    lambda_u: float,
    t_q: float,
    t_u: float,
    cv_q: float = 1.0,
    cv_u: float = 1.0,
    cv_arrival: float = 1.0,
    slack_floor: float = 0.0,
) -> float:
    """Kingman/heavy-traffic (G/G/1) estimate.

    W ~ rho / (1 - rho) * (C_a^2 + C_s^2) / 2 * E[S], the diffusion
    approximation that becomes exact as rho -> 1 [78].  Useful when the
    queue runs close to saturation, where Eq. 2 and the M/M/1 form
    under-weight variability.  ``slack_floor`` as in
    :func:`expected_response_time`.
    """
    _require_rates(lambda_q, lambda_u)
    if t_q < 0 or t_u < 0:
        raise ValueError("service times must be non-negative")
    rho = traffic_intensity(lambda_q, lambda_u, t_q, t_u)
    slack = max(1.0 - rho, slack_floor)
    total_rate = lambda_q + lambda_u
    if total_rate <= 0:
        return t_q
    if slack <= 0.0:
        return math.inf
    mean_service = rho / total_rate
    if mean_service <= 0:
        return t_q
    # second moment of the service mixture -> squared CV of service
    second = (
        lambda_q * t_q**2 * (1.0 + cv_q**2)
        + lambda_u * t_u**2 * (1.0 + cv_u**2)
    ) / total_rate
    cv_service_sq = max(second / mean_service**2 - 1.0, 0.0)
    waiting = (
        rho / slack * (cv_arrival**2 + cv_service_sq) / 2.0 * mean_service
    )
    return waiting + t_q
