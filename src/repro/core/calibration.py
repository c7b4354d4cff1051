"""Tau calibration: gauging the hidden constants from live timings.

Section VIII-C: "the values of tau are easy to be gauged as we can
independently time the actual sub-process costs and infer the constants
fairly precisely."

The procedure probes the live algorithm at a handful of hyperparameter
settings spread around the current one, running a short workload (a few
queries, each preceded by a configurable number of updates) at each and
reading the per-sub-process mean wall times from the algorithm's
timers.  Because the cost model is linear in its per-sub-process
factors,

    measured_i(beta) ~= tau_i * factor_i(beta),

each tau is recovered by a one-parameter least-squares fit through the
origin over the probe points:

    tau_i = sum_p factor_i(beta_p) * measured_i(beta_p)
            / sum_p factor_i(beta_p)^2.

Multi-point probing matters in this pure-Python reproduction: the
capped walk count K makes some sub-process costs deviate from their
asymptotic factors far from the default setting, and fitting across a
spread of betas keeps the model honest over the whole search region.
This anchors the model to the actual machine, graph, and implementation
— the information the theoretical complexity expressions hide, and
exactly what the *Quota-c* ablation throws away.
"""

from __future__ import annotations

import numpy as np

from repro.core.cost_models import CostModel, cost_model_for
from repro.graph.updates import EdgeUpdate
from repro.obs import get_metrics
from repro.ppr.base import DynamicPPRAlgorithm, clip_unit

#: default multiplicative spread of probe points around the current beta
DEFAULT_PROBE_SCALES = (1.0, 0.2, 5.0)


def calibrate_taus(
    algorithm: DynamicPPRAlgorithm,
    model: CostModel | None = None,
    num_queries: int = 5,
    updates_per_query: int = 1,
    probe_scales: tuple[float, ...] = DEFAULT_PROBE_SCALES,
    rng: np.random.Generator | int | None = None,
) -> dict[str, float]:
    """Measure the tau constants of ``algorithm`` on its current graph.

    Parameters
    ----------
    algorithm:
        The live algorithm instance.  Probing runs on a scratch copy,
        so the production graph, index, and hyperparameters are
        untouched.
    model:
        Cost model supplying the factor expressions; defaults to the
        registered model for the algorithm.
    num_queries, updates_per_query:
        Probe workload size per probe point.  The update:query ratio
        matters only for Agenda's amortized Lazy Index Update factor,
        which is normalized by the same ratio below.
    probe_scales:
        Each scale multiplies every hyperparameter of the current
        setting (clipped into (0, 1)) to form one probe point.
    rng:
        Randomness for probe sources/endpoints.

    Returns
    -------
    dict
        Sub-process name -> tau (seconds per unit factor).
    """
    if num_queries < 1 or updates_per_query < 0:
        raise ValueError("need num_queries >= 1 and updates_per_query >= 0")
    if not probe_scales:
        raise ValueError("need at least one probe scale")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    model = model or cost_model_for(algorithm)

    base_beta = algorithm.get_hyperparameters()
    # Agenda's lazy factor is per-query and scales with lambda_u/lambda_q;
    # every probe realizes exactly updates_per_query updates per query.
    lambda_q, lambda_u = 1.0, float(updates_per_query)

    # accumulate least-squares terms per sub-process
    num_fm: dict[str, float] = {}
    den_ff: dict[str, float] = {}

    metrics = get_metrics()
    for scale in probe_scales:
        probe = _scratch_copy(algorithm)
        beta = {
            name: clip_unit(value * scale) for name, value in base_beta.items()
        }
        probe.set_hyperparameters(**beta)
        probe.timers.reset()
        nodes = probe.view.nodes
        num_updates = 0
        # timed per probe point so reports can attribute calibration
        # overhead separately from serving (the paper's Table IV split)
        with metrics.time("calibration.probe"):
            for _ in range(num_queries):
                for _ in range(updates_per_query):
                    u, v = rng.choice(nodes, size=2, replace=False)
                    probe.apply_update(EdgeUpdate(int(u), int(v)))
                    num_updates += 1
                probe.query(int(rng.choice(nodes)))

        samples: list[tuple[str, float, float]] = []
        for name, factor in model.query_factors(
            beta, lambda_q, lambda_u
        ).items():
            samples.append((name, factor, probe.timers.total(name) / num_queries))
        if num_updates:
            for name, factor in model.update_factors(beta).items():
                samples.append(
                    (name, factor, probe.timers.total(name) / num_updates)
                )
        for name, factor, measured in samples:
            if factor <= 0:
                continue
            num_fm[name] = num_fm.get(name, 0.0) + factor * measured
            den_ff[name] = den_ff.get(name, 0.0) + factor * factor

    metrics.counter("calibration.runs").inc()
    return {
        name: (num_fm[name] / den_ff[name] if den_ff[name] > 0 else 0.0)
        for name in num_fm
    }


def calibrated_cost_model(
    algorithm: DynamicPPRAlgorithm,
    num_queries: int = 5,
    updates_per_query: int = 1,
    probe_scales: tuple[float, ...] = DEFAULT_PROBE_SCALES,
    rng: np.random.Generator | int | None = None,
) -> CostModel:
    """Convenience: build the registered model and calibrate it."""
    model = cost_model_for(algorithm)
    taus = calibrate_taus(
        algorithm,
        model,
        num_queries=num_queries,
        updates_per_query=updates_per_query,
        probe_scales=probe_scales,
        rng=rng,
    )
    return model.with_taus(taus)


def _scratch_copy(algorithm: DynamicPPRAlgorithm) -> DynamicPPRAlgorithm:
    """A same-configuration instance on a copy of the graph."""
    clone = type(algorithm)(algorithm.graph.copy(), algorithm.params)
    # carry over the cost-relevant tuning knobs that are not part of the
    # beta vector (top-k size, accumulation rounds, laziness threshold)
    for attr in ("k", "rounds", "theta", "candidate_factor", "max_rounds"):
        if hasattr(algorithm, attr):
            setattr(clone, attr, getattr(algorithm, attr))
    # ... and the push kernel: its constants are what tau measures
    clone.set_engine(algorithm.engine)
    clone.set_hyperparameters(**algorithm.get_hyperparameters())
    return clone
