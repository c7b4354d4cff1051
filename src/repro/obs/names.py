"""Canonical registry of metric names used across the repository.

Every metric name passed to
:meth:`repro.obs.metrics.MetricsRegistry.counter`,
:meth:`~repro.obs.metrics.MetricsRegistry.histogram`,
:meth:`~repro.obs.metrics.MetricsRegistry.time` or
:meth:`~repro.obs.metrics.MetricsRegistry.gauge` as a string literal must be
listed here, in the set of its kind.  The ``reprolint`` rule R5
(``metric-name``, :mod:`repro.analysis.rules`) checks every call site
in ``src`` against this module, so a typo'd or renamed metric
("service.qurey", a counter observed as a histogram) fails the lint
gate instead of silently splitting a time series.

This module is deliberately dependency-free: reprolint parses it with
:mod:`ast` rather than importing the package.

Naming conventions
------------------
* ``csr_*``         — counters of the incremental CSR maintenance layer.
* ``service.*``     — per-operation service-time histograms (seconds)
  recorded by :class:`repro.queueing.replay.MeasuredExecutor`, which
  :class:`repro.core.system.QuotaSystem` and the serving runtime
  (:mod:`repro.serving`) both execute through.
* ``serving.*``     — admission/shedding accounting of the serving
  runtime (queue-depth gauge, wait/response histograms,
  shed/timeout/fault counters).
* ``calibration.*`` — tau-calibration accounting.
* ``cache.*``       — result-cache accounting (:mod:`repro.cache`):
  hit/miss/insertion counters, eviction counters split by cause
  (capacity / staleness budget), plus the live size and online
  hit-rate gauges the cache-aware cost model reads.
* ``dispatch.*``    — kernel-engine degradations
  (:mod:`repro.ppr.kernels`): ``dispatch.fallbacks`` counts a failed
  scipy probe, once per process.
* ``scenario.*``    — scenario-fuzz harness accounting
  (:mod:`repro.scenarios`): replayed scenarios, oracle violations,
  and drift-triggered QuotaController reconfigurations.
* ``shard.*``       — sharded serving fabric accounting
  (:mod:`repro.shard`): routed queries, broadcast updates, sheds
  split by cause (unhealthy range / inflight bound), worker
  respawns, update-order faults, fleet-wide reconfigurations, the
  healthy-shard and inflight gauges, and the manager-side
  round-trip histogram.
* ``api.*``         — asyncio front-door accounting
  (:mod:`repro.api`): admitted requests, shed responses (503/504),
  and end-to-end response times as seen at the network edge.
* ``index.*``       — incremental walk-index maintenance accounting
  (:mod:`repro.ppr.incremental`): applied edge updates, walks
  resampled (vs the full-rebuild alternative), and lazy edge→walk
  map builds.

To add a metric: register its name in the matching set below, then use
the literal at the call site.  Dynamic (non-literal) names are not
checked — avoid them on hot paths anyway.
"""

#: monotonically increasing counts
COUNTERS = frozenset(
    {
        "csr_cache_hits",
        "csr_cache_misses",
        "csr_delta_applies",
        "csr_rebuilds",
        "csr_compactions",
        "calibration.runs",
        "serving.shed",
        "serving.timeout",
        "serving.faults",
        "cache.hits",
        "cache.misses",
        "cache.insertions",
        "cache.evictions_capacity",
        "cache.evictions_staleness",
        "dispatch.fallbacks",
        # scenario fuzzing (repro.scenarios)
        "scenario.runs",
        "scenario.violations",
        "scenario.reconfigurations",
        # sharded serving fabric (repro.shard)
        "shard.queries_routed",
        "shard.updates_broadcast",
        "shard.shed_unhealthy",
        "shard.shed_inflight",
        "shard.respawns",
        "shard.order_faults",
        "shard.reconfigurations",
        # asyncio front door (repro.api)
        "api.requests",
        "api.shed",
        # incremental walk-index maintenance (repro.ppr.incremental)
        "index.incremental_updates",
        "index.walks_resampled",
        "index.map_builds",
    }
)

#: observed-quantity histograms (values in seconds unless noted)
HISTOGRAMS = frozenset(
    {
        "service.query",
        "service.update",
        "service.flush",
        "service.reconfigure",
        "calibration.probe",
        "serving.wait",
        "serving.response",
        "service.query_hit",
        # manager-side shard round-trip (submit -> reply, seconds)
        "shard.roundtrip",
        # front-door end-to-end response times (seconds)
        "api.response",
    }
)

#: point-in-time levels (may go up and down)
GAUGES = frozenset(
    {
        "serving.queue_depth",
        "cache.size",
        "cache.hit_rate",
        # sharded serving fabric (repro.shard)
        "shard.healthy",
        "shard.inflight",
    }
)

ALL_METRICS = COUNTERS | HISTOGRAMS | GAUGES
