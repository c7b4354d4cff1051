"""Canonical registry of metric names used across the repository.

Every metric name passed to
:meth:`repro.obs.metrics.MetricsRegistry.counter`,
:meth:`~repro.obs.metrics.MetricsRegistry.histogram`,
:meth:`~repro.obs.metrics.MetricsRegistry.time` or
:meth:`~repro.obs.metrics.MetricsRegistry.gauge` as a string literal must be
listed here, in the set of its kind, and every name listed here must be
passed at one such call site.  ``tests/test_metric_names.py`` checks every call
site under ``src/repro`` against this module in both directions, so a
typo'd or renamed metric ("service.qurey", a counter observed as a
histogram) or a name nothing records fails tier-1 instead of silently
splitting or emptying a time series.

Naming conventions
------------------
* ``csr_*``         — counters of the incremental CSR maintenance layer.
* ``service.*``     — per-operation service-time histograms (seconds)
  recorded by :class:`repro.queueing.replay.MeasuredExecutor`, which
  :class:`repro.core.system.QuotaSystem` and the serving runtime
  (:mod:`repro.serving`) both execute through.
* ``serving.*``     — admission/shedding accounting of the serving
  runtime (queue-depth and command-pipe backlog gauges, wait/response
  histograms, shed/timeout/fault counters), and a shard worker's idle
  heap releases (count and bytes given back).
* ``calibration.*`` — tau-calibration accounting.
* ``cache.*``       — result-cache accounting (:mod:`repro.cache`):
  hit/miss/insertion counters, eviction counters split by cause
  (capacity / staleness budget), plus the live size and online
  hit-rate gauges the cache-aware cost model reads.
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
checked, and do not count as a use — avoid them on hot paths anyway.
"""

#: monotonically increasing counts
COUNTERS = frozenset(
    {
        "calibration.runs",
        "serving.shed",
        "serving.timeout",
        "serving.faults",
        # a shard worker's idle heap release (repro.shard.heap)
        "serving.heap_releases",
        "serving.heap_released_bytes",
        "cache.hits",
        "cache.misses",
        "cache.insertions",
        "cache.evictions_capacity",
        "cache.evictions_staleness",
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
        # bytes waiting in a shard worker's command pipe at each look
        "serving.pipe_backlog_bytes",
        "cache.size",
        "cache.hit_rate",
        # sharded serving fabric (repro.shard)
        "shard.healthy",
        "shard.inflight",
    }
)

ALL_METRICS = COUNTERS | HISTOGRAMS | GAUGES
