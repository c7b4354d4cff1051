"""Observability: counters, timers and service-time histograms.

See :mod:`repro.obs.metrics`.  The CSR maintenance layer records
``csr_*`` counters here, :class:`~repro.core.system.QuotaSystem`
records per-operation ``service.*`` histograms, and the calibration
harness records ``calibration.*`` timings — the attribution substrate
behind the paper's Table I style cost breakdowns.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_metrics,
    process_stats,
    reset_metrics,
)
from repro.obs.names import ALL_METRICS, COUNTERS, GAUGES, HISTOGRAMS

__all__ = [
    "ALL_METRICS",
    "COUNTERS",
    "Counter",
    "GAUGES",
    "Gauge",
    "HISTOGRAMS",
    "Histogram",
    "MetricsRegistry",
    "get_metrics",
    "process_stats",
    "reset_metrics",
]
