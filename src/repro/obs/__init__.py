"""Observability: counters, timers and service-time histograms.

See :mod:`repro.obs.metrics`.  The CSR maintenance layer records
``csr_*`` counters here, :class:`~repro.core.system.QuotaSystem`
records per-operation ``service.*`` histograms, and the calibration
harness records ``calibration.*`` timings — the attribution substrate
behind the paper's Table I style cost breakdowns.
"""

# kept for benchmarks/e2e/probe.py, which imports these two from the package
from repro.obs.metrics import MetricsRegistry, get_metrics  # noqa: F401
