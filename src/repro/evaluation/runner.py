"""``build_algorithm`` lives in :mod:`repro.ppr.registry`."""

# kept for benchmarks/e2e/probe.py, which imports it from here
from repro.ppr.registry import build_algorithm  # noqa: F401
