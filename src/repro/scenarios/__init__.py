"""Workload-scenario DSL, generators, and the fuzz/replay harness.

``repro.scenarios`` names production-shaped traffic patterns (diurnal
cycles, flash crowds, update storms, Zipf/shifting hot sets,
cache-busting adversaries, replayed edge streams) as first-class
:class:`~repro.scenarios.dsl.Scenario` values that compile to the
ordinary :class:`~repro.queueing.workload.Workload` form, and drives
them through every serving engine in the repo under differential and
invariant oracles (``python -m repro.scenarios fuzz``).  See
docs/DEVELOPMENT.md, "Scenario fuzzing".
"""
