"""Wall-clock serving runtime for PPR queries and edge updates.

The paper's replay layer (:func:`repro.queueing.replay.replay`) advances
a *virtual* clock; this package is the measured counterpart: one thread
per shard that owns the graph and runs the same per-request decision
on the wall clock.

Components
----------
* :class:`~repro.serving.admission.AdmissionQueue` — bounded FIFO with
  shed-on-full backpressure and a queue-depth gauge.
* :class:`~repro.serving.runtime.ServingRuntime` — the runtime itself:
  Seed-aware dispatch (queries overtake deferred updates within the
  epsilon_r budget), idle-time draining, per-request deadline budgets,
  graceful degradation to strict FCFS when an update faults, and live
  reconfiguration from :class:`~repro.core.quota.QuotaController`
  decisions.

See docs/DEVELOPMENT.md ("The concurrent serving runtime") for the
snapshot-isolation contract and the backpressure knobs.
"""
