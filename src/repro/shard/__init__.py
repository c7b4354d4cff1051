"""Sharded serving fabric: scale the runtime past one process.

A :class:`~repro.serving.runtime.ServingRuntime` is one thread inside
one interpreter; this package partitions the *source-id space* across N worker processes
that each replicate the graph — the deployment shape the paper's
multi-core allocation analysis assumes — and keeps the replicas
convergent through a fabric-wide versioned update broadcast.

Layering (each importable without the ones above it):

* :mod:`repro.shard.messages` — picklable command/reply protocol and
  the ordering contract (:class:`UpdateOrderError`).
* :mod:`repro.shard.router`   — pluggable ``source -> shard_id``
  mapping (hash or contiguous-range).
* :mod:`repro.shard.worker`   — :class:`ShardServer`, the
  transport-agnostic command loop around one ServingRuntime.
* :mod:`repro.shard.launch`   — ``python_child``: how every process
  of a fleet other than the front door is started.
* :mod:`repro.shard.image`    — :class:`~repro.shard.image.GraphImage`,
  the packed graph the control plane forwards but never decodes, and
  the one-shot child that builds it.
* :mod:`repro.shard.backend`  — :class:`ProcessShard` (a plain child
  process, two pipes) and :class:`InprocShard` (thread; deterministic
  tests) behind one future-based :class:`ShardHandle` interface.
* :mod:`repro.shard.manager`  — :class:`ShardManager`: routing,
  global admission (bounded per-shard inflight, shed with
  ``Retry-After`` hints), versioned broadcasts, crash respawn from
  the update log, fleet metrics aggregation.

The asyncio front door in :mod:`repro.api` exposes a manager over
HTTP; ``benchmarks/bench_shard_scaling.py`` drives one closed-loop.
"""
