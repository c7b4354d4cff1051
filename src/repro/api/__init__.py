"""Asyncio front door for the sharded serving fabric.

* :mod:`repro.api.frontdoor` — :class:`FrontDoor`, the transport-
  independent service layer (admission, deadline propagation,
  Retry-After shedding, drift-driven reconfiguration) over a
  :class:`~repro.shard.manager.ShardManager`.  Tests drive its coroutines
  directly; this is the "in-memory transport".
* :mod:`repro.api.http` — :class:`HttpServer`, a dependency-free
  HTTP/1.1 serialization of the front door (``/query`` ``/update``
  ``/reconfigure`` ``/healthz`` ``/metrics``).
* :mod:`repro.api.serve` — the ``python -m repro.cli serve`` entry
  point.
"""
