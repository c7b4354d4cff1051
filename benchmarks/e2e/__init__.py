"""HTTP-edge serving benchmark: ``python -m benchmarks.e2e --help``.

Self-contained (stdlib + numpy + the ``repro`` package under test); it
shares no code with the paper benches in ``benchmarks/``.
"""
