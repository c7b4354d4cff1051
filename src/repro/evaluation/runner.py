"""``build_algorithm`` lives in :mod:`repro.ppr.registry`."""

from repro.graph.digraph import DynamicGraph
from repro.ppr.base import DynamicPPRAlgorithm
from repro.ppr.registry import build_algorithm as _build_algorithm


def build_algorithm(
    name: str,
    graph: DynamicGraph,
    walk_cap: int,
    seed: int = 0,
    engine: str = "auto",
) -> DynamicPPRAlgorithm:
    """:func:`repro.ppr.registry.build_algorithm`, kept for
    ``benchmarks/e2e/probe.py``, which passes ``engine=spec.engine``:
    every algorithm runs one push kernel, so ``"auto"`` is the only
    value and the argument is dropped."""
    if engine != "auto":
        raise ValueError(
            f"there is one push kernel: engine must be 'auto', not {engine!r}"
        )
    return _build_algorithm(name, graph, walk_cap, seed=seed)
