"""Shared fixtures for the reproduction benchmarks.

Every bench prints its paper-style table through the ``report``
fixture, which both bypasses pytest's output capture (so the tables
appear in ``pytest benchmarks/ --benchmark-only`` output) and appends
them to ``benchmarks/results/<bench>.txt`` for EXPERIMENTS.md.
"""

import gc
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"


@pytest.fixture(scope="session", autouse=True)
def _warm_up_interpreter():
    """Exercise the hot paths once before any measurement.

    The first measured cell of a fresh process otherwise pays for cold
    caches, lazy numpy/scipy imports, and CPU frequency ramp-up, which
    skews its comparison against later cells.
    """
    from repro.graph.generators import barabasi_albert_graph
    from repro.graph.updates import EdgeUpdate
    from repro.ppr.registry import build_algorithm

    graph = barabasi_albert_graph(200, attach=3, seed=99)
    for name in ("Agenda", "FORA+"):
        algorithm = build_algorithm(name, graph.copy(), 1000, seed=0)
        for i in range(3):
            algorithm.apply_update(EdgeUpdate(i, 100 + i))
            algorithm.query(i)
    yield


@pytest.fixture(autouse=True)
def _no_gc_during_benches():
    """Disable the garbage collector inside every bench.

    Benches compare *measured* operation times; accuracy callbacks
    (ppr_exact) allocate heavily, and a GC pause landing inside one
    measured run but not its counterpart skews the comparison.
    """
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        gc.collect()
        if was_enabled:
            gc.enable()


@pytest.fixture
def report(request, capsys):
    """Print-through + persist reporter for bench tables."""
    RESULTS_DIR.mkdir(exist_ok=True)
    out_path = RESULTS_DIR / f"{request.node.name}.txt"
    handle = out_path.open("w", encoding="utf-8")

    def _report(text: str) -> None:
        with capsys.disabled():
            print(text)
        handle.write(text + "\n")
        handle.flush()

    yield _report
    handle.close()
