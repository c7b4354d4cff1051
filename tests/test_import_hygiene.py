"""scipy is loaded by the code that calls it, not by ``import repro``.

The serving fleet is three processes (front door + workers); FORA /
FORA+inc without ``--quota`` never call scipy, yet every process used
to import all of it (≈ 320 modules, ≈ 50 MB RSS, ≈ 0.5 s) because four
modules imported it at module level.  Each check runs in a fresh
interpreter — ``sys.modules`` of the test process proves nothing.
"""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

SERVING_WITHOUT_SCIPY = """
import sys
import repro.cli, repro.api.serve, repro.shard.worker
from repro.evaluation.runner import build_algorithm
from repro.graph import EdgeUpdate, barabasi_albert_graph

graph = barabasi_albert_graph(200, attach=3, seed=1)
for name in ("FORA", "FORA+inc"):
    algorithm = build_algorithm(name, graph.copy(), 500, seed=0, engine="auto")
    algorithm.query(0)
    algorithm.apply_update(EdgeUpdate(0, 150))
    assert algorithm.query(3).total_mass() > 0.99
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded[:5]
"""

SCIPY_LOADS_ON_FIRST_USE = """
import sys
from repro.core.calibration import calibrated_cost_model
from repro.core.quota import QuotaController
from repro.evaluation.runner import build_algorithm
from repro.graph import barabasi_albert_graph
from repro.ppr import ppr_exact

graph = barabasi_albert_graph(120, attach=3, seed=1)
assert "scipy" not in sys.modules
exact = ppr_exact(graph, 0)
assert abs(exact.total_mass() - 1.0) < 1e-9
assert "scipy.sparse" in sys.modules

algorithm = build_algorithm("FORA", graph, 500, seed=0)
model = calibrated_cost_model(algorithm, num_queries=2, rng=1)
decision = QuotaController(model).configure(10.0, 10.0, quick=True)
assert decision.predicted_response_time > 0.0
assert "scipy.optimize" in sys.modules

speed = build_algorithm("SpeedPPR", graph, 500, seed=0, engine="auto")
assert speed.query(0).total_mass() > 0.99
"""


def run_fresh_interpreter(code: str) -> None:
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_push_family_serving_never_imports_scipy():
    run_fresh_interpreter(SERVING_WITHOUT_SCIPY)


def test_scipy_users_still_work_and_load_it_on_first_use():
    run_fresh_interpreter(SCIPY_LOADS_ON_FIRST_USE)
