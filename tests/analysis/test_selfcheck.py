"""reprolint must hold on this repository's own source tree.

The CI gate runs ``python -m repro.analysis src`` and fails the build on
any finding; this test keeps that contract visible in the test suite and
proves the gate actually fires, for every rule, when a violation is
introduced.
"""

import ast
import textwrap
from pathlib import Path

import pytest

import repro
from repro.analysis.__main__ import main
from repro.analysis.engine import exit_code, run_paths
from repro.analysis.project import GRAPH_MUTATORS
from repro.analysis.rules import MetricInCriticalSectionRule

SRC = Path(repro.__file__).resolve().parent

#: one injected violation per kept rule (written under ``serving/`` so
#: the path-scoped R11 applies)
INJECTED = {
    "R5": """
        def record(metrics):
            metrics.counter("no.such.metric").inc()
        """,
    "R7": """
        class Runtime:
            def reenter(self):
                with self._lock:
                    with self._lock:
                        pass
        """,
    "R9": """
        class Runtime:
            def __init__(self):
                self._degraded = False  # guarded-by: self._lock

            def degrade(self):
                self._degraded = True
        """,
    "R10": """
        def get_view(g):
            return csr_view(g)

        def flush(g):
            g.add_edge(1, 2)

        def serve(g):
            view = get_view(g)
            flush(g)
            return view.out_neighbors_of(0)
        """,
    # acquisition and mutation both direct, in one function
    "R10-local": """
        def refresh(g):
            view = csr_view(g)
            g.add_edge(1, 2)
            return view.out_neighbors_of(0)
        """,
    "R11": """
        class Runtime:
            def fault(self):
                with self._records_lock:
                    self.metrics.counter("serving.faults").inc()
        """,
}


class TestSelfCheck:
    def test_src_tree_is_clean(self):
        findings, errors = run_paths([SRC])
        assert errors == []
        assert findings == [], "\n".join(f.format_text() for f in findings)
        assert exit_code(findings, errors) == 0

    def test_cli_exits_zero_on_src(self):
        assert main([str(SRC)]) == 0

    def test_gate_fires_on_injected_violation(self, tmp_path):
        # a copy of a real module with one unregistered metric name
        # injected must flip the exit code to non-zero
        victim = SRC / "core" / "seed.py"
        patched = tmp_path / "seed.py"
        patched.write_text(
            victim.read_text(encoding="utf-8")
            + "\n\ndef _probe(metrics):\n"
            + '    metrics.counter("seed.unregistered").inc()\n',
            encoding="utf-8",
        )
        assert main([str(patched)]) == 1

    def test_gate_fires_on_injected_concurrency_violation(self, tmp_path):
        # the project rules run through the same gate: two serving-path
        # modules taking the same two mutexes in opposite orders must
        # fail the build, though neither file is wrong on its own
        serving = tmp_path / "serving"
        serving.mkdir()
        for name, first, second in (
            ("one", "_lock_a", "_lock_b"),
            ("two", "_lock_b", "_lock_a"),
        ):
            (serving / f"{name}.py").write_text(
                "class Fabric:\n"
                f"    def {name}(self):\n"
                f"        with self.{first}:\n"
                f"            with self.{second}:\n"
                "                pass\n",
                encoding="utf-8",
            )
        assert main([str(serving)]) == 1

    @pytest.mark.parametrize("case", sorted(INJECTED))
    def test_gate_fires_for_each_kept_rule(self, case, tmp_path, capsys):
        serving = tmp_path / "serving"
        serving.mkdir()
        (serving / "bad.py").write_text(
            textwrap.dedent(INJECTED[case]), encoding="utf-8"
        )
        assert main([str(serving)]) == 1
        rule_ids = {
            line.split()[1] for line in capsys.readouterr().out.splitlines()
        }
        assert rule_ids == {case.split("-")[0]}

    def test_guarded_by_annotations_exist_in_serving(self):
        # the front door declares its mutex discipline (no serving loop
        # holds a lock, a shard worker none at all); if these vanish, R9
        # silently stops checking anything real
        for module in ("shard/manager.py", "shard/backend.py"):
            text = (SRC / module).read_text(encoding="utf-8")
            assert "# guarded-by:" in text, module

    def test_scoped_rules_cover_their_targets(self):
        # R11's path scope must keep matching the tree layout; if these
        # packages move, the lint gate silently loses them
        for part in MetricInCriticalSectionRule.SCOPE:
            assert (SRC / part).is_dir(), f"R11 scope {part}/ missing"

    def test_kernel_and_mutator_names_are_defined(self):
        # a name in these lists that nothing defines can never match:
        # the rule silently checks less than it says
        defined = {
            node.name
            for path in SRC.rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        assert GRAPH_MUTATORS - defined == set()
