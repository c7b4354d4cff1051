"""docs/DEVELOPMENT.md sections name code that still exists."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "check_doc_markers.py"


def run_tool(*docs):
    return subprocess.run(
        [sys.executable, str(TOOL), *map(str, docs)],
        capture_output=True, text=True, timeout=60,
    )


def test_doc_markers_resolve_and_stale_ones_fail(tmp_path):
    doc = ROOT / "docs" / "DEVELOPMENT.md"
    assert doc.read_text().count("<!-- staleness-marker:") >= 10
    checked = run_tool()
    assert checked.returncode == 0, checked.stderr

    stale = tmp_path / "stale.md"
    stale.write_text(
        "<!-- staleness-marker: src/repro/ppr/kernels.py:frontier_push -->\n"
        "<!-- staleness-marker: src/repro/ppr/kernels.py:no_such_kernel -->\n"
        "<!-- staleness-marker: src/repro/serving/runtime.py:"
        "ServingRuntime.no_such_method -->\n"
        "<!-- staleness-marker: src/repro/no_such_module.py:anything -->\n"
    )
    flagged = run_tool(stale)
    assert flagged.returncode == 1
    assert "frontier_push" not in flagged.stderr
    for gone in ("no_such_kernel", "no_such_method", "no_such_module.py"):
        assert gone in flagged.stderr
