"""Smoke tests: every example script must run to completion."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"


@pytest.mark.parametrize(
    "script",
    [
        "quickstart.py",
        "related_pins.py",
        "gaming_incentive.py",
        "adaptive_reconfiguration.py",
    ],
)
def test_example_runs(script):
    path = EXAMPLES_DIR / script
    assert path.exists(), f"missing example {script}"
    proc = subprocess.run(
        [sys.executable, str(path)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "response" in proc.stdout
