"""``BENCHMARK.json`` and the harness name the same things."""

import json
import re
from pathlib import Path

from benchmarks.e2e import spec

ROOT = Path(__file__).resolve().parents[3]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _by_name(section: str) -> dict[str, dict[str, object]]:
    return {entry["name"]: entry for entry in BENCHMARK[section]}


def test_paths_and_command_point_at_this_package():
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]
    assert BENCHMARK["command"] == ["python3", "benchmarks/e2e/contract.py"]
    assert (ROOT / BENCHMARK["command"][1]).is_file()


def test_workloads_match_the_harness():
    workloads = _by_name("workloads")
    assert set(workloads) == set(spec.WORKLOADS)
    for name, entry in workloads.items():
        assert set(entry) == {"name", "why"}
        assert "\n" not in entry["why"] and len(entry["why"]) <= 200


def test_end_to_end_metrics_match_the_harness():
    declared = _by_name("end_to_end")
    # fail_ratio is normally 0, which BENCHMARK.json cannot hold: the
    # contract entry point reports 1 - fail_ratio under the same bound
    expected = {
        ("success_ratio" if m.name == "fail_ratio" else m.name): m
        for m in spec.END_TO_END
    }
    assert set(declared) == set(expected)
    for name, entry in declared.items():
        metric = expected[name]
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert entry["unit"] == metric.unit
        assert entry["bound"] == metric.bound <= 0.25
        if name == "success_ratio":
            assert entry["better"] == "higher" and metric.better == "lower"
        else:
            assert entry["better"] == metric.better
    assert declared["setup_s"]["bound"] == max(
        e["bound"] for e in declared.values()
    )


def test_per_layer_metrics_match_the_harness():
    declared = _by_name("per_layer")
    assert list(declared) == [m.name for m in spec.PER_LAYER]
    for metric in spec.PER_LAYER:
        entry = declared[metric.name]
        assert set(entry) == {"name", "unit", "better"}
        assert (entry["unit"], entry["better"]) == (metric.unit, metric.better)


def test_names_and_units_fit_the_contract():
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in BENCHMARK[section]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for section in ("end_to_end", "per_layer"):
        for entry in BENCHMARK[section]:
            assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", entry["unit"])
            assert entry["better"] in ("lower", "higher")
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
