"""Entry point named by ``BENCHMARK.json``.

    python3 benchmarks/e2e/contract.py --workload <name> --seed <n> \\
        --seconds <s> --trace <0|1>

Measures ``--seconds`` seconds as three equal windows after the usual
warm-up and prints, as the last stdout line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer ledger (scrape, spans of a
traced fleet, direct-call probe) with ``--trace 1``.  Exits non-zero,
printing no result, when the run or its output check fails or when the
program under test (``src/repro``) is not there.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
# run as a script: make `benchmarks.e2e` and the program under test importable
sys.path[:0] = [str(REPO_ROOT), str(REPO_ROOT / "src")]

PROBE_CALLS = 100


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks/e2e/contract.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (REPO_ROOT / "src" / "repro").is_dir():
        print("contract.py: src/repro is missing", file=sys.stderr)
        return 2

    from benchmarks.e2e import harness, spec
    from benchmarks.e2e.supervisor import Supervisor

    workload = spec.WORKLOADS[args.workload]
    traced = bool(args.trace)
    profile = spec.Profile(
        spec.FULL.dataset, spec.WINDOWS, args.seconds / spec.WINDOWS
    )
    report: dict[str, object] = {}

    def body(supervisor: Supervisor) -> None:
        result = harness.measure(
            supervisor, workload, args.seed, profile, traced
        )
        if traced:
            layers = result["per_layer"]
            layers.update(
                harness.run_probe(
                    supervisor, workload, profile.dataset, args.seed,
                    PROBE_CALLS,
                )
            )
            layers["fail_ratio"] = result["end_to_end"]["fail_ratio"]["value"]
            metrics = {
                m.name: {"value": layers[m.name], "unit": m.unit}
                for m in spec.PER_LAYER
            }
        else:
            e2e = result["end_to_end"]
            metrics = {
                m.name: {"value": e2e[m.name]["value"], "unit": m.unit}
                for m in spec.END_TO_END
                if m.name != "fail_ratio"
            }
            # BENCHMARK.json holds no metric that is normally 0
            metrics["success_ratio"] = {
                "value": 1.0 - e2e["fail_ratio"]["value"], "unit": "ratio",
            }
        harness.save(result, f"contract-{workload.name}-trace{args.trace}")
        report.update(
            correct=True,
            attempted=result["counts"]["attempted"],
            failed=result["counts"]["failed"],
            metrics=metrics,
        )

    code = harness.supervised(body)
    if code == 0:
        print(json.dumps(report), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
