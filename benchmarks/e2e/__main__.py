"""``python -m benchmarks.e2e {run,trace,probe,repeat}`` — see README.md."""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable
from typing import Any

from benchmarks.e2e import harness
from benchmarks.e2e.check import CheckFailed
from benchmarks.e2e.spec import (
    CLIENT_TIMINGS, END_TO_END, FULL, SMOKE, TRACE, WORKLOADS, Profile,
    Workload,
)
from benchmarks.e2e.supervisor import Supervisor

#: acceptance: a traced fleet may be this much slower at the median, on
#: the workload whose median is long enough for the ratio to mean the
#: tracing and not the host (elsewhere it is reported only)
MAX_TRACE_OVERHEAD = 0.15
OVERHEAD_LIMITED = "steady_topk"
MIN_NESTED_RATIO = 0.99


def _profile(args: argparse.Namespace) -> Profile:
    return SMOKE if args.smoke else FULL


def _stem(kind: str, workload: Workload, args: argparse.Namespace) -> str:
    return f"{kind}-{workload.name}{'-smoke' if args.smoke else ''}"


def cmd_run(
    supervisor: Supervisor, workload: Workload, args: argparse.Namespace
) -> None:
    result = harness.measure(supervisor, workload, args.seed, _profile(args))
    print(harness.render(result), flush=True)
    harness.save(result, _stem("run", workload, args))


def cmd_trace(
    supervisor: Supervisor, workload: Workload, args: argparse.Namespace
) -> None:
    """A short traced run, judged against an untraced twin measured on the
    same profile immediately before it."""
    profile = SMOKE if args.smoke else TRACE
    untraced = harness.measure(supervisor, workload, args.seed, profile)
    traced = harness.measure(
        supervisor, workload, args.seed, profile, traced=True
    )
    layers = traced["per_layer"]
    layers["trace.overhead_ratio"] = (
        harness.value(traced, "query_p50_ms")
        / harness.value(untraced, "query_p50_ms")
        - 1.0
    )
    print(harness.render(traced), flush=True)
    harness.save(traced, _stem("trace", workload, args))
    if layers["trace.nested_ratio"] < MIN_NESTED_RATIO:
        raise CheckFailed(
            f"only {layers['trace.nested_ratio']:.3f} of traced requests "
            "have every span inside its parent"
        )
    if (
        workload.name == OVERHEAD_LIMITED
        and layers["trace.overhead_ratio"] > MAX_TRACE_OVERHEAD
    ):
        raise CheckFailed(
            f"trace.overhead_ratio {layers['trace.overhead_ratio']:.3f} "
            f"> {MAX_TRACE_OVERHEAD} on {workload.name}"
        )


def cmd_probe(
    supervisor: Supervisor, workload: Workload, args: argparse.Namespace
) -> None:
    metrics = harness.run_probe(
        supervisor, workload, _profile(args).dataset, args.seed
    )
    print(f"== {workload.name}  probe", flush=True)
    print("\n".join(harness.render_layers(metrics)), flush=True)
    harness.save(
        {"workload": workload.name, "seed": args.seed, "per_layer": metrics},
        _stem("probe", workload, args),
    )


class Disagreement(Exception):
    """An A/A pair read apart by more than a bound."""


def cmd_repeat(
    supervisor: Supervisor, workload: Workload, args: argparse.Namespace
) -> None:
    """A/A: the second of two runs of the same code may not read worse
    than the first by more than a metric's bound — the rule a later
    change is gated with, applied to no change at all.  The client
    timings that are not gated are printed too, without a verdict."""
    first, second = (
        harness.measure(supervisor, workload, args.seed, _profile(args))
        for _ in range(2)
    )
    print(f"== {workload.name}  A/A agreement", flush=True)
    print(f"   {'metric':<20}{'first':>11}{'second':>11}{'worse by':>10}{'bound':>8}")
    outside = []
    for metric in END_TO_END + CLIENT_TIMINGS:
        a = harness.value(first, metric.name)
        b = harness.value(second, metric.name)
        worse = b - a if metric.better == "lower" else a - b
        if metric.name != "fail_ratio":  # normally 0: its bound is absolute
            worse /= a
        if metric.bound is None:
            limit = f"{'-':>8}"
        else:
            limit = f"{metric.bound:>8.3f}"
            if worse > metric.bound:
                limit += "  OUTSIDE"
                outside.append(metric.name)
        print(
            f"   {metric.name:<20}{a:>11.4f}{b:>11.4f}{worse:>+10.4f}{limit}",
            flush=True,
        )
    harness.save(
        {"first": first, "second": second}, _stem("repeat", workload, args)
    )
    if outside:
        raise Disagreement(f"{workload.name}: {', '.join(outside)}")


COMMANDS: dict[str, Callable[[Supervisor, Workload, argparse.Namespace], Any]] = {
    "run": cmd_run,
    "trace": cmd_trace,
    "probe": cmd_probe,
    "repeat": cmd_repeat,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    parser.add_argument("command", choices=sorted(COMMANDS))
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=sorted(WORKLOADS))
    which.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="dataset dblp, 2 windows: same code path, CI-sized",
    )
    args = parser.parse_args(argv)
    chosen = list(WORKLOADS.values()) if args.all else [WORKLOADS[args.workload]]

    def body(supervisor: Supervisor) -> None:
        disagreements = []
        for workload in chosen:
            try:
                COMMANDS[args.command](supervisor, workload, args)
            except Disagreement as exc:  # judge every workload before failing
                disagreements.append(str(exc))
        if disagreements:
            raise CheckFailed(
                "A/A runs disagree on " + "; ".join(disagreements)
            )

    return harness.supervised(body)


if __name__ == "__main__":
    sys.exit(main())
