"""CLI of the scenario fuzz/replay harness.

::

    python -m repro.scenarios list
    python -m repro.scenarios fuzz --seeds 20 --out report.json
    python -m repro.scenarios fuzz --seeds 5 --quick
    python -m repro.scenarios fuzz --seeds 3 --scale   # nightly profile
    python -m repro.scenarios replay --spec "flash-crowd(spike_factor=40)"

``fuzz`` exits non-zero when any oracle was violated, so the command
doubles as the CI smoke gate (deterministic given ``--seeds``).
``replay`` runs one scenario spec (the compact DSL text form) through
the modeled engines — and the measured runtime unless ``--quick`` —
and prints its report cards.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence

import numpy as np

from repro.evaluation.report import format_table
from repro.graph.generators import barabasi_albert_graph
from repro.scenarios.dsl import FAMILIES, parse_scenario
from repro.scenarios.fuzz import (
    SCALE_NODES,
    ReportCard,
    run_fuzz,
    run_measured,
    run_modeled,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.scenarios",
        description="workload-scenario fuzzing with differential oracles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the registered scenario families")

    fuzz = sub.add_parser(
        "fuzz", help="sweep seeded scenarios through every engine"
    )
    fuzz.add_argument(
        "--seeds", type=int, default=5, help="seeds per family (default 5)"
    )
    fuzz.add_argument(
        "--families",
        default=None,
        help="comma-separated family subset (default: all)",
    )
    fuzz.add_argument(
        "--nodes",
        type=int,
        default=None,
        help="graph size (default 160; 10000 with --scale)",
    )
    fuzz.add_argument(
        "--out", default=None, help="write the report-card JSON here"
    )
    fuzz.add_argument(
        "--quick",
        action="store_true",
        help="modeled engines only (skip measured runtime + drift demo)",
    )
    fuzz.add_argument(
        "--scale",
        action="store_true",
        help="large-graph profile: 10^4-node graphs and deeper measured "
        "replays (nightly cron job; the PR gate stays small)",
    )

    replay = sub.add_parser(
        "replay", help="run one scenario spec and print its report cards"
    )
    replay.add_argument(
        "--spec",
        required=True,
        help='DSL text form, e.g. "flash-crowd(spike_factor=40)"',
    )
    replay.add_argument("--seed", type=int, default=0)
    replay.add_argument("--nodes", type=int, default=160)
    replay.add_argument(
        "--quick", action="store_true", help="skip the measured runtime"
    )
    return parser


def _card_rows(cards: Sequence[ReportCard]) -> list[list[object]]:
    return [
        [
            c.scenario,
            c.engine,
            c.seed,
            c.requests,
            c.p50_ms,
            c.p99_ms,
            "-" if c.deadline_ms is None else f"{c.deadline_hit_rate:.2f}",
            c.shed_rate,
            c.hit_rate,
            c.staleness_spent,
            c.violations,
        ]
        for c in cards
    ]


def _print_cards(cards: Sequence[ReportCard], title: str) -> None:
    print(
        format_table(
            [
                "scenario",
                "engine",
                "seed",
                "reqs",
                "p50 (ms)",
                "p99 (ms)",
                "SLO met",
                "shed",
                "hit rate",
                "staleness",
                "viol",
            ],
            _card_rows(cards),
            title=title,
            float_format="{:.3f}",
        )
    )


def cmd_list() -> int:
    rows = []
    for name in sorted(FAMILIES):
        scenario = FAMILIES[name]()
        rows.append(
            [name, len(scenario.segments), scenario.t_end, scenario.description]
        )
    print(
        format_table(
            ["family", "segments", "t_end (s)", "description"],
            rows,
            title="registered scenario families (repro.scenarios)",
            float_format="{:g}",
        )
    )
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    families = (
        [f.strip() for f in args.families.split(",") if f.strip()]
        if args.families
        else None
    )
    nodes = (
        args.nodes
        if args.nodes is not None
        else (SCALE_NODES if args.scale else 160)
    )
    report = run_fuzz(
        args.seeds,
        families=families,
        nodes=nodes,
        measured=not args.quick,
        drift=not args.quick,
        scale=args.scale,
        log=print,
    )
    _print_cards(
        report.cards,
        f"scenario fuzz: {args.seeds} seed(s) x "
        f"{len(report.families)} families",
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2)
        print(f"report cards written to {args.out}")
    measured = sorted(report.measured_families())
    if measured:
        print(f"measured-runtime coverage: {', '.join(measured)}")
    if not report.ok:
        print(f"{len(report.violations)} ORACLE VIOLATION(S):")
        for violation in report.violations:
            print(f"  {violation}")
        return 1
    print("all oracles passed")
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    scenario = parse_scenario(args.spec)
    rng = np.random.default_rng(args.seed)
    graph = barabasi_albert_graph(args.nodes, attach=2, seed=args.seed + 1)
    workload = scenario.compile(graph, rng)
    print(
        f"{scenario.name}: {workload.num_queries} queries + "
        f"{workload.num_updates} updates over {workload.t_end:g}s"
    )
    cards, violations = run_modeled(scenario, workload, graph, args.seed)
    if not args.quick:
        card, measured_violations = run_measured(
            scenario, workload, graph, args.seed
        )
        cards.append(card)
        violations += measured_violations
    _print_cards(cards, f"replay: {scenario.name}")
    if violations:
        print(f"{len(violations)} ORACLE VIOLATION(S):")
        for violation in violations:
            print(f"  {violation}")
        return 1
    print("all oracles passed")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return cmd_list()
        if args.command == "fuzz":
            return cmd_fuzz(args)
        if args.command == "replay":
            return cmd_replay(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
