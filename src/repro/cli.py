"""Command-line interface: run experiments without writing code.

Subcommands
-----------
``datasets``
    List the registered benchmark datasets and their defaults.
``calibrate``
    Measure and print the tau constants of an algorithm on a dataset.
``configure``
    Run the Quota controller for given arrival rates and print the
    chosen hyperparameters, regime, and predicted response time.
``run``
    Replay a workload (generated or loaded from a CSV trace) through a
    system and print the response-time summary; optionally compare the
    Quota configuration against the algorithm default, and/or serve
    queries through the staleness-bounded result cache
    (``--cache --cache-epsilon 0.1``).
``scenarios``
    Delegate to the scenario fuzz/replay harness
    (``python -m repro.scenarios``): list workload-scenario families,
    fuzz them through every engine under differential oracles, or
    replay one DSL spec.
``serve``
    Stand up the sharded HTTP serving fabric (``repro.shard`` workers
    behind the ``repro.api`` front door) on a dataset graph and serve
    ``/query`` ``/update`` ``/reconfigure`` ``/healthz`` ``/metrics``
    until interrupted.

Examples
--------
::

    python -m repro.cli datasets
    python -m repro.cli calibrate --dataset dblp --algorithm Agenda
    python -m repro.cli configure --dataset dblp --algorithm FORA+ \\
        --lambda-q 20 --lambda-u 40
    python -m repro.cli run --dataset webs --algorithm Agenda --quota \\
        --lambda-q 40 --lambda-u 80 --window 5 --epsilon-r 0.5
    python -m repro.cli run --dataset dblp --algorithm Agenda \\
        --cache --cache-epsilon 0.2
    python -m repro.cli scenarios fuzz --seeds 20 --out cards.json
    python -m repro.cli serve --dataset dblp --shards 2 --port 8080
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from repro.evaluation.datasets import DATASETS, get_dataset
from repro.evaluation.report import format_table
from repro.ppr.names import ALGORITHM_NAMES, ENGINE_CHOICES
from repro.queueing.kinds import QUERY, UPDATE

# Everything that computes is imported by the subcommand that needs it:
# `datasets` and the parser load no numpy, and `serve` — whose process
# stays up as the fleet's front door — never does.

#: ``QuotaController.RESPONSE_MODELS``, spelled out so the parser can
#: reject a typo without importing the controller (tests/test_cli.py
#: holds the two equal)
RESPONSE_MODELS = ("pk", "mm1", "heavy-traffic")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Quota: QoS-aware PPR over dynamic graphs (ICDE 2024 "
        "reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list registered benchmark datasets")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--dataset", default="dblp", help="dataset name (see `datasets`)"
    )
    common.add_argument(
        "--algorithm",
        default="Agenda",
        choices=sorted(ALGORITHM_NAMES),
        help="base PPR algorithm",
    )
    common.add_argument("--seed", type=int, default=0, help="random seed")

    cal = sub.add_parser(
        "calibrate", parents=[common],
        help="measure the tau constants of an algorithm",
    )
    cal.add_argument(
        "--queries", type=int, default=5, help="probe queries per point"
    )

    conf = sub.add_parser(
        "configure", parents=[common],
        help="compute the Quota-optimal hyperparameters for given rates",
    )
    conf.add_argument("--lambda-q", type=float, required=True)
    conf.add_argument("--lambda-u", type=float, required=True)
    conf.add_argument(
        "--response-model", default="pk", choices=RESPONSE_MODELS,
    )

    run = sub.add_parser(
        "run", parents=[common],
        help="replay a workload and report response times",
    )
    run.add_argument("--lambda-q", type=float, default=None)
    run.add_argument("--lambda-u", type=float, default=None)
    run.add_argument("--window", type=float, default=None)
    run.add_argument(
        "--engine",
        default="auto",
        choices=ENGINE_CHOICES,
        help="kernel engine (auto = the vectorized kernels; scalar is "
        "the oracle path; frontier forces the raw-row vectorized "
        "kernels where the algorithm supports them)",
    )
    run.add_argument(
        "--quota", action="store_true",
        help="also run the Quota-configured system and compare",
    )
    run.add_argument(
        "--epsilon-r", type=float, default=0.0,
        help="Seed reorder threshold (0 = strict FCFS)",
    )
    run.add_argument(
        "--reoptimize-every", type=float, default=None,
        help="online re-optimization period in virtual seconds",
    )
    run.add_argument(
        "--cache", action="store_true",
        help="serve queries through the staleness-bounded result cache",
    )
    run.add_argument(
        "--cache-epsilon", type=float, default=0.1, metavar="EPS_C",
        help="staleness budget epsilon_c per cached entry (default 0.1)",
    )
    run.add_argument(
        "--trace", default=None,
        help="CSV workload trace to replay instead of generating",
    )
    run.add_argument(
        "--save-trace", default=None,
        help="persist the generated workload to this CSV path",
    )

    scenarios = sub.add_parser(
        "scenarios",
        help="workload-scenario fuzzing (delegates to repro.scenarios)",
        add_help=False,
    )
    scenarios.add_argument(
        "rest",
        nargs=argparse.REMAINDER,
        help="arguments forwarded to `python -m repro.scenarios`",
    )

    serve = sub.add_parser(
        "serve",
        help="serve PPR over HTTP from a sharded fleet (repro.api)",
        add_help=False,
    )
    serve.add_argument(
        "rest",
        nargs=argparse.REMAINDER,
        help="arguments forwarded to the serve entry point "
        "(see `serve --help`)",
    )
    return parser


def cmd_datasets() -> int:
    rows = [
        [s.name, s.nodes, s.edges, "directed" if s.directed else "undirected",
         s.lambda_q, s.window]
        for s in DATASETS.values()
    ]
    print(
        format_table(
            ["name", "nodes", "edges", "type", "lambda_q", "window (s)"],
            rows,
            title="registered datasets (scaled stand-ins for Table II)",
            float_format="{:g}",
        )
    )
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    from repro.core.calibration import calibrated_cost_model
    from repro.ppr.registry import build_algorithm

    spec = get_dataset(args.dataset)
    graph = spec.build(seed=args.seed)
    algorithm = build_algorithm(
        args.algorithm, graph, spec.walk_cap, seed=args.seed
    )
    model = calibrated_cost_model(
        algorithm, num_queries=args.queries, rng=args.seed
    )
    rows = [[name, tau] for name, tau in sorted(model.taus.items())]
    print(
        format_table(
            ["sub-process", "tau (s per unit factor)"],
            rows,
            title=f"{args.algorithm} on {spec.name} "
            f"(n={graph.num_nodes}, m={graph.num_edges})",
            float_format="{:.3e}",
        )
    )
    return 0


def cmd_configure(args: argparse.Namespace) -> int:
    from repro.core.calibration import calibrated_cost_model
    from repro.core.quota import QuotaController
    from repro.ppr.registry import build_algorithm

    spec = get_dataset(args.dataset)
    graph = spec.build(seed=args.seed)
    algorithm = build_algorithm(
        args.algorithm, graph, spec.walk_cap, seed=args.seed
    )
    model = calibrated_cost_model(algorithm, rng=args.seed)
    controller = QuotaController(
        model,
        extra_starts=[algorithm.get_hyperparameters()],
        response_model=args.response_model,
    )
    decision = controller.configure(args.lambda_q, args.lambda_u)
    print(f"regime:    {decision.regime}")
    print(f"rho:       {decision.traffic_intensity:.4f}")
    if decision.is_stable:
        print(
            f"predicted mean response time: "
            f"{decision.predicted_response_time * 1e3:.3f} ms"
        )
    for name, value in decision.beta.items():
        print(f"{name:10s} = {value:.6e}")
    print(f"(solved in {decision.configure_seconds * 1e3:.1f} ms)")
    return 0


def _summarize(label: str, result) -> list[object]:
    from repro.evaluation.metrics import ResponseTimeSummary

    summary = ResponseTimeSummary.from_result(result)
    return [
        label,
        summary.mean * 1e3,
        summary.p50 * 1e3,
        summary.p95 * 1e3,
        result.mean_service_time(QUERY) * 1e3,
        result.mean_service_time(UPDATE) * 1e3,
        result.empirical_load(),
    ]


def cmd_run(args: argparse.Namespace) -> int:
    from repro.cache.store import PPRCache
    from repro.core.calibration import calibrated_cost_model
    from repro.core.quota import QuotaController
    from repro.core.system import QuotaSystem
    from repro.evaluation.metrics import improvement_percent
    from repro.ppr.registry import build_algorithm
    from repro.queueing.trace_io import load_workload_trace, save_workload_trace
    from repro.queueing.workload import generate_workload

    spec = get_dataset(args.dataset)
    graph = spec.build(seed=args.seed)
    lambda_q = args.lambda_q if args.lambda_q is not None else spec.lambda_q
    lambda_u = args.lambda_u if args.lambda_u is not None else spec.lambda_q
    window = args.window if args.window is not None else spec.window

    if args.trace:
        workload = load_workload_trace(args.trace)
    else:
        workload = generate_workload(
            graph, lambda_q, lambda_u, window, rng=args.seed + 1
        )
    if args.save_trace:
        save_workload_trace(workload, args.save_trace)
        print(f"workload trace written to {args.save_trace}")
    print(
        f"{workload.num_queries} queries + {workload.num_updates} updates "
        f"over {workload.t_end:g}s on {spec.name} "
        f"(n={graph.num_nodes}, m={graph.num_edges})"
    )

    def make_cache() -> PPRCache | None:
        if not args.cache:
            return None
        return PPRCache(epsilon_c=args.cache_epsilon)

    rows = []
    baseline = build_algorithm(
        args.algorithm, graph.copy(), spec.walk_cap, seed=args.seed,
        engine=args.engine,
    )
    base_cache = make_cache()
    base_result = QuotaSystem(
        baseline, epsilon_r=args.epsilon_r, cache=base_cache
    ).process(workload)
    label = f"{args.algorithm} (default)"
    if base_cache is not None:
        label += " +cache"
    rows.append(_summarize(label, base_result))

    if args.quota:
        tuned = build_algorithm(
            args.algorithm, graph.copy(), spec.walk_cap, seed=args.seed,
            engine=args.engine,
        )
        controller = QuotaController(
            calibrated_cost_model(tuned, rng=args.seed + 2),
            extra_starts=[tuned.get_hyperparameters()],
        )
        quota_cache = make_cache()
        system = QuotaSystem(
            tuned,
            controller,
            epsilon_r=args.epsilon_r,
            reoptimize_every=args.reoptimize_every,
            cache=quota_cache,
        )
        if args.reoptimize_every is None:
            system.configure_static(lambda_q, lambda_u)
        quota_result = system.process(workload)
        label = f"Quota-{args.algorithm}"
        if quota_cache is not None:
            label += " +cache"
        rows.append(_summarize(label, quota_result))

    print(
        format_table(
            ["system", "mean R (ms)", "p50 (ms)", "p95 (ms)",
             "t_q (ms)", "t_u (ms)", "load"],
            rows,
        )
    )
    if args.quota:
        print(
            f"response-time reduction: "
            f"{improvement_percent(rows[0][1], rows[1][1]):.1f}%"
        )
    if args.cache and base_cache is not None:
        stats = base_cache.stats()
        print(
            f"cache (epsilon_c={args.cache_epsilon:g}): "
            f"hit rate {stats['hit_rate']:.2f} over "
            f"{stats['lookups']:.0f} lookups, "
            f"{stats['size']:.0f} live entries"
        )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    raw = list(sys.argv[1:] if argv is None else argv)
    if raw and raw[0] == "serve":
        # forward before argparse: REMAINDER refuses to capture a
        # leading option token (`serve --dataset ...`), so the serve
        # entry point owns its whole argument list, --help included
        from repro.api.serve import main as serve_main

        return serve_main(raw[1:])
    args = build_parser().parse_args(raw)
    if args.command == "scenarios":
        # lazy import: the harness pulls in the serving stack, which
        # the lightweight subcommands should not pay for
        from repro.scenarios.__main__ import main as scenarios_main

        return scenarios_main(args.rest)
    try:
        if args.command == "datasets":
            return cmd_datasets()
        if args.command == "calibrate":
            return cmd_calibrate(args)
        if args.command == "configure":
            return cmd_configure(args)
        if args.command == "run":
            return cmd_run(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
