"""``python -m repro.cli serve`` — stand up the sharded HTTP service.

Has the dataset's graph image built in a throwaway child
(:class:`repro.shard.image.ImageBuild`), spins up a
:class:`~repro.shard.manager.ShardManager` on it (worker processes by default,
launched while the image is built), wraps it in the asyncio front door,
and serves until interrupted.  This
process is the control plane: it holds sockets, pipes, versions and the
update log — never a graph, an index or numpy
(``tests/test_import_hygiene.py`` holds it to that).  Drift-driven
reconfiguration is armed whenever ``--quota`` is given (the workers then
build calibrated QuotaControllers at start).

Importing this module loads neither asyncio nor the HTTP stack, whose
``asyncio`` would load ``ssl``: :func:`main` refuses OpenSSL's modules
(:data:`~repro.shard.launch.UNLOADED_MODULES`) and only then binds the
stack's names here, so a library import leaves ``sys.modules`` as it
found it.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro.evaluation.datasets import DatasetSpec, get_dataset
from repro.ppr.names import ALGORITHM_NAMES
from repro.shard.backend import BACKENDS
from repro.shard.image import ImageBuild
from repro.shard.launch import refuse_unloaded_modules
from repro.shard.manager import ShardManager
from repro.shard.router import ROUTERS

if TYPE_CHECKING:  # bound at run time by _bind_http_stack
    import asyncio

    from repro.api.frontdoor import DriftPolicy, FrontDoor
    from repro.api.http import HttpServer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="serve PPR queries over HTTP from a sharded fleet",
    )
    parser.add_argument("--dataset", default="dblp")
    parser.add_argument(
        "--algorithm", default="FORA", choices=sorted(ALGORITHM_NAMES)
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--backend", default="process", choices=BACKENDS)
    parser.add_argument("--router", default="hash", choices=ROUTERS)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080)
    parser.add_argument(
        "--max-inflight", type=int, default=64,
        help="per-shard inflight bound before the front door sheds",
    )
    parser.add_argument(
        "--top-k", type=int, default=50,
        help="default vector truncation for /query responses",
    )
    parser.add_argument(
        "--budget-s", type=float, default=None,
        help="default per-query deadline budget in seconds",
    )
    parser.add_argument(
        "--cache-epsilon", type=float, default=None,
        help="enable the per-shard result cache at this epsilon_c",
    )
    parser.add_argument(
        "--epsilon-r", type=float, default=0.0,
        help="Seed reorder threshold per shard (0 = strict FCFS)",
    )
    parser.add_argument(
        "--quota", action="store_true",
        help="build per-shard QuotaControllers and arm drift-driven "
        "reconfiguration",
    )
    parser.add_argument("--lambda-q", type=float, default=None)
    parser.add_argument("--lambda-u", type=float, default=None)
    parser.add_argument(
        "--drift-threshold", type=float, default=0.5,
        help="relative rate drift that triggers a fleet re-solve",
    )
    return parser


def _build_manager(args: argparse.Namespace, spec: DatasetSpec) -> ShardManager:
    """Have the dataset's image built and hand the build to a fleet.

    The manager keeps the packed edges for respawns; nothing in this
    process ever decodes them.
    """
    print(
        f"building {args.shards}-shard fleet ({args.backend}) on "
        f"{spec.name}...",
        flush=True,
    )
    return ShardManager(
        ImageBuild(spec.name, args.seed),
        args.shards,
        backend=args.backend,
        router=args.router,
        algorithm=args.algorithm,
        walk_cap=spec.walk_cap,
        seed=args.seed,
        epsilon_r=args.epsilon_r,
        cache_epsilon=args.cache_epsilon,
        use_controller=args.quota,
        max_inflight_per_shard=args.max_inflight,
    )


def _bind_http_stack() -> None:
    """Import asyncio and the HTTP stack into this module's namespace.

    A name already bound here is kept: a wrapper may swap its own
    ``FrontDoor`` / ``HttpServer`` / ``ShardManager`` in before calling
    :func:`main`.
    """
    import asyncio

    from repro.api.frontdoor import DriftPolicy, FrontDoor
    from repro.api.http import HttpServer

    for name, value in (
        ("asyncio", asyncio),
        ("DriftPolicy", DriftPolicy),
        ("FrontDoor", FrontDoor),
        ("HttpServer", HttpServer),
    ):
        globals().setdefault(name, value)


async def _serve(args: argparse.Namespace) -> int:
    spec = get_dataset(args.dataset)
    manager = _build_manager(args, spec)
    drift = (
        DriftPolicy(
            lambda_q=(
                args.lambda_q if args.lambda_q is not None else spec.lambda_q
            ),
            lambda_u=args.lambda_u,
            threshold=args.drift_threshold,
        )
        if args.quota
        else None
    )
    frontdoor = FrontDoor(
        manager,
        default_top_k=args.top_k,
        default_budget_s=args.budget_s,
        drift=drift,
    )
    server = HttpServer(frontdoor, args.host, args.port)
    await server.start()
    print(
        f"serving on http://{args.host}:{server.port}  "
        f"(endpoints: /query /update /reconfigure /healthz /metrics)",
        flush=True,
    )
    try:
        await server.serve_forever()
    except asyncio.CancelledError:  # pragma: no cover - signal path
        pass
    finally:
        await server.stop()
        manager.stop()
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.quota and args.lambda_u is None:
        # a dataset declares a query rate only; a guessed update rate
        # would be a wrong drift baseline
        parser.error("--quota requires --lambda-u (the drift baseline)")
    refuse_unloaded_modules()
    _bind_http_stack()
    try:
        return asyncio.run(_serve(args))
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        print("interrupted; fleet stopped", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
