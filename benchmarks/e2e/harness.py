"""One benchmark run: launch the shipped server, load it, check it, stop it.

:func:`measure` is the only code path: ``run``, ``trace``, ``repeat``,
``--smoke`` and the ``BENCHMARK.json`` entry point all go through it
with a different :class:`~benchmarks.e2e.spec.Profile`.

The harness process itself never imports ``multiprocessing``: servers
and probes are children of the :class:`~benchmarks.e2e.supervisor.Supervisor`.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import platform
import re
import socket
import subprocess
import sys
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

import numpy as np

from benchmarks.e2e import check, procfs, scrape, stats, tracing
from benchmarks.e2e.loadgen import (
    HOST, LoadGenerator, LoadResult, get_json, get_request, parse_reply,
)
from benchmarks.e2e.schedule import Schedule, build_schedule
from benchmarks.e2e.spec import (
    CLOSED, DATASET_NODES, END_TO_END, PER_LAYER, QUERY_P99, SHARDS, WARMUP_S,
    Profile, Workload,
)
from benchmarks.e2e.supervisor import Supervisor

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
SRC = REPO_ROOT / "src"
RESULTS = HERE / "results"

#: a server that is not answering /healthz by then has failed to start
READY_TIMEOUT_S = 120.0
#: generator lag (p99) beyond which a run's timings are marked noisy
NOISY_LAG_MS = 10.0
_PORT = re.compile(rb"serving on http://[\d.]+:(\d+)")
_UNITS = {m.name: m.unit for m in END_TO_END + PER_LAYER + (QUERY_P99,)}
_UNITS["trace.overhead_ratio"] = "ratio"  # `trace` only: needs an untraced twin


class RunFailed(Exception):
    """The run produced no valid measurement (server, load or check)."""


@dataclass(slots=True)
class Server:
    child: "subprocess.Popen[bytes]"
    port: int
    #: Popen -> first 200 from /healthz
    setup_s: float


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{SRC}{os.pathsep}{inherited}" if inherited else str(SRC)
    return env


def serve_argv(workload: Workload, dataset: str, traced: bool) -> list[str]:
    entry = (
        [str(HERE / "traced_serve.py")] if traced
        else ["-m", "repro.cli", "serve"]
    )
    return [
        sys.executable, *entry,
        "--dataset", dataset, "--shards", str(SHARDS), "--port", "0",
        *workload.serve_flags,
    ]


def launch(
    supervisor: Supervisor, argv: list[str], env: dict[str, str], log: Path
) -> Server:
    """Start a server and wait for its first healthy ``/healthz``."""
    log.parent.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    with open(log, "wb") as sink:
        child = supervisor.spawn(argv, env, sink)
    deadline = started + READY_TIMEOUT_S
    port = 0
    while time.perf_counter() < deadline:
        if child.poll() is not None:
            break
        if not port:
            found = _PORT.search(log.read_bytes())
            port = int(found.group(1)) if found else 0
        if port and _healthy(port):
            return Server(child, port, time.perf_counter() - started)
        time.sleep(0.01)
    supervisor.stop(child)
    raise RunFailed(
        f"server did not come up: {' '.join(argv)}\n"
        + log.read_text(errors="replace")[-2000:]
    )


def _healthy(port: int) -> bool:
    """One blocking ``GET /healthz``; True on a 200."""
    try:
        with socket.create_connection((HOST, port), timeout=5.0) as conn:
            conn.sendall(get_request("/healthz"))
            reply = b""
            while chunk := conn.recv(65536):
                reply += chunk
    except OSError:
        return False
    return parse_reply(reply)[0] == 200


# ----------------------------------------------------------------------
@dataclass(slots=True)
class _Usage:
    """CPU seconds spent over the measured windows and RSS at their end."""

    frontdoor_cpu_s: float
    worker_cpu_s: float
    rss_mb: float


async def _watch_processes(
    server_pid: int, warmup_s: float, measured_s: float
) -> _Usage:
    workers = procfs.shard_worker_pids(server_pid)

    def cpu() -> tuple[float, float]:
        return (
            procfs.cpu_seconds(server_pid),
            sum(procfs.cpu_seconds(pid) for pid in workers),
        )

    await asyncio.sleep(warmup_s)
    front0, work0 = cpu()
    await asyncio.sleep(measured_s)
    front1, work1 = cpu()
    session = [pid for pid, _ in procfs.session_pids({server_pid})]
    return _Usage(front1 - front0, work1 - work0, procfs.rss_mb(session))


async def _drive(
    server: Server,
    workload: Workload,
    schedule: Schedule,
    profile: Profile,
    seed: int,
    traced: bool,
) -> tuple[LoadResult, _Usage, dict[str, float], float]:
    """Load the server, scrape it, check its answers."""
    nodes = DATASET_NODES[profile.dataset]
    measured_s = profile.windows * profile.window_s
    generator = LoadGenerator(
        server.port,
        schedule,
        nodes if workload.whole_vector else None,
        measured_s,
        tag_requests=traced,
    )
    load, usage = await asyncio.gather(
        generator.run(WARMUP_S),
        _watch_processes(server.child.pid, WARMUP_S, measured_s),
    )
    status, metrics = await get_json(server.port, "/metrics")
    if status != 200:
        raise RunFailed(f"GET /metrics answered {status}")
    layers = scrape.layer_metrics(metrics)
    health = await check.wait_quiesced(server.port)
    if layers["shard.faults"]:
        raise check.CheckFailed(
            f"{layers['shard.faults']:.0f} shard respawns / order faults"
        )
    asked = (
        schedule.client_sources.ravel() if workload.loop == CLOSED
        else schedule.query_source
    )
    sampled = np.random.default_rng([seed, 9]).choice(
        asked, size=check.SAMPLED_ANSWERS
    )
    worst = await check.verify_answers(
        server.port,
        profile.dataset,
        check.acked_updates(load.samples),
        health,
        [int(s) for s in sampled],
        workload.cache_epsilon or 0.0,
    )
    return load, usage, layers, worst


def measure(
    supervisor: Supervisor,
    workload: Workload,
    seed: int,
    profile: Profile,
    traced: bool = False,
) -> dict[str, Any]:
    """One full run of one workload; raises on any failure."""
    env = child_env()
    argv = serve_argv(workload, profile.dataset, traced)
    log = RESULTS / f"server-{workload.name}.log"
    trace_out = RESULTS / f"spans-{workload.name}.json"
    if traced:
        env["E2E_TRACE_OUT"] = str(trace_out)
        trace_out.unlink(missing_ok=True)  # never read a previous run's spans
    server = launch(supervisor, argv, env, log)
    schedule = build_schedule(
        workload, seed, DATASET_NODES[profile.dataset], WARMUP_S,
        profile.window_s, profile.windows,
    )
    try:
        load, usage, layers, worst = asyncio.run(
            _drive(server, workload, schedule, profile, seed, traced)
        )
    finally:
        exit_code = supervisor.stop(server.child)
    if exit_code not in (0, 130):
        raise RunFailed(f"server exited with {exit_code}; see {log}")

    window_s, windows = profile.window_s, profile.windows
    counts = stats.counts(load.samples, window_s, windows)
    timings = stats.client_metrics(load.samples, window_s, windows)
    timings["setup_s"] = {"value": server.setup_s, "windows": []}
    timings["server_rss_mb"] = {"value": usage.rss_mb, "windows": []}
    for name, entry in timings.items():
        entry["unit"] = _UNITS[name]
        if math.isnan(entry["value"]):
            raise RunFailed(f"{name}: a window holds no sample to compute it")
    end_to_end = {m.name: timings.pop(m.name) for m in END_TO_END}
    # what is left are the client timings that are reported, not gated
    layers.update({name: entry["value"] for name, entry in timings.items()})
    layers.update(stats.pooled(load.samples, window_s, windows))
    ops = max(counts["succeeded"], 1)
    layers.update(
        {
            "client.inflight_max": float(load.inflight_max),
            "seed.pending_updates_mean": (
                float(np.mean(load.pending_updates))
                if load.pending_updates else 0.0
            ),
            "proc.frontdoor_cpu_ms_per_op": usage.frontdoor_cpu_s * 1e3 / ops,
            "proc.worker_cpu_ms_per_op": usage.worker_cpu_s * 1e3 / ops,
        }
    )
    if traced:
        layers.update(tracing.layer_metrics(trace_out, load.samples))
    return {
        "workload": workload.name,
        "seed": seed,
        "traced": traced,
        "profile": asdict(profile),
        "serve_argv": argv[1:],
        "host": host_fingerprint(),
        "git_sha": git_sha(),
        "counts": counts,
        "end_to_end": end_to_end,
        "client_timings": timings,
        "per_layer": layers,
        "noisy": layers["client.sched_lag_p99_ms"] > NOISY_LAG_MS,
        "check": {"answers": check.SAMPLED_ANSWERS, "worst_abs_error": worst},
    }


def value(result: dict[str, Any], name: str) -> float:
    """A client timing of ``result``, whether it is gated or in the ledger."""
    gated = result["end_to_end"].get(name)
    return float(gated["value"] if gated else result["per_layer"][name])


def run_probe(
    supervisor: Supervisor, workload: Workload, dataset: str, seed: int,
    calls: int = 200,
) -> dict[str, float]:
    """Run ``probe.py`` as a supervised child; returns its metrics."""
    argv = [
        sys.executable, str(HERE / "probe.py"),
        "--dataset", dataset,
        "--algorithm", workload.algorithm,
        "--epsilon-r", str(workload.epsilon_r),
        "--seed", str(seed),
        "--calls", str(calls),
    ]
    log = RESULTS / f"probe-{workload.name}.log"
    log.parent.mkdir(parents=True, exist_ok=True)
    with open(log, "wb") as sink:
        child = supervisor.spawn(argv, child_env(), sink)
    try:
        child.wait(READY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        pass
    finally:
        exit_code = supervisor.stop(child)
    lines = log.read_text(errors="replace").strip().splitlines()
    if exit_code != 0 or not lines:
        raise RunFailed(f"probe exited with {exit_code}; see {log}")
    result: dict[str, float] = json.loads(lines[-1])
    return result


def supervised(body: Callable[[Supervisor], None]) -> int:
    """Run ``body`` with a supervisor; whatever happens, leave no process."""
    supervisor = Supervisor()
    code = 0
    try:
        body(supervisor)
    except (check.CheckFailed, RunFailed) as exc:
        print(f"FAILED: {exc}", file=sys.stderr, flush=True)
        code = 1
    except KeyboardInterrupt:
        code = 130
    except SystemExit as exc:  # SIGTERM, raised by the supervisor's handler
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        supervisor.stop_all()
        left = supervisor.leftovers()
        if left:
            print(f"LEFTOVER PROCESSES: {left}", file=sys.stderr, flush=True)
            code = 3
    return code


# ----------------------------------------------------------------------
def host_fingerprint() -> dict[str, object]:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="latin-1") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "platform": platform.platform(),
        "cpu": model,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, timeout=10,
            capture_output=True, text=True, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def save(result: dict[str, Any], stem: str) -> Path:
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / f"{stem}.json"
    path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return path


def render(result: dict[str, Any]) -> str:
    """Every metric by name with its unit, plus the request counts.

    Gated metrics first, then (marked ``~``) the client timings that are
    reported without a bound, each with its per-window values; the
    ledger follows.
    """
    counts = result["counts"]
    lines = [
        f"== {result['workload']}  seed={result['seed']}"
        f"{'  [traced]' if result['traced'] else ''}"
        f"{'  [NOISY: generator lag]' if result['noisy'] else ''}",
        f"   serve {' '.join(result['serve_argv'])}",
        f"   attempted={counts['attempted']} succeeded={counts['succeeded']} "
        f"failed={counts['failed']}  (queries={counts['queries']} "
        f"updates={counts['updates']})",
        f"   output check: {result['check']['answers']} answers, worst "
        f"max-abs error {result['check']['worst_abs_error']:.5f}",
    ]
    for block, mark in (("end_to_end", "  "), ("client_timings", " ~")):
        for name, entry in result[block].items():
            each = " ".join(f"{w:.3f}" for w in entry["windows"])
            lines.append(
                f" {mark}{name:<28}{entry['value']:>12.4f} {entry['unit']:<6}"
                + (f" [{each}]" if each else "")
            )
    ledger = {
        name: value for name, value in result["per_layer"].items()
        if name not in result["client_timings"]
    }
    return "\n".join(lines + render_layers(ledger))


def render_layers(per_layer: dict[str, float]) -> list[str]:
    return [
        f"     {name:<34}{value:>12.4f} {_UNITS[name]}"
        for name, value in sorted(per_layer.items())
    ]
