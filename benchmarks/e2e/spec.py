"""The benchmark's fixed vocabulary: workloads, metrics, run profiles.

Later issues refer to these names verbatim; ``BENCHMARK.json`` at the
repository root repeats them and ``tests/test_contract.py`` keeps the
two in step.
"""

from __future__ import annotations

from dataclasses import dataclass

#: nodes of ``get_dataset(name).build(seed=0)``; the output check
#: verifies the number against the graph it builds
DATASET_NODES = {"lj": 4800, "dblp": 610}

#: every query carries this deadline budget (seconds)
BUDGET_S = 1.0
SHARDS = 2
WARMUP_S = 3.0
#: how long unanswered requests may take after the last window before
#: they count as failed (the budget, plus slack for the reply)
DRAIN_S = BUDGET_S + 1.0

OPEN, CLOSED = "open", "closed"


@dataclass(frozen=True, slots=True)
class Workload:
    name: str
    loop: str
    #: open loop: Poisson query rate (1/s); closed loop: unused
    lambda_q: float
    #: open-loop Poisson update rate (1/s), on every workload
    lambda_u: float
    #: ``"uniform"`` or ``"zipf"`` (exponent 1.1 over a seeded permutation)
    sources: str
    algorithm: str
    why: str
    #: Seed reorder budget (``--epsilon-r``); 0 = the server default, FCFS
    epsilon_r: float = 0.0
    #: result-cache budget (``--cache-epsilon``); None = no cache
    cache_epsilon: float | None = None
    #: ask for the whole vector (``top_k`` = n) instead of the server default
    whole_vector: bool = False
    #: closed loop: back-to-back client connections
    clients: int = 0

    @property
    def serve_flags(self) -> list[str]:
        """The ``repro serve`` flags that differ from its defaults."""
        flags = ["--algorithm", self.algorithm]
        if self.epsilon_r:
            flags += ["--epsilon-r", str(self.epsilon_r)]
        if self.cache_epsilon is not None:
            flags += ["--cache-epsilon", str(self.cache_epsilon)]
        return flags


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "steady_topk", OPEN, 60.0, 7.5, "uniform", "FORA",
            "Interactive baseline at the paper's query-inclined end "
            "(lambda_u/lambda_q = 1/8): push kernel + walk phase, one pipe "
            "round-trip and one HTTP exchange per query; no cache, FCFS.",
        ),
        Workload(
            "update_heavy", OPEN, 15.0, 60.0, "uniform", "FORA+inc",
            "The same layers used for writes (ratio 4): versioned N-way "
            "broadcast under the manager lock, Seed deferral and forced "
            "flush, incremental walk-index resampling.",
            epsilon_r=0.5,
        ),
        Workload(
            "hot_cached", OPEN, 60.0, 3.0, "zipf", "FORA",
            "Zipf(1.1) sources: most queries hit repro.cache and skip the "
            "kernel, so front-door + fabric fixed overhead is the response; "
            "a kernel optimisation should change nothing here.",
            cache_epsilon=0.1,
        ),
        Workload(
            "bulk_vectors", CLOSED, 0.0, 5.0, "uniform", "FORA",
            "Closed loop, 2 callers fetching whole vectors: result sort, "
            "pickle over the pipe and JSON of ~2k pairs dominate; the "
            "capacity number for offline scorers.",
            whole_vector=True, clients=2,
        ),
    )
}


@dataclass(frozen=True, slots=True)
class Metric:
    name: str
    unit: str
    better: str
    #: relative worsening that counts as a regression (end-to-end only)
    bound: float | None = None


#: gated metrics, as ``run`` prints them; ``bound`` is the relative
#: worsening that counts as a regression.  ``fail_ratio`` is gated on an
#: absolute +0.005; BENCHMARK.json cannot hold a metric that is normally
#: 0, so it carries ``success_ratio`` = 1 - ``fail_ratio`` at the same
#: bound instead and lists ``fail_ratio`` per layer.
END_TO_END = (
    Metric("fail_ratio", "ratio", "lower", 0.005),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("server_rss_mb", "MB", "lower", 0.10),
)
#: what the client timed, median of the windows.  Issue 14 meant these
#: to be gated at 0.10-0.15; on this host the same code reads 20-30 %
#: apart in two ten-seed sweeps taken back to back (README, "Noise"),
#: and a metric that misses its bound is reported, not gated wider.
CLIENT_TIMINGS = (
    Metric("query_p50_ms", "ms", "lower"),
    Metric("query_p95_ms", "ms", "lower"),
    Metric("query_mean_ms", "ms", "lower"),
    Metric("update_ack_p50_ms", "ms", "lower"),
    Metric("goodput_rps", "1/s", "higher"),
)

#: informational metrics, by the run that produces them
CLIENT_METRICS = (
    Metric("client.sched_lag_p99_ms", "ms", "lower"),
    Metric("client.inflight_max", "count", "lower"),
    Metric("http.response_bytes_mean", "B", "lower"),
)
#: printed by runs that hold ten samples beyond it; not in BENCHMARK.json,
#: whose metrics every run must report
QUERY_P99 = Metric("client.query_p99_ms", "ms", "lower")
SCRAPE_METRICS = (
    Metric("api.response_mean_ms", "ms", "lower"),
    Metric("api.shed_ratio", "ratio", "lower"),
    Metric("shard.roundtrip_mean_ms", "ms", "lower"),
    Metric("shard.inflight_high_water", "count", "lower"),
    Metric("shard.shed_inflight", "count", "lower"),
    Metric("shard.faults", "count", "lower"),
    Metric("serving.wait_mean_ms", "ms", "lower"),
    Metric("serving.response_mean_ms", "ms", "lower"),
    Metric("serving.queue_depth_high_water", "count", "lower"),
    Metric("serving.shed", "count", "lower"),
    Metric("serving.timeout", "count", "lower"),
    Metric("seed.flush_mean_ms", "ms", "lower"),
    Metric("seed.flushes", "count", "lower"),
    Metric("seed.pending_updates_mean", "count", "lower"),
    Metric("cache.hit_ratio", "ratio", "higher"),
    Metric("cache.hit_mean_ms", "ms", "lower"),
    Metric("cache.evictions_staleness", "count", "lower"),
    Metric("ppr.query_mean_ms", "ms", "lower"),
    Metric("ppr.update_mean_ms", "ms", "lower"),
)
PROC_METRICS = (
    Metric("proc.frontdoor_cpu_ms_per_op", "ms", "lower"),
    Metric("proc.worker_cpu_ms_per_op", "ms", "lower"),
)
TRACE_METRICS = (
    Metric("http.self_p50_ms", "ms", "lower"),
    Metric("frontdoor.query_self_p50_ms", "ms", "lower"),
    Metric("frontdoor.update_self_p50_ms", "ms", "lower"),
    Metric("shard.ipc_p50_ms", "ms", "lower"),
    Metric("shard.broadcast_p50_ms", "ms", "lower"),
    Metric("trace.nested_ratio", "ratio", "higher"),
)
PROBE_METRICS = (
    Metric("serving.hop_p50_ms", "ms", "lower"),
    Metric("ppr.query_direct_p50_ms", "ms", "lower"),
    Metric("ppr.update_direct_p50_ms", "ms", "lower"),
    Metric("ppr.push_mean_ms", "ms", "lower"),
    Metric("ppr.walk_mean_ms", "ms", "lower"),
    Metric("ppr.index_update_mean_ms", "ms", "lower"),
    Metric("index.walks_resampled_per_update", "count", "lower"),
)
#: everything ``--trace 1`` reports to the driver
PER_LAYER = (
    (Metric("fail_ratio", "ratio", "lower"),)
    + CLIENT_TIMINGS
    + CLIENT_METRICS
    + SCRAPE_METRICS
    + PROC_METRICS
    + TRACE_METRICS
    + PROBE_METRICS
)


@dataclass(frozen=True, slots=True)
class Profile:
    """How long and on what graph one run measures."""

    dataset: str
    windows: int
    window_s: float


#: every end-to-end timing is the median of this many measured windows
WINDOWS = 3
FULL = Profile("lj", WINDOWS, 10.0)
#: the traced run of `trace` and its untraced twin
TRACE = Profile("lj", 1, 10.0)
SMOKE = Profile("dblp", 1, 3.0)
