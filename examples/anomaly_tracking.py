#!/usr/bin/env python3
"""Tracking a node's PPR fingerprint through graph evolution.

PPR-based anomaly tracking (the paper cites subset-node anomaly
tracking [21]) watches how a node's proximity distribution *shifts* as
the graph evolves: a sudden change in who a node is close to is an
anomaly signal (fake-engagement rings, compromised accounts, ...).

This example uses :class:`repro.ppr.tracking.TrackedPPR` — the incrementally
maintained fixed-source estimate with its exact invariant correction —
to follow a monitored account through two phases:

1. organic drift: random edge churn (the fingerprint barely moves),
2. an attack: a burst of edges funneling the monitored account toward
   a small ring of colluding nodes (the fingerprint lurches).

It reports the L1 shift of the tracked PPR vector per step, the
attack alarm, and validates the tracker against a from-scratch
recomputation.  A single-pair probe (``ppr_single_pair``) then
confirms the proximity jump toward the ring leader.

Run:  python examples/anomaly_tracking.py
"""

import numpy as np

from repro.graph.generators import barabasi_albert_graph
from repro.graph.updates import EdgeUpdate
from repro.ppr.base import PPRParams
from repro.ppr.bippr import ppr_single_pair
from repro.ppr.power_iteration import ppr_exact
from repro.ppr.tracking import TrackedPPR

MONITORED = 7
RING = (180, 181, 182, 183, 184)
STEPS_ORGANIC = 15
STEPS_ATTACK = 10
ALARM_THRESHOLD = 0.02  # L1 shift per step


def l1_shift(before: np.ndarray, after: np.ndarray) -> float:
    return float(np.abs(after - before).sum())


def main(seed: int = 0) -> None:
    rng = np.random.default_rng(seed + 33)
    graph = barabasi_albert_graph(200, attach=3, seed=seed + 17)
    params = PPRParams(alpha=0.2, epsilon=0.5, walk_cap=4000)
    tracker = TrackedPPR(
        graph, MONITORED, params, r_max=1e-5, seed=seed
    )
    print(
        f"monitoring account {MONITORED} on a {graph.num_nodes}-node "
        f"network ({graph.num_edges} edges)"
    )

    fingerprint = tracker.estimate().values.copy()
    print("\nphase 1: organic churn")
    for step in range(STEPS_ORGANIC):
        u, v = rng.choice(200, size=2, replace=False)
        tracker.apply_update(EdgeUpdate(int(u), int(v)))
        current = tracker.estimate().values
        shift = l1_shift(fingerprint, current)
        fingerprint = current.copy()
        flag = "  <-- ALARM" if shift > ALARM_THRESHOLD else ""
        if step % 5 == 4 or flag:
            print(f"  step {step + 1:2d}: fingerprint shift {shift:.4f}{flag}")

    print("\nphase 2: collusion burst toward the ring", RING)
    alarms = 0
    for step in range(STEPS_ATTACK):
        ring_node = int(rng.choice(RING))
        tracker.apply_update(EdgeUpdate(MONITORED, ring_node))
        # the ring also densifies internally
        a, b = rng.choice(RING, size=2, replace=False)
        tracker.apply_update(EdgeUpdate(int(a), int(b)))
        current = tracker.estimate().values
        shift = l1_shift(fingerprint, current)
        fingerprint = current.copy()
        flag = "  <-- ALARM" if shift > ALARM_THRESHOLD else ""
        alarms += bool(flag)
        print(f"  step {step + 1:2d}: fingerprint shift {shift:.4f}{flag}")
    print(f"\nalarms during attack: {alarms}/{STEPS_ATTACK}")

    # cross-check: the incrementally tracked estimate still matches a
    # from-scratch exact recomputation on the final graph
    exact = ppr_exact(graph, MONITORED, alpha=params.alpha)
    estimate = tracker.estimate()
    worst = max(abs(estimate[v] - exact[v]) for v in range(200))
    print(
        f"tracker vs exact after {tracker.updates_applied} updates: "
        f"max abs error {worst:.5f} (residual mass "
        f"{tracker.residual_mass():.2e})"
    )

    pair = ppr_single_pair(
        graph, MONITORED, RING[0], params, rng=seed + 1
    )
    print(
        f"single-pair probe pi({MONITORED}, {RING[0]}) = {pair.value:.4f} "
        f"(exact {exact[RING[0]]:.4f}) — elevated proximity to the ring"
    )


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(
        description="PPR anomaly-tracking demo (seeded, reproducible)"
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="base seed offsetting every RNG in the example "
        "(default 0 reproduces the documented output)",
    )
    main(seed=parser.parse_args().seed)
