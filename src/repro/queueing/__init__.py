"""Queueing substrate: arrivals, workloads, theory, and the simulator.

The paper's experiments replay mixed query/update request streams
through an FCFS single-server queue and measure *response time* —
queueing delay plus service time.  This subpackage provides:

* arrival-time processes (Poisson and the Table III alternatives),
* workload generation, including the Figure 4 dynamic rate patterns,
* the queueing-theory formulas of Section IV-A (Eq. 2, Lemma 1),
* one virtual-time discrete-event replay loop (:mod:`~repro.queueing.replay`)
  and its two simulator front ends: strict FCFS and Seed-aware.
"""
