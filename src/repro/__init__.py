"""Quota: QoS-aware Personalized PageRank over dynamic graphs.

A from-scratch reproduction of "Personalized PageRanks over Dynamic
Graphs — The Case for Optimizing Quality of Service" (ICDE 2024).

Layout
------
A package exports nothing: each name is imported from the module that
defines it (``from repro.ppr.agenda import Agenda``).

``repro.graph``
    Dynamic directed graph, generators, edge-update streams.
``repro.ppr``
    Base PPR algorithms (FORA/+, SpeedPPR/+, Agenda, ResAcc,
    FORA-TopK, TopPPR) plus push primitives and the exact oracle.
``repro.queueing``
    Arrival processes, workloads, queueing theory, FCFS simulator.
``repro.core``
    The paper's contribution: cost models, tau calibration, Augmented
    Lagrangian optimization, the Quota controller, Seed reordering,
    and the end-to-end QuotaSystem.
``repro.obs``
    Observability: counters, timers, per-operation service-time
    histograms shared by the CSR layer, serving loop and benchmarks.
``repro.baselines``
    Grid / Random / Bayesian hyperparameter search competitors.
``repro.evaluation``
    Dataset recipes, metrics, cost-model fit diagnostics, and report
    formatting used by the ``benchmarks/`` reproduction suite.

Quickstart
----------
>>> from repro.core.calibration import calibrated_cost_model
>>> from repro.core.quota import QuotaController
>>> from repro.core.system import QuotaSystem
>>> from repro.graph.generators import barabasi_albert_graph
>>> from repro.ppr.agenda import Agenda
>>> from repro.ppr.base import PPRParams
>>> from repro.queueing.workload import generate_workload
>>> graph = barabasi_albert_graph(500, attach=3, seed=7)
>>> algorithm = Agenda(graph, PPRParams(walk_cap=2000))
>>> controller = QuotaController(calibrated_cost_model(algorithm, rng=0))
>>> system = QuotaSystem(algorithm, controller)
>>> _ = system.configure_static(lambda_q=10, lambda_u=20)
>>> workload = generate_workload(graph, 10, 20, 5.0, rng=1)
>>> result = system.process(workload)
>>> result.mean_query_response_time() >= 0.0
True
"""

__version__ = "1.0.0"
