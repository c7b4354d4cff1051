"""Quota core: cost models, calibration, optimization, Seed, system.

The paper's primary contribution.  Typical wiring:

    from repro.core.calibration import calibrated_cost_model
    from repro.core.quota import QuotaController
    from repro.core.system import QuotaSystem
    from repro.ppr.agenda import Agenda

    alg = Agenda(graph)
    model = calibrated_cost_model(alg)             # Step 1 (taus)
    controller = QuotaController(model)            # Steps 2-3
    system = QuotaSystem(alg, controller, epsilon_r=0.5)
    system.configure_static(lambda_q=10, lambda_u=20)
    result = system.process(workload)
    print(result.mean_query_response_time())
"""
