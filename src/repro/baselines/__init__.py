"""Hyperparameter-search baselines (Table IV competitors of Quota).

Grid Search, Random Search, and Bayesian Optimization all share the
defining weakness the paper highlights: they must *evaluate* each
candidate configuration by actually running the PPR system and
measuring response time, so their cost is many full workload replays —
versus Quota's closed-form model solve.
"""
