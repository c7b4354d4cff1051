"""Evaluation harness: datasets, metrics, model-fit diagnostics, reports."""
