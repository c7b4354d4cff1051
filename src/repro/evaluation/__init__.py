"""Evaluation harness: datasets, experiment runner, metrics, reports."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.evaluation.datasets import DATASETS, DatasetSpec, get_dataset
    from repro.evaluation.metrics import (
        AccuracySummary,
        ResponseTimeSummary,
        improvement_percent,
        precision_at_k,
    )
    from repro.evaluation.report import (
        ascii_histogram,
        banner,
        format_series,
        format_table,
        sparkline,
    )
    from repro.evaluation.runner import (
        ExperimentConfig,
        ExperimentOutcome,
        build_algorithm,
        run_experiment,
    )
    from repro.evaluation.validation import FitPoint, FitReport, model_fit_report

__all__ = [
    "DATASETS",
    "AccuracySummary",
    "DatasetSpec",
    "ExperimentConfig",
    "ExperimentOutcome",
    "FitPoint",
    "FitReport",
    "ResponseTimeSummary",
    "ascii_histogram",
    "banner",
    "build_algorithm",
    "format_series",
    "format_table",
    "get_dataset",
    "improvement_percent",
    "precision_at_k",
    "model_fit_report",
    "run_experiment",
    "sparkline",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "datasets": ["DATASETS", "DatasetSpec", "get_dataset"],
        "metrics": [
            "AccuracySummary",
            "ResponseTimeSummary",
            "improvement_percent",
            "precision_at_k",
        ],
        "report": [
            "ascii_histogram",
            "banner",
            "format_series",
            "format_table",
            "sparkline",
        ],
        "runner": [
            "ExperimentConfig",
            "ExperimentOutcome",
            "build_algorithm",
            "run_experiment",
        ],
        "validation": ["FitPoint", "FitReport", "model_fit_report"],
    },
)
