"""Experiment harness: configs, runners, the check library and the acceptance suite.

The command-line front end lives in accelflow.harness.cli and is not
imported here, so `python -m accelflow.harness.cli` runs it cleanly.
"""

from .acceptance import CHECKS, DEFAULT_SUITE_SEED, acceptance_suite
from .config import (
    CONFIG_FIELDS,
    FLOW_FAMILIES,
    METHOD_KEYS,
    OPTIMIZE_ALGORITHMS,
    ExperimentConfig,
    config_from,
    load_config,
)
from .experiments import run_experiment
from .reporting import (
    EXPERIMENT_KINDS,
    SUMMARY_SCHEMA,
    CheckResult,
    ReportSummary,
    log_gap_columns,
    validate_summary,
    write_plot_data,
)

__all__ = [
    "CHECKS",
    "CONFIG_FIELDS",
    "DEFAULT_SUITE_SEED",
    "EXPERIMENT_KINDS",
    "FLOW_FAMILIES",
    "METHOD_KEYS",
    "OPTIMIZE_ALGORITHMS",
    "SUMMARY_SCHEMA",
    "CheckResult",
    "ExperimentConfig",
    "ReportSummary",
    "acceptance_suite",
    "config_from",
    "load_config",
    "log_gap_columns",
    "run_experiment",
    "validate_summary",
    "write_plot_data",
]
