"""Experiment harness: one runner per paper table/figure.

* :mod:`repro.harness.prediction` — the simplified availability-only
  simulator behind the completeness-prediction experiments (Figs. 5-8);
* :mod:`repro.harness.overhead` — packet-level deployment measurements
  (Figs. 9-10);
* :mod:`repro.harness.trace_stats` — trace calibration (Fig. 1, Table 1);
* :mod:`repro.harness.reporting` — plain-text tables and series.
"""

from repro.harness.overhead import OverheadResult, run_overhead_experiment
from repro.harness.prediction import (
    DEFAULT_CHECKPOINTS,
    PredictionOutcome,
    PredictionSimulator,
    sweep_injection_times,
)
from repro.harness.reporting import (
    format_bytes_rate,
    format_series,
    format_table,
    summarize_distribution,
)
from repro.harness.trace_stats import (
    TraceStatistics,
    compute_trace_statistics,
    hourly_availability_curve,
)

__all__ = [
    "DEFAULT_CHECKPOINTS",
    "OverheadResult",
    "PredictionOutcome",
    "PredictionSimulator",
    "TraceStatistics",
    "compute_trace_statistics",
    "format_bytes_rate",
    "format_series",
    "format_table",
    "hourly_availability_curve",
    "run_overhead_experiment",
    "summarize_distribution",
    "sweep_injection_times",
]
