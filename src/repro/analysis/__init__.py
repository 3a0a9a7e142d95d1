"""Experiment harnesses and result analysis.

* :mod:`repro.analysis.experiments` — drive deployments under load in the
  DES and measure steady-state throughput (fixed-load runs and load
  curves);
* :mod:`repro.analysis.compare` — predicted-vs-measured and
  deployment-vs-deployment comparisons;
* :mod:`repro.analysis.report` — ASCII tables and charts for the
  benchmark harness output.
"""

from repro.analysis.experiments import (
    ExperimentResult,
    LoadCurve,
    measure_load_curve,
    run_fixed_load,
)
from repro.analysis.compare import (
    ComparisonRow,
    compare_deployments,
    predicted_vs_measured,
)
from repro.analysis.report import ascii_chart, ascii_table, render_timeline

__all__ = [
    "ExperimentResult",
    "LoadCurve",
    "run_fixed_load",
    "measure_load_curve",
    "ComparisonRow",
    "compare_deployments",
    "predicted_vs_measured",
    "ascii_table",
    "ascii_chart",
    "render_timeline",
]
