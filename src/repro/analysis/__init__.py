"""Reporting and statistics helpers.

The demo prototype displayed satisfaction and response-time series in
Swing GUIs (Figure 2); this package is the headless equivalent used by
the benches and the CLI:

* :mod:`repro.analysis.stats` -- mean / percentiles / stdev / Gini /
  streaming Welford accumulator;
* :mod:`repro.analysis.tables` -- fixed-width ASCII tables;
* :mod:`repro.analysis.ascii_plot` -- sparklines and multi-series line
  charts rendered with characters;
* :mod:`repro.analysis.export` -- CSV export of series and tables.
"""

from repro.analysis.stats import (
    Welford,
    gini,
    mean,
    median,
    percentile,
    stdev,
    summarize_distribution,
)
from repro.analysis.tables import format_value, render_table
from repro.analysis.ascii_plot import multi_sparkline, render_series, sparkline
from repro.analysis.export import rows_to_csv, series_to_csv
from repro.analysis.prediction import PredictionReport, predict_departures
from repro.analysis.significance import Comparison, welch_t_test

__all__ = [
    "mean",
    "median",
    "percentile",
    "stdev",
    "gini",
    "Welford",
    "summarize_distribution",
    "render_table",
    "format_value",
    "sparkline",
    "multi_sparkline",
    "render_series",
    "rows_to_csv",
    "series_to_csv",
    "PredictionReport",
    "predict_departures",
    "Comparison",
    "welch_t_test",
]
