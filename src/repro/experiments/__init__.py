"""Experiment harness: parameter presets and figure regenerators.

One function per evaluation figure of the paper (Figs. 3-7); each returns
a :class:`FigureResult` holding the same series the paper plots, plus a
text rendering used by the benchmark harness and EXPERIMENTS.md.
"""

from repro.experiments.config import ExperimentProfile, FULL_PROFILE, QUICK_PROFILE
from repro.experiments.figures import (
    FigureResult,
    figure3,
    figure4,
    figure5,
    figure6,
    figure7,
)
from repro.experiments.export import figure_to_csv, figure_to_dict, figure_to_json
from repro.experiments.plots import render_figure_plots, sparkline
from repro.experiments.tables import render_series_table

__all__ = [
    "ExperimentProfile",
    "FULL_PROFILE",
    "QUICK_PROFILE",
    "FigureResult",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "render_series_table",
    "figure_to_csv",
    "figure_to_dict",
    "figure_to_json",
    "render_figure_plots",
    "sparkline",
]
