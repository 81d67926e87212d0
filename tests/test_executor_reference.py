"""Differential test against results recorded before the executor merge.

``tests/executor_reference/`` holds outputs written by the tree that
still had five ways to execute a repetition grid:

- ``campaigns/<name>/cells/*/summary.json`` of the shipped
  ``smoke``, ``quickstart`` and ``resilience_study`` campaigns;
- the seed-determined CSV panels of ``repro figure fig3`` and ``fig6``
  at ``--profile quick``: ``delay_ms``, plus ``prediction_mae_mb`` for
  fig6 (``runtime_s`` is wall-clock and left out).

The single executor must reproduce every file byte for byte, in-process
and pooled.  The files holding OL_GD, OL_Reg or OL_GAN results were
re-recorded at ``jobs=1`` when OL_GD's LP began hot-starting from the
previous slot's basis (a degenerate LP can land on another optimal
vertex); every other column is still the pre-merge recording.
"""

import dataclasses
from pathlib import Path

import pytest

from repro.campaigns import cell_directory, load_campaign_toml, run_campaign
from repro.cli import FIGURES
from repro.experiments import QUICK_PROFILE
from repro.experiments.export import figure_to_csv
from repro.sim import RunConfig

ROOT = Path(__file__).resolve().parent
REFERENCE = ROOT / "executor_reference"
EXAMPLES = ROOT.parent / "examples" / "campaigns"

CAMPAIGNS = ("smoke", "quickstart", "resilience_study")
FIGURE_PANELS = {
    "fig3": ("delay_ms",),
    "fig6": ("delay_ms", "prediction_mae_mb"),
}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name", CAMPAIGNS)
def test_campaign_summaries_match_reference(tmp_path, name, jobs):
    spec = load_campaign_toml(EXAMPLES / f"{name}.toml")
    result = run_campaign(spec, tmp_path / name, config=RunConfig(jobs=jobs))
    assert result.complete
    for cell in spec.expand():
        expected = REFERENCE / "campaigns" / name / "cells" / cell.cell_id
        produced = cell_directory(tmp_path / name, cell.cell_id)
        assert (produced / "summary.json").read_bytes() == (
            expected / "summary.json"
        ).read_bytes(), cell.cell_id


def _check_figure(tmp_path, figure_id, jobs):
    profile = dataclasses.replace(QUICK_PROFILE, n_jobs=jobs)
    figure_to_csv(FIGURES[figure_id](profile), tmp_path)
    for panel in FIGURE_PANELS[figure_id]:
        name = f"{figure_id}_{panel}.csv"
        assert (tmp_path / name).read_bytes() == (
            REFERENCE / "figures" / name
        ).read_bytes(), name


@pytest.mark.parametrize("figure_id", sorted(FIGURE_PANELS))
def test_figure_panels_match_reference(tmp_path, figure_id):
    _check_figure(tmp_path, figure_id, jobs=1)


@pytest.mark.slow
@pytest.mark.parametrize("figure_id", sorted(FIGURE_PANELS))
def test_pooled_figure_panels_match_reference(tmp_path, figure_id):
    _check_figure(tmp_path, figure_id, jobs=2)
