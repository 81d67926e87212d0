"""Tests for the claims scorecard (synthetic figures, no simulations)."""

import dataclasses

import numpy as np
import pytest

from repro.experiments import QUICK_PROFILE
from repro.experiments.claims import (
    CLAIMS,
    assert_hard_claims,
    check_figure,
    render_scorecard,
)
from repro.experiments.figures import FigureResult

TINY = dataclasses.replace(QUICK_PROFILE, horizon=8)


def fig3_like(ol=10.0, pri=13.0, greedy=16.0, ol_runtime=0.05):
    figure = FigureResult("fig3", "t", "slot", list(range(8)))
    for t in range(8):
        figure.add_point("delay_ms", "OL_GD", ol)
        figure.add_point("delay_ms", "Pri_GD", pri)
        figure.add_point("delay_ms", "Greedy_GD", greedy)
        figure.add_point("runtime_s", "OL_GD", ol_runtime)
        figure.add_point("runtime_s", "Pri_GD", 0.001)
        figure.add_point("runtime_s", "Greedy_GD", 0.001)
    return figure


def fig6_like(gan_mae=0.5, reg_mae=0.6, gan_delay=25.0, reg_delay=26.0):
    figure = FigureResult("fig6", "t", "slot", list(range(8)))
    for t in range(8):
        figure.add_point("delay_ms", "OL_GAN", gan_delay)
        figure.add_point("delay_ms", "OL_Reg", reg_delay)
        figure.add_point("runtime_s", "OL_GAN", 0.2)
        figure.add_point("runtime_s", "OL_Reg", 0.1)
        figure.add_point("prediction_mae_mb", "OL_GAN", gan_mae)
        figure.add_point("prediction_mae_mb", "OL_Reg", reg_mae)
    return figure


class TestRegistry:
    def test_every_figure_has_claims(self):
        covered = {claim.figure_id for claim in CLAIMS}
        assert covered == {"fig3", "fig4", "fig5", "fig6", "fig7"}

    def test_claim_ids_unique(self):
        ids = [claim.claim_id for claim in CLAIMS]
        assert len(ids) == len(set(ids))

    def test_unknown_figure_rejected(self):
        figure = FigureResult("fig99", "t", "x", [0.0])
        with pytest.raises(ValueError, match="no claims"):
            check_figure(figure, TINY)


class TestFig3Claims:
    def test_good_figure_passes_all(self):
        results = check_figure(fig3_like(), TINY)
        assert all(r.passed for r in results)
        assert_hard_claims(results)  # no raise

    def test_wrong_ordering_fails_hard(self):
        results = check_figure(fig3_like(ol=20.0), TINY)
        with pytest.raises(AssertionError, match="fig3-ordering"):
            assert_hard_claims(results)

    def test_small_gap_is_soft_miss_only(self):
        # OL_GD wins but by < 10%: the 15% claim soft-misses, ordering holds.
        results = check_figure(fig3_like(ol=12.5, pri=13.0, greedy=14.0), TINY)
        by_id = {r.claim_id: r for r in results}
        assert not by_id["fig3-15pct"].passed
        assert not by_id["fig3-15pct"].hard
        assert_hard_claims(results)  # soft misses never raise

    def test_slow_controller_fails_runtime_claim(self):
        results = check_figure(fig3_like(ol_runtime=2.0), TINY)
        with pytest.raises(AssertionError, match="fig3-runtime"):
            assert_hard_claims(results)


class TestFig6Claims:
    def test_good_figure_passes(self):
        assert_hard_claims(check_figure(fig6_like(), TINY))

    def test_worse_prediction_fails(self):
        results = check_figure(fig6_like(gan_mae=0.7, reg_mae=0.6), TINY)
        with pytest.raises(AssertionError, match="fig6-prediction"):
            assert_hard_claims(results)

    def test_much_worse_delay_fails(self):
        results = check_figure(fig6_like(gan_delay=30.0, reg_delay=26.0), TINY)
        with pytest.raises(AssertionError, match="fig6-delay"):
            assert_hard_claims(results)


def fig7_like(gan_delays, reg_delays):
    sizes = [10, 20, 30][: len(gan_delays)]
    figure = FigureResult("fig7", "sizes", "|BS|", sizes)
    for gan, reg in zip(gan_delays, reg_delays, strict=True):
        figure.add_point("delay_ms", "OL_GAN", gan)
        figure.add_point("delay_ms", "OL_Reg", reg)
        figure.add_point("prediction_mae_mb", "OL_GAN", 0.5)
        figure.add_point("prediction_mae_mb", "OL_Reg", 0.6)
    return figure


class TestFig7Claims:
    def trend(self, figure):
        by_id = {r.claim_id: r for r in check_figure(figure, TINY)}
        return by_id["fig7-size-trend"]

    def test_decreasing_delays_pass(self):
        result = self.trend(fig7_like([30.0, 27.0, 25.0], [32.0, 30.0, 29.0]))
        assert result.passed and result.hard
        assert result.detail.startswith("delay decreases with size")

    def test_inverting_series_fails_and_prints_the_numbers(self):
        result = self.trend(fig7_like([20.0, 24.0, 26.0], [30.0, 29.0, 28.5]))
        assert not result.passed
        assert result.detail.startswith("inverts")
        assert "non-inverting" not in result.detail
        assert "OL_GAN 20.00 -> 26.00 ms (x1.30, limit x1.25)" in result.detail
        assert "OL_Reg 30.00 -> 28.50 ms (x0.95, limit x1.25)" in result.detail
        with pytest.raises(AssertionError, match="fig7-size-trend"):
            assert_hard_claims([result])

    def test_rise_within_the_limit_is_non_inverting(self):
        result = self.trend(fig7_like([20.0, 21.0, 24.0], [30.0, 29.0, 28.0]))
        assert result.passed
        assert result.detail.startswith("non-inverting")
        assert "OL_GAN 20.00 -> 24.00 ms (x1.20, limit x1.25)" in result.detail


class TestScorecard:
    def test_rendering_marks_verdicts(self):
        results = check_figure(fig3_like(ol=12.5, pri=13.0, greedy=14.0), TINY)
        text = render_scorecard(results)
        assert "PASS" in text
        assert "soft-miss" in text

    def test_empty_results_rejected(self):
        with pytest.raises(ValueError):
            render_scorecard([])
