"""The paper's claims as checkable objects: a reproduction scorecard.

Each :class:`Claim` pairs the paper's statement with a programmatic check
over a regenerated :class:`FigureResult`.  The figure benchmarks print
the scorecard and assert the *hard* claims (those whose failure means the
reproduction is broken); *soft* claims (magnitudes that need the full
profile's averaging) are reported but do not fail a quick run.

>>> from repro.experiments import figure3, QUICK_PROFILE
>>> report = check_figure(figure3(QUICK_PROFILE), QUICK_PROFILE)
>>> print(render_scorecard(report))
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.experiments.config import ExperimentProfile
from repro.experiments.figures import FigureResult

__all__ = ["Claim", "ClaimResult", "check_figure", "render_scorecard"]


@dataclass(frozen=True)
class Claim:
    """One checkable statement from the paper's evaluation."""

    claim_id: str
    figure_id: str
    paper_text: str
    hard: bool  # failure of a hard claim fails the benchmark
    check: Callable[[FigureResult, ExperimentProfile], "ClaimResult"]


@dataclass(frozen=True)
class ClaimResult:
    """Outcome of evaluating a claim on a regenerated figure."""

    claim_id: str
    passed: bool
    hard: bool
    detail: str


def _steady(figure: FigureResult, panel: str, profile: ExperimentProfile) -> Dict[str, float]:
    warmup = max(profile.horizon // 4, 1)
    return {
        name: float(np.nanmean(np.asarray(series)[warmup:]))
        for name, series in figure.panels[panel].items()
    }


# --------------------------------------------------------------------- #
# Per-figure claim definitions
# --------------------------------------------------------------------- #


def _fig3_ordering(figure, profile):
    steady = _steady(figure, "delay_ms", profile)
    ordered = steady["OL_GD"] < steady["Pri_GD"] < steady["Greedy_GD"]
    return ClaimResult(
        "fig3-ordering",
        ordered,
        True,
        f"steady delays: OL_GD {steady['OL_GD']:.2f} / Pri_GD "
        f"{steady['Pri_GD']:.2f} / Greedy_GD {steady['Greedy_GD']:.2f} ms",
    )


def _fig3_fifteen_percent(figure, profile):
    steady = _steady(figure, "delay_ms", profile)
    gap = 100.0 * (steady["Pri_GD"] - steady["OL_GD"]) / steady["Pri_GD"]
    return ClaimResult(
        "fig3-15pct",
        gap >= 10.0,
        False,
        f"OL_GD {gap:.1f}% below Pri_GD (paper: 'at least 15%')",
    )


def _fig3_runtime(figure, profile):
    runtimes = {
        name: float(np.mean(series))
        for name, series in figure.panels["runtime_s"].items()
    }
    modest = runtimes["OL_GD"] < 1.0  # within a 1 s slot budget
    return ClaimResult(
        "fig3-runtime",
        modest and runtimes["OL_GD"] > runtimes["Greedy_GD"],
        True,
        f"per-slot compute: OL_GD {runtimes['OL_GD']*1000:.1f} ms vs "
        f"Greedy_GD {runtimes['Greedy_GD']*1000:.1f} ms",
    )


def _fig4_large_sizes(figure, profile):
    delays = figure.panels["delay_ms"]
    largest = {name: series[-1] for name, series in delays.items()}
    return ClaimResult(
        "fig4-large",
        largest["OL_GD"] < largest["Pri_GD"],
        True,
        f"delay at |BS|={int(figure.x_values[-1])}: "
        + ", ".join(f"{k} {v:.2f}" for k, v in sorted(largest.items())),
    )


def _fig4_runtime_growth(figure, profile):
    runtime = figure.panels["runtime_s"]["OL_GD"]
    return ClaimResult(
        "fig4-runtime-growth",
        runtime[-1] >= runtime[0],
        True,
        f"OL_GD per-slot compute {runtime[0]*1000:.1f} -> "
        f"{runtime[-1]*1000:.1f} ms across the sweep",
    )


def _fig5_ordering(figure, profile):
    steady = _steady(figure, "delay_ms", profile)
    return ClaimResult(
        "fig5-ordering",
        steady["OL_GD"] == min(steady.values()),
        True,
        f"AS1755 steady delays: "
        + ", ".join(f"{k} {v:.2f}" for k, v in sorted(steady.items())),
    )


def _fig6_prediction(figure, profile):
    maes = _steady(figure, "prediction_mae_mb", profile)
    return ClaimResult(
        "fig6-prediction",
        maes["OL_GAN"] < maes["OL_Reg"],
        True,
        f"prediction MAE: OL_GAN {maes['OL_GAN']:.3f} vs OL_Reg "
        f"{maes['OL_Reg']:.3f} MB",
    )


def _fig6_delay(figure, profile):
    steady = _steady(figure, "delay_ms", profile)
    return ClaimResult(
        "fig6-delay",
        steady["OL_GAN"] <= steady["OL_Reg"] * 1.05,
        True,
        f"steady delay: OL_GAN {steady['OL_GAN']:.2f} vs OL_Reg "
        f"{steady['OL_Reg']:.2f} ms (paper: 'much lower'; see EXPERIMENTS.md)",
    )


def _fig7_prediction_sweep(figure, profile):
    maes = figure.panels["prediction_mae_mb"]
    gan = float(np.mean(maes["OL_GAN"]))
    reg = float(np.mean(maes["OL_Reg"]))
    return ClaimResult(
        "fig7-prediction",
        gan < reg,
        True,
        f"sweep-mean MAE: OL_GAN {gan:.3f} vs OL_Reg {reg:.3f} MB",
    )


def _fig7_size_trend(figure, profile):
    delays = figure.panels["delay_ms"]
    no_inversion = all(
        series[-1] <= 1.25 * series[0] for series in delays.values()
    )
    decreasing = all(series[-1] < series[0] for series in delays.values())
    if decreasing:
        trend = "delay decreases with size"
    elif no_inversion:
        trend = "non-inverting (a monotone trend needs full averaging)"
    else:
        trend = "inverts: a delay grows past 1.25x its first size"
    return ClaimResult(
        "fig7-size-trend",
        no_inversion,
        True,
        f"{trend}; first -> last size: "
        + ", ".join(
            f"{name} {series[0]:.2f} -> {series[-1]:.2f} ms "
            f"(x{series[-1] / series[0]:.2f}, limit x1.25)"
            for name, series in sorted(delays.items())
        ),
    )


CLAIMS: List[Claim] = [
    Claim("fig3-ordering", "fig3",
          "OL_GD has the lowest average delay while Greedy_GD has the highest",
          True, _fig3_ordering),
    Claim("fig3-15pct", "fig3",
          "OL_GD has at least 15% lower delay than Pri_GD",
          False, _fig3_fifteen_percent),
    Claim("fig3-runtime", "fig3",
          "OL_GD has only marginally higher running time",
          True, _fig3_runtime),
    Claim("fig4-large", "fig4",
          "OL_GD obtains the lowest delay at larger network sizes",
          True, _fig4_large_sizes),
    Claim("fig4-runtime-growth", "fig4",
          "OL_GD's running time increases faster, the gap stays trivial",
          True, _fig4_runtime_growth),
    Claim("fig5-ordering", "fig5",
          "OL_GD achieves a constant lower delay on AS1755",
          True, _fig5_ordering),
    Claim("fig6-prediction", "fig6",
          "the GAN-based method works very well on small historical data",
          True, _fig6_prediction),
    Claim("fig6-delay", "fig6",
          "OL_GAN has a much lower average delay than OL_Reg",
          True, _fig6_delay),
    Claim("fig7-prediction", "fig7",
          "OL_GAN's advantage holds across network sizes",
          True, _fig7_prediction_sweep),
    Claim("fig7-size-trend", "fig7",
          "average delays decrease with the growth of network sizes",
          True, _fig7_size_trend),
]


def check_figure(
    figure: FigureResult, profile: ExperimentProfile
) -> List[ClaimResult]:
    """Evaluate every registered claim for ``figure.figure_id``."""
    results = [
        claim.check(figure, profile)
        for claim in CLAIMS
        if claim.figure_id == figure.figure_id
    ]
    if not results:
        raise ValueError(f"no claims registered for figure {figure.figure_id!r}")
    return results


def render_scorecard(results: List[ClaimResult]) -> str:
    """Human-readable claim-by-claim verdicts."""
    if not results:
        raise ValueError("empty claim results")
    lines = []
    for result in results:
        verdict = "PASS" if result.passed else ("FAIL" if result.hard else "soft-miss")
        lines.append(f"  [{verdict:>9}] {result.claim_id}: {result.detail}")
    return "\n".join(lines)


def assert_hard_claims(results: List[ClaimResult]) -> None:
    """Raise ``AssertionError`` listing every failed *hard* claim."""
    failed = [r for r in results if r.hard and not r.passed]
    if failed:
        details = "; ".join(f"{r.claim_id} ({r.detail})" for r in failed)
        raise AssertionError(f"hard reproduction claims failed: {details}")
