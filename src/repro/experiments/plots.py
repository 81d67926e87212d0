"""Terminal plots: Unicode sparklines for figure results.

The library deliberately has no plotting dependency; these renderers give
the CLI and examples a readable visual of every reproduced series using
only text.  (`figure_to_csv` exports feed real plotting tools.)
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.experiments.figures import FigureResult

__all__ = ["sparkline", "render_figure_plots"]

_BLOCKS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: Optional[int] = None) -> str:
    """One-line Unicode sparkline of a series.

    ``width`` subsamples (by averaging buckets) to at most that many
    characters; NaNs render as spaces.
    """
    series = np.asarray(list(values), dtype=float)
    if series.size == 0:
        raise ValueError("cannot sparkline an empty series")
    if width is not None:
        if width <= 0:
            raise ValueError(f"width must be positive, got {width}")
        if series.size > width:
            buckets = np.array_split(series, width)
            series = np.array([np.nanmean(b) if np.isfinite(b).any() else np.nan
                               for b in buckets])
    finite = series[np.isfinite(series)]
    if finite.size == 0:
        return " " * series.size
    low, high = float(finite.min()), float(finite.max())
    span = high - low
    chars = []
    for value in series:
        if not np.isfinite(value):
            chars.append(" ")
            continue
        if span == 0.0:
            chars.append(_BLOCKS[0])
        else:
            index = int(round((value - low) / span * (len(_BLOCKS) - 1)))
            chars.append(_BLOCKS[index])
    return "".join(chars)


def render_figure_plots(figure: FigureResult, width: int = 60) -> str:
    """Sparkline summary of every panel of a figure result."""
    chunks: List[str] = [f"== {figure.figure_id}: {figure.title} =="]
    for panel, algorithms in figure.panels.items():
        chunks.append(f"-- {panel} --")
        for name in sorted(algorithms):
            values = algorithms[name]
            finite = [v for v in values if np.isfinite(v)]
            stats = (
                f"min {min(finite):.3g} max {max(finite):.3g}"
                if finite
                else "all NaN"
            )
            chunks.append(
                f"  {name:>12} {sparkline(values, width=width)}  [{stats}]"
            )
    return "\n".join(chunks)
