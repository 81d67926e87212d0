"""Prometheus text-format rendering of a :class:`MetricsRegistry`.

The serving layer (:mod:`repro.serve`) exposes live telemetry on a
``/metrics`` endpoint; this module turns a registry snapshot into the
`Prometheus text exposition format
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_ version
0.0.4 using only the stdlib.  Conventions:

* dotted series names become underscore-joined metric names under one
  namespace prefix (``sim.slots`` -> ``repro_sim_slots_total``);
* counters carry the ``_total`` suffix, gauges are exported verbatim,
  and the fixed-edge timing histograms become native Prometheus
  histograms (cumulative ``_bucket{le=...}`` series plus ``_sum`` /
  ``_count``);
* series names are validated against the central catalogue
  (:mod:`repro.obs.names`) — the same source of truth the static
  analysis rules ``OBS002``/``OBS003`` enforce — so a scrape can never
  silently expose a series the catalogue does not know about.
"""

from __future__ import annotations

import re
from typing import List, Tuple

from repro.obs.names import all_series
from repro.obs.registry import Histogram, MetricsRegistry

__all__ = ["render_prometheus", "prometheus_name", "unknown_series"]

_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


def prometheus_name(series: str, *, namespace: str = "repro") -> str:
    """The Prometheus spelling of a dotted ``repro.obs`` series name.

    ``sim.slots`` -> ``repro_sim_slots``; any character outside the
    Prometheus metric-name alphabet collapses to ``_``.
    """
    base = _INVALID_CHARS.sub("_", series)
    return f"{namespace}_{base}" if namespace else base


def unknown_series(registry: MetricsRegistry) -> Tuple[str, ...]:
    """Series in ``registry`` that the central catalogue does not declare.

    Sorted tuple of offending names; empty when every counter, gauge and
    histogram the registry holds appears in
    :func:`repro.obs.names.all_series`.  The serve exporter's tests pin
    this to empty so live telemetry and the ``OBS002``/``OBS003`` static
    rules can never drift apart.
    """
    catalogue = all_series()
    snapshot = registry.snapshot()
    present = (
        set(snapshot["counters"])
        | set(snapshot["gauges"])
        | set(snapshot["histograms"])
    )
    return tuple(sorted(present - catalogue))


def render_prometheus(
    registry: MetricsRegistry,
    *,
    namespace: str = "repro",
    strict: bool = False,
) -> str:
    """Render ``registry`` as a Prometheus text-format payload.

    ``strict=True`` raises :class:`ValueError` when the registry holds a
    series missing from the :mod:`repro.obs.names` catalogue (the
    default keeps rendering permissive so ad-hoc local registries stay
    scrapeable).  The returned string ends with a newline, as the
    exposition format requires.
    """
    if strict:
        unknown = unknown_series(registry)
        if unknown:
            raise ValueError(
                f"series not declared in repro.obs.names: {list(unknown)}"
            )
    lines: List[str] = []
    counters = registry.counters
    for series in sorted(counters):
        name = prometheus_name(series, namespace=namespace)
        lines.append(f"# TYPE {name}_total counter")
        lines.append(f"{name}_total {_format_value(counters[series])}")
    gauges = registry.gauges
    for series in sorted(gauges):
        name = prometheus_name(series, namespace=namespace)
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name} {_format_value(gauges[series])}")
    for series in sorted(registry.snapshot()["histograms"]):
        histogram = registry.histogram(series)
        assert histogram is not None  # snapshot listed it
        lines.extend(
            _render_histogram(
                prometheus_name(series, namespace=namespace), histogram
            )
        )
    return "\n".join(lines) + "\n"


def _render_histogram(name: str, histogram: Histogram) -> List[str]:
    """Cumulative ``_bucket`` series plus ``_sum`` / ``_count``."""
    lines = [f"# TYPE {name} histogram"]
    cumulative = 0
    # counts[0] is the underflow bucket (< edges[0]); Prometheus buckets
    # are upper-bound-inclusive, so it folds into the first le edge.
    for edge, count in zip(histogram.edges, histogram.counts[:-1], strict=True):
        cumulative += count
        lines.append(
            f'{name}_bucket{{le="{_format_value(edge)}"}} {cumulative}'
        )
    cumulative += histogram.counts[-1]
    lines.append(f'{name}_bucket{{le="+Inf"}} {cumulative}')
    lines.append(f"{name}_sum {_format_value(histogram.total)}")
    lines.append(f"{name}_count {histogram.count}")
    return lines


def _format_value(value: float) -> str:
    """Compact numeric rendering: integers without a trailing ``.0``."""
    as_float = float(value)
    if as_float == int(as_float) and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)
