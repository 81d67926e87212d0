"""The central metric-name catalogue — every series ``repro`` emits.

``repro.obs`` creates a series lazily on first use, which is the right
runtime behaviour (the disabled path stays allocation-free) but means a
typo'd name silently becomes a brand-new series while dashboards keep
reading the stale one.  This module is the single source of truth the
project-scope analysis rules check both directions against:

* ``OBS002`` — every ``obs.inc/gauge/observe/span`` literal used anywhere
  under ``src/repro`` must appear in the matching set below;
* ``OBS003`` — every name below must be emitted by some scanned module.

Keep the sets sorted when editing; the declarations are matched as
string literals by the analyzer (``repro.analysis.project``), so no
computed names here.

Span names double as timing series: ``obs.span("x")`` records the
``x.seconds`` histogram and the ``x.calls`` counter.  Those derived
names are implied by the ``SPANS`` entry and are not declared separately.
"""

from __future__ import annotations

from typing import FrozenSet

__all__ = ["COUNTERS", "GAUGES", "HISTOGRAMS", "SPANS", "all_series"]

#: ``obs.inc(name)`` series.
COUNTERS: FrozenSet[str] = frozenset(
    {
        "campaign.cells_completed",
        "campaign.items_stolen",
        "campaign.units_dispatched",
        "campaign.world_cache_hits",
        "campaign.world_cache_misses",
        "lp.iterations",
        "olgd.arms_played",
        "serve.offers",
        "serve.rejected",
        "serve.slots",
        "sim.retries",
        "sim.slots",
        "state.load",
        "state.save",
    }
)

#: ``obs.gauge(name, value)`` series.
GAUGES: FrozenSet[str] = frozenset(
    {
        "campaign.cells_in_flight",
        "serve.buffer_fill",
    }
)

#: ``obs.observe(name, value)`` series (none today: timing histograms are
#: derived from spans; add direct-histogram names here when they appear).
HISTOGRAMS: FrozenSet[str] = frozenset()

#: ``obs.span(name)`` base names (imply ``<name>.seconds`` / ``<name>.calls``).
SPANS: FrozenSet[str] = frozenset(
    {
        "gan.predict",
        "gan.refine",
        "lp.patch",
        "lp.solve",
        "nn.backward",
        "nn.forward",
        "olgd.arm_update",
        "olgd.candidates",
        "olgd.repair",
        "olgd.sample",
        "serve.decide",
        "sim.decide",
        "sim.evaluate",
        "sim.observe",
        "sim.optimal",
        "state.load",
        "state.save",
    }
)


def all_series() -> FrozenSet[str]:
    """Every concrete series name the catalogue implies.

    Expands the span base names into the derived ``<name>.seconds``
    histogram and ``<name>.calls`` counter a completed span records, and
    unions them with the directly-declared counters/gauges/histograms.
    This is the reference set exporters validate live registries against
    (see :func:`repro.obs.prometheus.unknown_series`).
    """
    derived = {f"{name}.seconds" for name in SPANS}
    derived |= {f"{name}.calls" for name in SPANS}
    return frozenset(COUNTERS | GAUGES | HISTOGRAMS | derived)
