"""Observability: per-thread metrics, scoped timers, JSONL tracing.

Telemetry is **off by default** and costs a near-zero no-op check on the
instrumented hot paths (``benchmarks/bench_obs_overhead.py`` proves the
<5% per-slot budget).  Enable it by activating a registry::

    from repro import obs

    registry = obs.MetricsRegistry(trace=obs.TraceWriter("run.jsonl"))
    with obs.activate(registry):
        result = run_simulation(network, model, controller, horizon=100)
    print(registry.table())

or from the CLI with ``--metrics-out`` / ``--trace`` (see EXPERIMENTS.md).
The trace event schema is documented in :mod:`repro.obs.trace`.
"""

from repro.obs.prometheus import prometheus_name, render_prometheus, unknown_series
from repro.obs.registry import (
    DEFAULT_TIME_EDGES,
    Histogram,
    MetricsRegistry,
    activate,
    active_registry,
    gauge,
    inc,
    observe,
    set_context,
    span,
)
from repro.obs.trace import EVENT_TYPES, TraceWriter, read_trace, validate_event

__all__ = [
    "DEFAULT_TIME_EDGES",
    "Histogram",
    "MetricsRegistry",
    "activate",
    "active_registry",
    "gauge",
    "inc",
    "observe",
    "prometheus_name",
    "render_prometheus",
    "set_context",
    "span",
    "unknown_series",
    "EVENT_TYPES",
    "TraceWriter",
    "read_trace",
    "validate_event",
]
