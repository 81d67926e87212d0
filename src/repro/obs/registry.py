"""Metrics: counters, gauges, fixed-bucket histograms, spans, per thread.

The simulator's public timing series (the paper's Fig. 3b/4b/6b curves)
are the ``perf_counter`` columns of each slot record (see
:mod:`repro.sim.step`); this module answers the *next* question — where
inside a slot the time goes (LP patch vs. solve vs. rounding vs. repair
vs. arm updates).  Design constraints:

* **Deterministic keys.**  Metric names are plain dotted strings chosen
  at the instrumentation site; no wall-clock, PIDs or dates ever appear
  in a key, so two runs of the same scenario produce snapshot dictionaries
  with identical key sets (values of timing histograms differ, counters
  do not).
* **Zero-cost when off.**  Telemetry is *disabled by default*: the
  module-level helpers (:func:`span`, :func:`inc`, :func:`observe`)
  read the calling thread's active registry and fall through to shared
  no-op objects, so instrumented hot paths pay a dictionary-free
  constant overhead
  (measured in ``benchmarks/bench_obs_overhead.py`` to be well under the
  5% per-slot budget).
* **Per thread.**  :func:`activate` installs a registry for the calling
  thread only; a thread that never activated one records nothing.
* **Mergeable.**  A registry serialises to a plain-dict
  :meth:`~MetricsRegistry.snapshot` (picklable, JSON-able) and merges
  additively, which is how :func:`repro.sim.parallel.execute_sweeps`'
  pool workers report back to the parent process.

Typical use::

    from repro import obs

    registry = obs.MetricsRegistry()
    with obs.activate(registry):
        run_simulation(...)          # instrumented code records into it
    print(registry.table())
"""

from __future__ import annotations

import bisect
import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

if TYPE_CHECKING:
    from repro.obs.trace import TraceWriter

__all__ = [
    "DEFAULT_TIME_EDGES",
    "Histogram",
    "MetricsRegistry",
    "activate",
    "active_registry",
    "gauge",
    "inc",
    "observe",
    "set_context",
    "span",
]

#: Fixed bucket edges (seconds) for all span-duration histograms: decades
#: from 1 µs to 10 s.  Values below the first edge land in bucket 0,
#: values >= the last edge in the overflow bucket.  Fixed edges keep every
#: snapshot mergeable regardless of which process observed what.
DEFAULT_TIME_EDGES: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0,
)


@dataclass
class Histogram:
    """Counts over fixed bucket edges plus running summary statistics.

    ``counts[i]`` counts observations in ``[edges[i-1], edges[i])`` with
    ``counts[0]`` the underflow (``< edges[0]``) and ``counts[-1]`` the
    overflow (``>= edges[-1]``) bucket — ``len(counts) == len(edges) + 1``.
    """

    edges: Tuple[float, ...]
    counts: List[int] = field(default_factory=list)
    count: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")

    def __post_init__(self) -> None:
        if not self.edges or list(self.edges) != sorted(set(self.edges)):
            raise ValueError(
                f"histogram edges must be strictly increasing, got {self.edges}"
            )
        if not self.counts:
            self.counts = [0] * (len(self.edges) + 1)
        elif len(self.counts) != len(self.edges) + 1:
            raise ValueError(
                f"need {len(self.edges) + 1} buckets for {len(self.edges)} "
                f"edges, got {len(self.counts)}"
            )

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect.bisect_right(self.edges, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "Histogram") -> None:
        if self.edges != other.edges:
            raise ValueError(
                f"cannot merge histograms with different edges: "
                f"{self.edges} vs {other.edges}"
            )
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)


class _Span:
    """Scoped timer: records a duration histogram + call counter on exit."""

    __slots__ = ("_registry", "_name", "_started")

    def __init__(self, registry: "MetricsRegistry", name: str) -> None:
        self._registry = registry
        self._name = name
        self._started = 0.0

    def __enter__(self) -> "_Span":
        self._started = perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._registry.record_span(self._name, perf_counter() - self._started)


class _NullSpan:
    """Shared no-op context manager used when telemetry is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class MetricsRegistry:
    """Process-local store of counters, gauges and histograms.

    Optionally carries a :class:`repro.obs.trace.TraceWriter`; when one is
    attached every completed span additionally emits a JSONL trace event
    tagged with the registry's current context (see :meth:`set_context`).
    """

    def __init__(self, trace: Optional["TraceWriter"] = None) -> None:
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._context: Dict[str, object] = {}
        self.trace = trace

    # ---- recording --------------------------------------------------- #

    def inc(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` to counter ``name`` (created at 0)."""
        self._counters[name] = self._counters.get(name, 0.0) + amount

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to its latest ``value``."""
        self._gauges[name] = float(value)

    def observe(
        self,
        name: str,
        value: float,
        edges: Tuple[float, ...] = DEFAULT_TIME_EDGES,
    ) -> None:
        """Record ``value`` into histogram ``name`` (created on first use)."""
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(edges=tuple(edges))
        histogram.observe(value)

    def span(self, name: str) -> _Span:
        """Scoped timer: ``with registry.span("lp.solve"): ...``.

        On exit it records the duration into histogram ``<name>.seconds``
        and increments counter ``<name>.calls``.
        """
        return _Span(self, name)

    def record_span(self, name: str, seconds: float) -> None:
        """What a completed span records (exposed for manual timing)."""
        self.observe(f"{name}.seconds", seconds)
        self.inc(f"{name}.calls")
        if self.trace is not None:
            event = {"type": "span", "name": name, "seconds": seconds}
            event.update(self._context)
            self.trace.emit(event)

    def set_context(self, **labels: object) -> None:
        """Merge ``labels`` into the context attached to trace events.

        A label set to ``None`` is removed.  Context never leaks into
        metric keys — it only annotates trace events.
        """
        for key, value in labels.items():
            if value is None:
                self._context.pop(key, None)
            else:
                self._context[key] = value

    # ---- reading ----------------------------------------------------- #

    @property
    def counters(self) -> Dict[str, float]:
        return dict(self._counters)

    @property
    def gauges(self) -> Dict[str, float]:
        return dict(self._gauges)

    def counter(self, name: str) -> float:
        """Current value of counter ``name`` (0 when never incremented)."""
        return self._counters.get(name, 0.0)

    def histogram(self, name: str) -> Optional[Histogram]:
        return self._histograms.get(name)

    def span_names(self) -> List[str]:
        """Names that have at least one completed span, sorted."""
        suffix = ".seconds"
        return sorted(
            name[: -len(suffix)]
            for name in self._histograms
            if name.endswith(suffix)
        )

    # ---- merge / serialisation --------------------------------------- #

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other`` into this registry (counters add, gauges take
        the other's latest value, histograms merge bucket-wise)."""
        for name, value in other._counters.items():
            self.inc(name, value)
        self._gauges.update(other._gauges)
        for name, histogram in other._histograms.items():
            mine = self._histograms.get(name)
            if mine is None:
                self._histograms[name] = Histogram(
                    edges=histogram.edges,
                    counts=list(histogram.counts),
                    count=histogram.count,
                    total=histogram.total,
                    min=histogram.min,
                    max=histogram.max,
                )
            else:
                mine.merge(histogram)

    def snapshot(self) -> dict:
        """Plain-dict state: picklable, JSON-able, and round-trippable
        through :meth:`from_snapshot` (how workers report to the parent)."""
        return {
            "counters": dict(self._counters),
            "gauges": dict(self._gauges),
            "histograms": {
                name: {
                    "edges": list(h.edges),
                    "counts": list(h.counts),
                    "count": h.count,
                    "total": h.total,
                    "min": h.min,
                    "max": h.max,
                }
                for name, h in self._histograms.items()
            },
        }

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "MetricsRegistry":
        registry = cls()
        registry._counters = {
            str(k): float(v) for k, v in snapshot.get("counters", {}).items()
        }
        registry._gauges = {
            str(k): float(v) for k, v in snapshot.get("gauges", {}).items()
        }
        for name, h in snapshot.get("histograms", {}).items():
            registry._histograms[str(name)] = Histogram(
                edges=tuple(h["edges"]),
                counts=[int(c) for c in h["counts"]],
                count=int(h["count"]),
                total=float(h["total"]),
                min=float(h["min"]),
                max=float(h["max"]),
            )
        return registry

    def table(self) -> str:
        """Aligned text block: spans (calls, total, mean) then counters."""
        lines = [
            f"{'span':<28} {'calls':>8} {'total [s]':>12} {'mean [ms]':>12}"
        ]
        for name in self.span_names():
            h = self._histograms[f"{name}.seconds"]
            lines.append(
                f"{name:<28} {h.count:>8} {h.total:>12.4f} "
                f"{h.mean * 1e3:>12.4f}"
            )
        plain = {
            name: value
            for name, value in sorted(self._counters.items())
            if not name.endswith(".calls")
        }
        if plain:
            lines.append(f"{'counter':<28} {'value':>8}")
            for name, value in plain.items():
                rendered = f"{int(value)}" if value == int(value) else f"{value:.3f}"
                lines.append(f"{name:<28} {rendered:>8}")
        return "\n".join(lines)


# --------------------------------------------------------------------- #
# Per-thread activation
# --------------------------------------------------------------------- #


class _ThreadState(threading.local):
    """Each thread's active registry; a thread starts with none."""

    registry: Optional[MetricsRegistry] = None


_STATE = _ThreadState()


def active_registry() -> Optional[MetricsRegistry]:
    """The registry this thread's instrumented code records into (or None)."""
    return _STATE.registry


class _Activation:
    """Context manager installing a registry as this thread's target."""

    __slots__ = ("_registry", "_previous")

    def __init__(self, registry: Optional[MetricsRegistry]) -> None:
        self._registry = registry
        self._previous: Optional[MetricsRegistry] = None

    def __enter__(self) -> Optional[MetricsRegistry]:
        self._previous = _STATE.registry
        _STATE.registry = self._registry
        return self._registry

    def __exit__(self, *exc_info: object) -> None:
        _STATE.registry = self._previous


def activate(registry: Optional[MetricsRegistry]) -> _Activation:
    """Install ``registry`` for the dynamic extent of a ``with`` block.

    ``activate(None)`` is a supported no-op (telemetry stays off), which
    lets call sites write ``with activate(maybe_registry):`` unconditionally.
    Activations nest; the previous target is restored on exit.  The
    target is per thread: a thread sees only the registries it activated
    itself, so threads that enter and leave activations in interleaved
    order (a server's clock thread and its connections) cannot restore
    each other's targets.
    """
    return _Activation(registry)


def span(name: str) -> Union[_Span, _NullSpan]:
    """Module-level scoped timer honouring the active registry.

    Returns a shared no-op context manager when telemetry is disabled —
    the fast path instrumentation relies on (one thread-local read, no
    allocation).
    """
    registry = _STATE.registry
    if registry is None:
        return _NULL_SPAN
    return registry.span(name)


def inc(name: str, amount: float = 1.0) -> None:
    """Increment a counter on the active registry (no-op when disabled)."""
    registry = _STATE.registry
    if registry is not None:
        registry.inc(name, amount)


def gauge(name: str, value: float) -> None:
    """Set a gauge on the active registry (no-op when disabled)."""
    registry = _STATE.registry
    if registry is not None:
        registry.gauge(name, value)


def observe(
    name: str, value: float, edges: Tuple[float, ...] = DEFAULT_TIME_EDGES
) -> None:
    """Record into a histogram on the active registry (no-op when disabled)."""
    registry = _STATE.registry
    if registry is not None:
        registry.observe(name, value, edges)


def set_context(**labels: object) -> None:
    """Update the active registry's trace context (no-op when disabled)."""
    registry = _STATE.registry
    if registry is not None:
        registry.set_context(**labels)
