"""Tests for the repro.obs telemetry layer (registry, spans, tracing)."""

import json
import threading

import pytest

from repro import obs
from repro.obs.registry import DEFAULT_TIME_EDGES, Histogram, MetricsRegistry
from repro.obs.trace import TraceWriter, read_trace, validate_event


class TestHistogram:
    def test_buckets_cover_under_and_overflow(self):
        h = Histogram(edges=(1.0, 10.0))
        for value in [0.5, 1.0, 5.0, 10.0, 50.0]:
            h.observe(value)
        assert h.counts == [1, 2, 2]  # <1 | [1,10) | >=10
        assert h.count == 5
        assert h.total == pytest.approx(66.5)
        assert h.min == 0.5
        assert h.max == 50.0
        assert h.mean == pytest.approx(66.5 / 5)

    def test_edges_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            Histogram(edges=(1.0, 1.0))
        with pytest.raises(ValueError, match="increasing"):
            Histogram(edges=())

    def test_merge_requires_same_edges(self):
        a = Histogram(edges=(1.0,))
        b = Histogram(edges=(2.0,))
        with pytest.raises(ValueError, match="different edges"):
            a.merge(b)

    def test_merge_adds_counts(self):
        a = Histogram(edges=(1.0,))
        b = Histogram(edges=(1.0,))
        a.observe(0.5)
        b.observe(2.0)
        b.observe(3.0)
        a.merge(b)
        assert a.counts == [1, 2]
        assert a.count == 3
        assert a.max == 3.0


class TestMetricsRegistry:
    def test_counters_and_gauges(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.inc("a", 2.5)
        registry.gauge("g", 7.0)
        registry.gauge("g", 9.0)
        assert registry.counter("a") == pytest.approx(3.5)
        assert registry.counter("never") == 0.0
        assert registry.gauges == {"g": 9.0}

    def test_span_records_histogram_and_calls(self):
        registry = MetricsRegistry()
        with registry.span("work"):
            pass
        assert registry.counter("work.calls") == 1
        histogram = registry.histogram("work.seconds")
        assert histogram.count == 1
        assert histogram.edges == DEFAULT_TIME_EDGES
        assert registry.span_names() == ["work"]

    def test_merge_is_additive(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("n", 2)
        b.inc("n", 3)
        b.inc("only-b")
        a.observe("h", 0.5)
        b.observe("h", 5e6)  # overflow bucket
        a.merge(b)
        assert a.counter("n") == 5
        assert a.counter("only-b") == 1
        assert a.histogram("h").count == 2
        assert a.histogram("h").counts[-1] == 1

    def test_snapshot_round_trip(self):
        registry = MetricsRegistry()
        registry.inc("calls", 4)
        registry.gauge("level", 0.25)
        with registry.span("stage"):
            pass
        snapshot = registry.snapshot()
        # Snapshots are JSON-able (what --metrics-out writes).
        restored = MetricsRegistry.from_snapshot(json.loads(json.dumps(snapshot)))
        assert restored.snapshot() == snapshot
        assert restored.counter("calls") == 4
        assert restored.histogram("stage.seconds").count == 1

    def test_table_renders_spans_and_counters(self):
        registry = MetricsRegistry()
        with registry.span("lp.solve"):
            pass
        registry.inc("lp.iterations", 42)
        table = registry.table()
        assert "lp.solve" in table
        assert "lp.iterations" in table
        # .calls counters are folded into the span rows, not repeated.
        assert "lp.solve.calls" not in table


class TestActivation:
    def test_module_helpers_are_noops_when_inactive(self):
        assert obs.active_registry() is None
        obs.inc("ghost")
        obs.observe("ghost", 1.0)
        obs.set_context(slot=3)
        with obs.span("ghost"):
            pass
        assert obs.active_registry() is None

    def test_activate_routes_and_restores(self):
        registry = MetricsRegistry()
        with obs.activate(registry):
            assert obs.active_registry() is registry
            obs.inc("hit")
            with obs.span("scope"):
                pass
        assert obs.active_registry() is None
        assert registry.counter("hit") == 1
        assert registry.counter("scope.calls") == 1

    def test_activations_nest(self):
        outer, inner = MetricsRegistry(), MetricsRegistry()
        with obs.activate(outer):
            with obs.activate(inner):
                obs.inc("x")
            obs.inc("y")
        assert inner.counter("x") == 1 and inner.counter("y") == 0
        assert outer.counter("y") == 1 and outer.counter("x") == 0

    def test_activate_none_is_supported_noop(self):
        with obs.activate(None):
            assert obs.active_registry() is None
            obs.inc("nowhere")

    def test_restored_even_on_error(self):
        registry = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with obs.activate(registry):
                raise RuntimeError("boom")
        assert obs.active_registry() is None

    def test_interleaved_threads_keep_their_own_target(self):
        # A served session's clock thread and a connection both record
        # into the server's registry; the first to enter leaves first.
        registry = MetricsRegistry()
        first_in, second_in, first_out = (threading.Event() for _ in range(3))
        after: dict = {}

        def first() -> None:
            with obs.activate(registry):
                obs.inc("first")
                first_in.set()
                second_in.wait(10)
            first_out.set()

        def second() -> None:
            first_in.wait(10)
            with obs.activate(registry):
                second_in.set()
                first_out.wait(10)
                obs.inc("second")
            after["registry"] = obs.active_registry()

        threads = [threading.Thread(target=f) for f in (first, second)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(20)
        assert registry.counter("first") == 1
        assert registry.counter("second") == 1
        assert after == {"registry": None}
        assert obs.active_registry() is None

    def test_activation_is_invisible_to_other_threads(self):
        registry = MetricsRegistry()
        seen: dict = {}

        def record() -> None:
            seen["registry"] = obs.active_registry()
            obs.inc("elsewhere")

        with obs.activate(registry):
            thread = threading.Thread(target=record)
            thread.start()
            thread.join(20)
        assert seen == {"registry": None}
        assert registry.counter("elsewhere") == 0


class TestTrace:
    def test_writer_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with TraceWriter(path) as writer:
            writer.emit({"type": "span", "name": "a", "seconds": 0.5, "slot": 1})
            writer.emit({"type": "counter", "name": "b", "value": 3})
            writer.emit({"type": "event", "name": "c"})
            assert writer.n_events == 3
        events = read_trace(path)
        assert [e["name"] for e in events] == ["a", "b", "c"]
        assert events[0]["slot"] == 1

    def test_lazy_open_creates_no_file(self, tmp_path):
        path = tmp_path / "never.jsonl"
        with TraceWriter(path):
            pass
        assert not path.exists()

    def test_schema_rejections(self):
        with pytest.raises(ValueError, match="type"):
            validate_event({"name": "x"})
        with pytest.raises(ValueError, match="name"):
            validate_event({"type": "span", "seconds": 0.1})
        with pytest.raises(ValueError, match="seconds"):
            validate_event({"type": "span", "name": "x"})
        with pytest.raises(ValueError, match="value"):
            validate_event({"type": "counter", "name": "x", "value": "high"})
        with pytest.raises(ValueError, match="object"):
            validate_event(["not", "a", "dict"])

    def test_read_rejects_corrupt_lines(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "span", "name": "a", "seconds": 1}\nnot json\n')
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            read_trace(path)

    def test_spans_emit_context_tagged_events(self, tmp_path):
        path = tmp_path / "ctx.jsonl"
        writer = TraceWriter(path)
        registry = MetricsRegistry(trace=writer)
        registry.set_context(slot=7, controller="OL_GD")
        with registry.span("sim.decide"):
            pass
        registry.set_context(slot=None)  # removal
        with registry.span("sim.observe"):
            pass
        writer.close()
        events = read_trace(path)
        assert events[0]["slot"] == 7
        assert events[0]["controller"] == "OL_GD"
        assert "slot" not in events[1]
        # No wall-clock in any event: durations only.
        for event in events:
            assert set(event) <= {"type", "name", "seconds", "slot", "controller"}
