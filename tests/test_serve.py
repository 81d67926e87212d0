"""The serving layer's acceptance bar: the slot-clocked decision server.

The headline property (from the PR issue): interrupt a serving session
mid-stream — SIGTERM-style drain-then-checkpoint, with offers already
buffered for the open slot — warm-restart over the snapshot, and the
completed decision trace must be **bit-identical** to an uninterrupted
server fed the same offers.  Around it: ingest-buffer semantics
(arrival-order aggregation, overflow rejection accounting), the
lifecycle state machine (idempotent start/stop, stopped-is-terminal),
and the telemetry contract (every emitted series is in the
``repro.obs.names`` catalogue).
"""

import functools
import sys
import threading

import numpy as np
import pytest

from repro.core import controller_names
from repro.serve import (
    DRAINING,
    NEW,
    RUNNING,
    STOPPED,
    DecisionServer,
    Lifecycle,
    LifecycleError,
    ServeConfig,
    ServeError,
    SlotBuffer,
)
from repro.state import CheckpointError

HORIZON = 10
CUT = 6  # interrupt mid-stream after this many completed slots

# Deliberately tiny world (mirrors tests/test_campaigns.py TINY) so each
# server start is well under a second.
TINY = dict(
    controller="OL_GD",
    seed=11,
    horizon=8,
    n_stations=10,
    n_services=2,
    n_requests=6,
    n_hotspots=3,
)


def tiny_config(**overrides) -> ServeConfig:
    fields = dict(TINY)
    fields.update(overrides)
    return ServeConfig(**fields)


#: The §V predictive controllers forecast demand themselves, so they are
#: served with ``demands_known=False``; OL_GAN runs a tiny GAN.
PREDICTIVE = {"OL_GAN", "OL_Reg"}
GAN_OPTIONS = {"n_hotspots": TINY["n_hotspots"], "window": 3, "hidden_size": 4}


def controller_config(name, **overrides) -> ServeConfig:
    """:func:`tiny_config` serving controller ``name``."""
    return tiny_config(
        controller=name,
        demands_known=name not in PREDICTIVE,
        controller_options=GAN_OPTIONS if name == "OL_GAN" else {},
        **overrides,
    )


def offers_for(slot):
    """Deterministic per-slot offer stream (slot-keyed, so replayable)."""
    rng = np.random.default_rng(1000 + slot)
    return [
        (int(rng.integers(TINY["n_requests"])), float(rng.uniform(0.5, 2.0)))
        for _ in range(1 + slot % 3)
    ]


def drive(server, slots):
    """Offer the slot's demand, close the slot; returns the placements."""
    placements = []
    for slot in slots:
        for request, volume in offers_for(slot):
            assert server.offer(request, volume)
        placements.append(server.decide(slot))
    return placements


def record_lp_solutions(server):
    """Collect the LP x-matrix of every ``decide`` call, in order; None
    for a controller without an LP."""
    solutions = []
    controller = server.controller
    learner = getattr(controller, "inner", controller)
    if not hasattr(learner, "last_fractional"):
        return None
    decide = controller.decide

    def recorded(slot, demands):
        assignment = decide(slot, demands)
        solutions.append(learner.last_fractional.copy())
        return assignment

    controller.decide = recorded
    return solutions


@functools.lru_cache(maxsize=None)
def uninterrupted_serve(name):
    """One uninterrupted server's trace keys and LP solutions."""
    reference = DecisionServer(controller_config(name))
    reference.start()
    solutions = record_lp_solutions(reference)
    placements = drive(reference, range(HORIZON))
    reference.stop()
    return [p.trace_key() for p in placements], solutions


class TestSlotBuffer:
    def test_arrival_order_aggregation(self):
        buffer = SlotBuffer(n_requests=4, limit=8)
        for request, volume in [(0, 1.0), (2, 0.5), (0, 0.25)]:
            assert buffer.offer(request, volume)
        assert buffer.fill == 3
        demand, n_offers, rejected = buffer.roll()
        np.testing.assert_array_equal(demand, [1.25, 0.0, 0.5, 0.0])
        assert (n_offers, rejected) == (3, 0)
        # roll() opens a fresh slot
        assert buffer.fill == 0
        assert buffer.roll()[1] == 0

    def test_overflow_rejected_and_counted(self):
        buffer = SlotBuffer(n_requests=2, limit=2)
        assert buffer.offer(0, 1.0)
        assert buffer.offer(1, 1.0)
        assert not buffer.offer(0, 1.0)
        assert (buffer.offered_total, buffer.rejected_total) == (2, 1)
        _, n_offers, rejected = buffer.roll()
        assert (n_offers, rejected) == (2, 1)
        # the per-slot rejection count resets with the slot
        assert buffer.roll()[2] == 0
        assert buffer.rejected_total == 1

    @pytest.mark.parametrize(
        "request_index, volume",
        [(-1, 1.0), (2, 1.0), (0, 0.0), (0, -1.0), (0, float("nan")), (0, float("inf"))],
    )
    def test_malformed_offers_raise(self, request_index, volume):
        buffer = SlotBuffer(n_requests=2, limit=4)
        with pytest.raises(ValueError):
            buffer.offer(request_index, volume)

    def test_concurrent_admits_report_their_own_fill(self):
        """Each admission's fill comes from its own locked section: under
        contention the accepted offers see every fill 1..limit exactly
        once, and the rejected ones see a full buffer."""
        threads, per_thread, limit = 6, 400, 2000
        buffer = SlotBuffer(n_requests=4, limit=limit)
        results = [[] for _ in range(threads)]

        def worker(out):
            for i in range(per_thread):
                out.append(buffer.admit(i % 4, 1.0))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = [
                threading.Thread(target=worker, args=(out,)) for out in results
            ]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        admitted = [result for out in results for result in out]
        fills = sorted(fill for accepted, fill in admitted if accepted)
        assert fills == list(range(1, limit + 1))
        assert all(fill == limit for accepted, fill in admitted if not accepted)
        assert buffer.offered_total == limit
        assert buffer.rejected_total == threads * per_thread - limit

    def test_pending_state_round_trip(self):
        buffer = SlotBuffer(n_requests=3, limit=4)
        buffer.offer(2, 1.5)
        buffer.offer(0, 0.5)
        requests, volumes = buffer.pending_state()
        restored = SlotBuffer(n_requests=3, limit=4)
        restored.restore_pending(requests, volumes)
        np.testing.assert_array_equal(restored.roll()[0], buffer.roll()[0])

    def test_restore_over_limit_raises(self):
        buffer = SlotBuffer(n_requests=3, limit=2)
        with pytest.raises(ValueError, match="buffer limit"):
            buffer.restore_pending(
                np.array([0, 1, 2]), np.array([1.0, 1.0, 1.0])
            )


class TestLifecycle:
    def test_forward_transitions(self):
        lifecycle = Lifecycle()
        assert lifecycle.state == NEW
        assert lifecycle.to(RUNNING)
        assert not lifecycle.to(RUNNING)  # already there
        assert lifecycle.to(DRAINING)
        assert lifecycle.to(STOPPED)
        assert lifecycle.is_in(STOPPED)

    def test_stopped_is_terminal(self):
        lifecycle = Lifecycle()
        lifecycle.to(STOPPED)
        for state in (NEW, RUNNING, DRAINING):
            with pytest.raises(LifecycleError, match="cannot move"):
                lifecycle.to(state)

    def test_no_backwards_or_unknown_moves(self):
        lifecycle = Lifecycle()
        lifecycle.to(RUNNING)
        with pytest.raises(LifecycleError):
            lifecycle.to(NEW)
        with pytest.raises(LifecycleError, match="unknown"):
            lifecycle.to("paused")

    def test_wait_for(self):
        lifecycle = Lifecycle()
        lifecycle.to(RUNNING)
        assert lifecycle.wait_for(RUNNING, timeout=0.01)
        assert not lifecycle.wait_for(STOPPED, timeout=0.01)


class TestServerLifecycle:
    def test_start_is_idempotent(self):
        server = DecisionServer(tiny_config())
        server.start()
        controller = server.controller
        server.start()
        assert server.controller is controller
        assert server.state == RUNNING
        server.stop()

    def test_stop_is_idempotent_and_terminal(self):
        server = DecisionServer(tiny_config())
        server.start()
        server.stop()
        server.stop()
        assert server.state == STOPPED
        with pytest.raises(ServeError, match="cannot restart"):
            server.start()

    def test_stop_before_start(self):
        server = DecisionServer(tiny_config())
        server.stop()
        assert server.state == STOPPED

    def test_offer_and_decide_require_running(self):
        server = DecisionServer(tiny_config())
        with pytest.raises(ServeError, match="state 'new'"):
            server.offer(0, 1.0)
        with pytest.raises(ServeError, match="state 'new'"):
            server.decide()
        server.start()
        server.stop()
        with pytest.raises(ServeError, match="state 'stopped'"):
            server.offer(0, 1.0)
        with pytest.raises(ServeError, match="state 'stopped'"):
            server.decide()

    def test_slot_mismatch_guard(self):
        server = DecisionServer(tiny_config())
        server.start()
        with pytest.raises(ServeError, match="slot mismatch"):
            server.decide(slot=5)
        server.offer(0, 1.0)
        placement = server.decide(slot=0)
        assert placement.slot == 0
        assert server.slot == 1
        # a stale client retrying the decided slot gets the guard, not a
        # silently re-decided clock
        with pytest.raises(ServeError, match="slot mismatch"):
            server.decide(slot=0)
        server.stop()

    def test_request_shutdown_is_only_a_flag(self):
        server = DecisionServer(tiny_config())
        server.start()
        assert not server.shutdown_requested
        server.request_shutdown()
        assert server.shutdown_requested
        assert server.wait_shutdown(timeout=0.01)
        assert server.state == RUNNING  # the owning loop runs stop()
        server.stop()


class TestServing:
    def test_decide_matches_offers(self):
        server = DecisionServer(tiny_config())
        server.start()
        placements = drive(server, range(4))
        assert [p.slot for p in placements] == [0, 1, 2, 3]
        for slot, placement in enumerate(placements):
            assert placement.n_offers == len(offers_for(slot))
            assert placement.rejected == 0
            assert len(placement.station_of) == TINY["n_requests"]
            assert placement.delay_ms > 0
        # the metric series mirrors the trace, same schema as the engine
        assert server.result.horizon == 4
        np.testing.assert_array_equal(
            server.result.delays_ms, [p.delay_ms for p in placements]
        )
        server.stop()

    def test_overflow_accounting(self):
        server = DecisionServer(tiny_config(buffer_limit=2))
        server.start()
        assert server.offer(0, 1.0)
        assert server.offer(1, 1.0)
        assert not server.offer(2, 1.0)
        status = server.status()
        assert status["buffer_fill"] == 2
        assert status["offered_total"] == 2
        assert status["rejected_total"] == 1
        placement = server.decide()
        assert (placement.n_offers, placement.rejected) == (2, 1)
        assert server.metrics.counter("serve.rejected") == 1
        server.stop()

    def test_empty_slot_decides(self):
        # an idle slot (no offers) is a valid decision — zero demand
        server = DecisionServer(tiny_config())
        server.start()
        placement = server.decide()
        assert (placement.n_offers, placement.rejected) == (0, 0)
        server.stop()

    def test_telemetry_names_stay_in_catalogue(self):
        from repro.obs import unknown_series

        server = DecisionServer(
            tiny_config(buffer_limit=1),
        )
        server.start()
        server.offer(0, 1.0)
        server.offer(1, 1.0)  # rejected: exercises serve.rejected too
        server.decide()
        assert unknown_series(server.metrics) == ()
        assert server.metrics.counter("serve.offers") == 1
        assert server.metrics.counter("serve.slots") == 1
        assert "serve.decide" in server.metrics.span_names()
        server.stop()

    def test_status_is_json_able(self):
        import json

        server = DecisionServer(tiny_config())
        server.start()
        status = server.status()
        assert json.loads(json.dumps(status)) == status
        assert status["state"] == RUNNING
        assert status["controller"] == "OL_GD"
        assert status["checkpoint"] is None
        server.stop()


class TestWarmRestart:
    def test_restart_is_bit_identical(self, tmp_path):
        # reference: one uninterrupted server over the full stream
        reference = DecisionServer(tiny_config())
        reference.start()
        full = drive(reference, range(HORIZON))
        reference.stop()

        config = tiny_config(
            checkpoint_dir=tmp_path, checkpoint_every=4, resume=True
        )
        first = DecisionServer(config)
        first.start()
        drive(first, range(CUT))
        # the open slot's offers are already buffered when the stop lands
        pending = offers_for(CUT)
        for request, volume in pending:
            first.offer(request, volume)
        first.stop()
        assert first.state == STOPPED
        assert config.snapshot_path().exists()

        second = DecisionServer(config)
        second.start()
        assert second.slot == CUT
        assert second.status()["restored_slots"] == CUT
        assert second.status()["buffer_fill"] == len(pending)
        # restored history covers the pre-interruption slots
        assert [p.slot for p in second.placement_history()] == list(range(CUT))
        # close the interrupted slot from its restored offers, then finish
        resumed = [second.decide(CUT)]
        resumed += drive(second, range(CUT + 1, HORIZON))
        trace = list(second.placement_history())
        assert [p.trace_key() for p in trace] == [
            p.trace_key() for p in full
        ]
        # rejection/offer accounting also survives the restart
        assert (
            second.status()["offered_total"]
            == reference.status()["offered_total"]
        )
        assert resumed[0].n_offers == len(pending)
        second.stop()

    @pytest.mark.parametrize(
        "name, cut",
        [
            # OL_GD, the default controller, keeps the bare cut as its id.
            pytest.param(
                name, cut, id=str(cut) if name == "OL_GD" else f"{name}-{cut}"
            )
            for name in controller_names()
            for cut in range(1, HORIZON)
        ],
    )
    def test_restart_at_every_slot_keeps_the_lp_hot_start(
        self, tmp_path, name, cut
    ):
        """A restart at any slot boundary continues every controller
        bit-identically; the LP learners resume from the checkpointed
        basis, so every later x matches the uninterrupted server's (a
        cold restart lands elsewhere in this world)."""
        full, full_solutions = uninterrupted_serve(name)
        config = controller_config(name, checkpoint_dir=tmp_path, resume=True)
        first = DecisionServer(config)
        first.start()
        drive(first, range(cut))
        first.stop()

        second = DecisionServer(config)
        second.start()
        assert second.slot == cut
        solutions = record_lp_solutions(second)
        drive(second, range(cut, HORIZON))
        if solutions is not None:
            assert len(solutions) == HORIZON - cut
            for slot, (x, expected) in enumerate(
                zip(solutions, full_solutions[cut:], strict=True), start=cut
            ):
                np.testing.assert_array_equal(x, expected, err_msg=f"slot {slot}")
        assert [p.trace_key() for p in second.placement_history()] == full
        second.stop()

    def test_periodic_checkpoint_cadence(self, tmp_path):
        config = tiny_config(checkpoint_dir=tmp_path, checkpoint_every=2)
        server = DecisionServer(config)
        server.start()
        path = config.snapshot_path()
        drive(server, range(1))
        assert not path.exists()  # slot 1 of 2: not due yet
        drive(server, range(1, 2))
        assert path.exists()  # cadence hit at slot 2
        assert server.metrics.counter("state.save") == 1
        server.stop()
        # the drain wrote a fresh snapshot on top
        assert server.metrics.counter("state.save") == 2

    def test_resume_refuses_foreign_world(self, tmp_path):
        config = tiny_config(
            checkpoint_dir=tmp_path, checkpoint_every=2, resume=True
        )
        server = DecisionServer(config)
        server.start()
        drive(server, range(2))
        server.stop()

        foreign = DecisionServer(
            tiny_config(
                seed=12, checkpoint_dir=tmp_path, checkpoint_every=2,
                resume=True,
            )
        )
        with pytest.raises(CheckpointError, match="digest mismatch"):
            foreign.start()

    def test_resume_without_snapshot_starts_fresh(self, tmp_path):
        config = tiny_config(checkpoint_dir=tmp_path, resume=True)
        server = DecisionServer(config)
        server.start()
        assert server.slot == 0
        assert server.status()["restored_slots"] == 0
        server.stop()


class TestTickClock:
    def test_automatic_slot_ticks(self):
        server = DecisionServer(tiny_config(tick_interval=0.02))
        server.start()
        deadline = 50
        while server.slot < 2 and deadline:
            server.wait_shutdown(timeout=0.02)
            deadline -= 1
        assert server.slot >= 2
        server.stop()
        assert server.state == STOPPED
