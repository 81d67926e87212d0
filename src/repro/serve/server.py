"""The long-running decision server: slot-clocked online caching control.

:class:`DecisionServer` runs one registry-constructed controller through
the same per-slot step as :func:`repro.sim.run_simulation`
(:class:`repro.sim.step.SlotStepper`: decide, evaluate, observe,
record), with demand arriving *over the wire* instead of from a
simulated demand model:

1. clients ``offer`` demand for the open slot (bounded buffer, overflow
   rejected and counted);
2. ``decide`` closes the slot: the buffered offers aggregate into a
   demand vector (:meth:`~repro.serve.ingest.SlotBuffer.roll`), the
   stepper runs the slot on it, and the result goes back to the client
   as a :class:`Placement`;
3. every ``checkpoint_every`` completed slots the whole server state
   (the stepper's state, the ingest buffer, the decision trace)
   snapshots through :mod:`repro.state`; a server constructed with
   ``resume=True`` warm-restarts from the snapshot and continues
   **bit-identically** — the delay processes are slot-keyed
   counter-based draws and the controller's RNG bit-state rides in its
   ``state_dict``, so the reconstructed decision trace equals an
   uninterrupted run's.

Fed the demand model's own demands as offers, a server records exactly
the series an offline run of the same world records (timing columns
excepted); ``tests/test_serve_parity.py`` pins this.

Thread model: offers may arrive from any number of protocol threads
(:class:`~repro.serve.ingest.SlotBuffer` is internally locked); slot
ticks and checkpoints serialise on one server lock.  Shutdown drains —
new offers are rejected, the in-flight tick finishes, the open slot's
pending offers are checkpointed — within the config's bounded
``shutdown_timeout``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.campaigns.scenario import CampaignScenario
from repro.core.assignment import Assignment
from repro.serve.config import ServeConfig
from repro.serve.ingest import SlotBuffer
from repro.serve.lifecycle import (
    DRAINING,
    NEW,
    RUNNING,
    STOPPED,
    Lifecycle,
    LifecycleError,
)
from repro.sim.metrics import SimulationResult, SlotRecord
from repro.sim.step import SlotStepper
from repro.state import (
    SERVE_KIND,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from repro.utils.seeding import RngRegistry

__all__ = ["DecisionServer", "Placement", "ServeError"]


class ServeError(RuntimeError):
    """A serving-layer operation failed (bad slot, wrong state, timeout)."""


@dataclass(frozen=True)
class Placement:
    """One slot's decision: where every request is served, what is cached.

    The wire-facing result of ``decide`` — everything a client needs to
    route traffic for the slot, plus the evaluation the telemetry layer
    records.  ``decision_seconds`` is wall-clock and therefore excluded
    from trace-identity comparisons (exactly like the simulation
    engine's timing columns).
    """

    slot: int
    station_of: Tuple[int, ...]
    cached: Tuple[Tuple[int, int], ...]
    delay_ms: float
    n_offers: int
    rejected: int
    decision_seconds: float

    @classmethod
    def of(
        cls,
        assignment: Assignment,
        record: SlotRecord,
        n_offers: int,
        rejected: int,
    ) -> "Placement":
        """The placement of a stepped slot: its assignment and record."""
        return cls(
            slot=record.slot,
            station_of=tuple(int(s) for s in assignment.station_of),
            cached=tuple(assignment.cached),
            delay_ms=float(record.average_delay_ms),
            n_offers=n_offers,
            rejected=rejected,
            decision_seconds=record.decision_seconds,
        )

    def to_json(self) -> Dict[str, Any]:
        """Plain-dict form for the JSON protocol."""
        return {
            "slot": self.slot,
            "station_of": list(self.station_of),
            "cached": [list(pair) for pair in self.cached],
            "delay_ms": self.delay_ms,
            "n_offers": self.n_offers,
            "rejected": self.rejected,
            "decision_seconds": self.decision_seconds,
        }

    def trace_key(self) -> Tuple[Any, ...]:
        """The deterministic fields (what warm-restart tests compare)."""
        return (
            self.slot,
            self.station_of,
            self.cached,
            self.delay_ms,
            self.n_offers,
            self.rejected,
        )


class DecisionServer:
    """A controller served as a long-running, checkpointed process.

    Construction is cheap; :meth:`start` builds the world (topology,
    requests, controller — all through the registries) and, when the
    config says so, warm-restarts from an existing snapshot.  ``start``
    and ``stop`` are idempotent; a stopped server stays stopped.
    """

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.lifecycle = Lifecycle()
        self._lock = threading.RLock()
        self._shutdown = threading.Event()
        self._clock: Optional[threading.Thread] = None
        self._metrics: Optional[obs.MetricsRegistry] = None
        self._buffer: Optional[SlotBuffer] = None
        self._slot = 0
        self._placements: List[Placement] = []
        self._restored_slots = 0

    # ---- lifecycle ---------------------------------------------------- #

    @property
    def state(self) -> str:
        """Current lifecycle state (``new``/``running``/``draining``/``stopped``)."""
        return self.lifecycle.state

    @property
    def slot(self) -> int:
        """The open slot index (number of completed slots)."""
        return self._slot

    @property
    def metrics(self) -> obs.MetricsRegistry:
        """The registry serving telemetry records into (created on start)."""
        if self._metrics is None:
            raise ServeError("server not started; no metrics registry yet")
        return self._metrics

    def start(self) -> None:
        """Build the world and begin serving; no-op when already running.

        With ``config.resume=True`` and an existing snapshot, the server
        warm-restarts: controller state (including RNG bit-state), the
        decision trace, the rejection accounting and the interrupted
        slot's pending offers are all restored, so the continuation is
        bit-identical to never having stopped.
        """
        with self._lock:
            if self.lifecycle.is_in(RUNNING):
                return
            if self.lifecycle.is_in(DRAINING, STOPPED):
                raise ServeError(
                    "cannot restart a stopped server; construct a new "
                    "DecisionServer (resume=True warm-restarts from the "
                    "checkpoint)"
                )
            config = self.config
            rngs = RngRegistry(seed=config.seed).child("serve")
            scenario = CampaignScenario(config.scenario_spec())
            network, demand_model, controllers = scenario(rngs)
            self.network = network
            self.demand_model = demand_model
            self.controller = controllers[0]
            self.requests = self.controller.requests
            self._stepper = SlotStepper(network, self.controller)
            self._buffer = SlotBuffer(
                n_requests=len(self.requests), limit=config.buffer_limit
            )
            self._metrics = obs.active_registry() or obs.MetricsRegistry()
            snapshot = config.snapshot_path()
            if config.resume and snapshot is not None and snapshot.exists():
                self._restore(snapshot)
            self.lifecycle.to(RUNNING)
            if config.tick_interval is not None:
                self._clock = threading.Thread(
                    target=self._clock_loop, name="serve-clock", daemon=True
                )
                self._clock.start()

    def request_shutdown(self) -> None:
        """Flag the server for shutdown (safe to call from signal handlers).

        Only sets an event — the owning loop (``repro.serve.serve`` or a
        test harness) observes it and runs the actual drain via
        :meth:`stop`, which must not happen inside a signal handler.
        """
        self._shutdown.set()

    @property
    def shutdown_requested(self) -> bool:
        """Whether :meth:`request_shutdown` has been called."""
        return self._shutdown.is_set()

    def wait_shutdown(self, timeout: Optional[float] = None) -> bool:
        """Block until shutdown is requested (or ``timeout`` elapses)."""
        return self._shutdown.wait(timeout)

    def stop(self, *, timeout: Optional[float] = None) -> None:
        """Drain, checkpoint, stop; idempotent, bounded by ``timeout``.

        The drain sequence: move to ``draining`` (new offers are now
        refused), stop the slot clock, wait for any in-flight tick to
        finish (bounded), snapshot the full server state — including the
        open slot's pending offers — and move to ``stopped``.  A timeout
        raises :class:`ServeError` after forcing the terminal state
        (without a checkpoint: a torn snapshot would be worse).
        """
        budget = timeout if timeout is not None else self.config.shutdown_timeout
        if self.lifecycle.is_in(STOPPED):
            return
        if self.lifecycle.is_in(NEW):
            self.lifecycle.to(STOPPED)
            return
        try:
            self.lifecycle.to(DRAINING)
        except LifecycleError:
            # Lost the race against a concurrent stop(); it owns the drain.
            self.lifecycle.wait_for(STOPPED, timeout=budget)
            return
        self._shutdown.set()
        clock = self._clock
        if clock is not None:
            clock.join(timeout=budget)
        acquired = self._lock.acquire(timeout=budget)
        if not acquired:
            self.lifecycle.to(STOPPED)
            raise ServeError(
                f"shutdown timed out after {budget:.1f}s waiting for the "
                "in-flight slot; stopped WITHOUT writing a checkpoint"
            )
        try:
            self.write_checkpoint()
        finally:
            self._lock.release()
            self.lifecycle.to(STOPPED)

    # ---- serving ------------------------------------------------------ #

    def offer(self, request: int, volume_mb: float) -> bool:
        """Ingest one offer for the open slot; False when rejected (full).

        Raises :class:`ServeError` outside the ``running`` state and
        :class:`ValueError` on malformed offers (see
        :meth:`repro.serve.ingest.SlotBuffer.offer`).
        """
        return self.admit(request, volume_mb)[0]

    def admit(self, request: int, volume_mb: float) -> Tuple[bool, int]:
        """:meth:`offer`, plus the buffer fill it left: ``(accepted, fill)``.

        The fill comes from the same locked section of the buffer as the
        admission, so the ``serve.buffer_fill`` gauge and the protocol's
        reply report it without locking the buffer again.
        """
        buffer = self._buffer
        if buffer is None or not self.lifecycle.is_in(RUNNING):
            raise ServeError(
                f"cannot ingest offers in state {self.lifecycle.state!r}"
            )
        accepted, fill = buffer.admit(request, volume_mb)
        with obs.activate(self._metrics):
            if accepted:
                obs.inc("serve.offers")
            else:
                obs.inc("serve.rejected")
            obs.gauge("serve.buffer_fill", fill)
        return accepted, fill

    def decide(self, slot: Optional[int] = None) -> Placement:
        """Close the open slot and return its placement decision.

        ``slot`` (optional) asserts the caller's idea of the clock: a
        mismatch raises :class:`ServeError` instead of silently deciding
        a different slot — the guard that makes the wire protocol safe
        to retry.
        """
        with self._lock:
            if not self.lifecycle.is_in(RUNNING):
                raise ServeError(
                    f"cannot decide in state {self.lifecycle.state!r}"
                )
            buffer = self._buffer
            assert buffer is not None  # set by start()
            if slot is not None and int(slot) != self._slot:
                raise ServeError(
                    f"slot mismatch: server clock is at {self._slot}, "
                    f"caller asked for {int(slot)}"
                )
            with obs.activate(self._metrics), obs.span("serve.decide"):
                demands, n_offers, rejected = buffer.roll()
                assignment, record = self._stepper.step(
                    self._slot, demands, self.config.demands_known
                )
                placement = Placement.of(assignment, record, n_offers, rejected)
                self._placements.append(placement)
                self._slot += 1
                obs.inc("serve.slots")
                obs.gauge("serve.buffer_fill", 0)
            every = self.config.checkpoint_every
            if every is not None and self._slot % every == 0:
                self.write_checkpoint()
        return placement

    def placement_history(self) -> Tuple[Placement, ...]:
        """Every placement decided so far, oldest first.

        After a warm restart this includes the placements reconstructed
        from the snapshot, so the full trace is comparable against an
        uninterrupted run's.
        """
        return tuple(self._placements)

    @property
    def result(self) -> SimulationResult:
        """The per-slot metric series (same schema as the simulation engine's)."""
        return self._stepper.result

    @property
    def buffer_fill(self) -> int:
        """Offers pending for the open slot (0 before :meth:`start`)."""
        buffer = self._buffer
        return buffer.fill if buffer is not None else 0

    def status(self) -> Dict[str, Any]:
        """A JSON-able operational summary (the protocol's ``status`` op)."""
        buffer = self._buffer
        return {
            "state": self.lifecycle.state,
            "controller": self.config.controller,
            "slot": self._slot,
            "buffer_fill": self.buffer_fill,
            "buffer_limit": self.config.buffer_limit,
            "offered_total": buffer.offered_total if buffer is not None else 0,
            "rejected_total": buffer.rejected_total if buffer is not None else 0,
            "restored_slots": self._restored_slots,
            "checkpoint": (
                str(self.config.snapshot_path())
                if self.config.checkpoint_dir is not None
                else None
            ),
        }

    # ---- checkpointing ------------------------------------------------ #

    def write_checkpoint(self) -> Optional[Path]:
        """Snapshot the full server state; None without a checkpoint dir.

        The snapshot carries everything a bit-identical continuation
        needs: controller state (with RNG bit-state), the decision trace
        (stations per slot, offer/rejection counts, the metric series),
        the previous slot's assignment (churn is measured between
        slots), and the open slot's pending offers in arrival order.
        """
        path = self.config.snapshot_path()
        if path is None:
            return None
        buffer = self._buffer
        if buffer is None:
            raise ServeError("server not started; nothing to checkpoint")
        with self._lock:
            pending_requests, pending_volumes = buffer.pending_state()
            stations = (
                np.stack([p.station_of for p in self._placements])
                if self._placements
                else np.zeros((0, len(self.requests)), dtype=np.int64)
            ).astype(np.int64)
            state = self._stepper.state_dict()
            del state["oracle"]  # a server computes no clairvoyant optimum
            state.update({
                "slot": np.int64(self._slot),
                "stations": stations,
                "slot_offers": np.array(
                    [p.n_offers for p in self._placements], dtype=np.int64
                ),
                "slot_rejected": np.array(
                    [p.rejected for p in self._placements], dtype=np.int64
                ),
                "pending_requests": pending_requests,
                "pending_volumes": pending_volumes,
                "offered_total": np.int64(buffer.offered_total),
                "rejected_total": np.int64(buffer.rejected_total),
            })
            with obs.activate(self._metrics):
                with obs.span("state.save"):
                    save_checkpoint(
                        path,
                        state,
                        kind=SERVE_KIND,
                        meta={
                            "controller": self.controller.name,
                            "slots": self._slot,
                            "scenario_digest": self.config.scenario_digest(),
                        },
                    )
                obs.inc("state.save")
        return path

    def _restore(self, path: Path) -> None:
        """Warm restart: reload a snapshot into the freshly-built world."""
        with obs.activate(self._metrics):
            with obs.span("state.load"):
                state, meta = load_checkpoint(path, kind=SERVE_KIND)
            obs.inc("state.load")
        digest = self.config.scenario_digest()
        if meta.get("scenario_digest") != digest:
            raise CheckpointError(
                f"{path} was written by a server with a different world "
                f"(scenario digest mismatch); refusing to warm-restart"
            )
        self._stepper.load_state_dict(state)
        self._slot = int(state["slot"])
        self._restored_slots = self._slot
        stations = np.asarray(state["stations"], dtype=np.int64)
        slot_offers = np.asarray(state["slot_offers"], dtype=np.int64)
        slot_rejected = np.asarray(state["slot_rejected"], dtype=np.int64)
        self._placements = [
            Placement.of(
                Assignment.from_stations(stations[index], self.requests),
                record,
                int(slot_offers[index]),
                int(slot_rejected[index]),
            )
            for index, record in enumerate(self._stepper.result.records)
        ]
        buffer = self._buffer
        assert buffer is not None  # set by start() before _restore
        buffer.restore_pending(
            np.asarray(state["pending_requests"], dtype=np.int64),
            np.asarray(state["pending_volumes"], dtype=np.float64),
        )
        buffer.offered_total = int(state["offered_total"])
        buffer.rejected_total = int(state["rejected_total"])

    # ---- slot clock ---------------------------------------------------- #

    def _clock_loop(self) -> None:
        """Automatic slot ticks every ``tick_interval`` seconds."""
        interval = self.config.tick_interval
        assert interval is not None  # thread only started when set
        while not self._shutdown.wait(interval):
            if not self.lifecycle.is_in(RUNNING):
                return
            try:
                self.decide()
            except ServeError:
                return
