"""One slot of the paper's per-slot cycle (Algorithms 1-2), shared by the
offline simulation loop and the decision server.

:meth:`SlotStepper.step` runs one slot given that slot's realised demand
vector:

1. the controller decides (timed: the running-time series of the
   paper's (b) sub-figures), seeing the true demands only in the
   given-demands setting;
2. the delay process realises `d_i(t)` and the assignment's cost is
   evaluated (extended Eq. 3, see :mod:`repro.core.assignment`);
3. the controller observes the realised demands and the delays of the
   stations it played (timed as well);
4. optionally, the clairvoyant optimum of the slot is computed for regret
   by a :class:`~repro.core.optimal.ClairvoyantOracle`, hot-started from
   the previous slot's LP basis;
5. prediction error, station loads, churn against the previous slot and
   cold-start instantiations complete the slot's
   :class:`~repro.sim.metrics.SlotRecord`.

Where the demands come from is the caller's business:
:func:`repro.sim.run_simulation` realises them from a demand model,
:class:`repro.serve.DecisionServer` aggregates them from offers.  Each
phase runs in a :mod:`repro.obs` span (``sim.decide``, ``sim.evaluate``,
``sim.observe``, ``sim.optimal``); with telemetry off these are shared
no-ops.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro import obs
from repro.core.assignment import Assignment, SlotEvaluator
from repro.core.controller import Controller
from repro.core.optimal import ClairvoyantOracle
from repro.mec.network import MECNetwork
from repro.sim.metrics import SimulationResult, SlotRecord
from repro.state import CheckpointError

__all__ = ["SlotStepper"]


class SlotStepper:
    """Runs ``controller`` one slot at a time and records each slot.

    Holds what carries over between slots: the controller, one
    :class:`~repro.core.assignment.SlotEvaluator`, the previous slot's
    assignment (churn is measured between slots), the optional oracle
    and the growing :class:`~repro.sim.metrics.SimulationResult`.
    """

    def __init__(
        self,
        network: MECNetwork,
        controller: Controller,
        oracle: Optional[ClairvoyantOracle] = None,
    ) -> None:
        self.network = network
        self.controller = controller
        self.oracle = oracle
        self.evaluator = SlotEvaluator(network, controller.requests)
        self.previous: Optional[Assignment] = None
        self.result = SimulationResult(controller_name=controller.name)

    def step(
        self, slot: int, demands: np.ndarray, demands_known: bool
    ) -> Tuple[Assignment, SlotRecord]:
        """Decide, evaluate and observe ``slot``; append and return its record.

        ``demands_known`` selects the §IV setting (``demands`` passed to
        ``decide``) versus the §V setting (the controller predicts them).
        """
        controller = self.controller
        evaluator = self.evaluator
        with obs.span("sim.decide"):
            started = perf_counter()
            assignment = controller.decide(
                slot, demands if demands_known else None
            )
            decision_seconds = perf_counter() - started

        with obs.span("sim.evaluate"):
            unit_delays = self.network.delays.sample(slot)
            delay_ms = evaluator.evaluate(assignment, demands, unit_delays)

        prediction_mae: Optional[float] = None
        last_prediction = getattr(controller, "last_prediction", None)
        if not demands_known and last_prediction is not None:
            prediction_mae = float(np.mean(np.abs(last_prediction - demands)))

        with obs.span("sim.observe"):
            started = perf_counter()
            controller.observe(slot, demands, unit_delays, assignment)
            observe_seconds = perf_counter() - started

        # The clairvoyant optimum reads nothing observe writes; it runs
        # after the controller's own decide -> evaluate -> observe step.
        optimal_ms: Optional[float] = None
        if self.oracle is not None:
            with obs.span("sim.optimal"):
                optimal_ms = self.oracle.cost(demands, unit_delays)

        loads = evaluator.loads_mhz(assignment, demands)
        previous = self.previous
        n_cached = len(assignment.cached)
        record = SlotRecord(
            slot=slot,
            average_delay_ms=delay_ms,
            decision_seconds=decision_seconds,
            observe_seconds=observe_seconds,
            # Churn is change *between* slots; slot 0's cold-start
            # placement is accounted separately so total_churn does not
            # absorb it.
            cache_churn=assignment.cache_churn(previous) if previous is not None else 0,
            n_cached_instances=n_cached,
            max_load_fraction=float(np.max(loads / evaluator.capacities_mhz)),
            optimal_delay_ms=optimal_ms,
            prediction_mae_mb=prediction_mae,
            initial_instantiations=n_cached if previous is None else 0,
        )
        self.result.append(record)
        self.previous = assignment
        return assignment, record

    def state_dict(self) -> Dict[str, Any]:
        """Everything a continuation needs to step on bit-identically.

        The controller (with its RNG bit-state), the record series, the
        previous slot's stations (``-1`` before the first slot) and the
        oracle's LP basis (``None`` without an oracle).
        """
        previous = self.previous
        n_requests = len(self.controller.requests)
        return {
            "controller_name": self.controller.name,
            "controller": self.controller.state_dict(),
            "result": self.result.state_dict(),
            "previous_stations": (
                np.full(n_requests, -1, dtype=np.int64)
                if previous is None
                else np.asarray(previous.station_of, dtype=np.int64)
            ),
            "oracle": None if self.oracle is None else self.oracle.state_dict(),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore :meth:`state_dict` output (``oracle`` may be absent
        when this stepper has none)."""
        controller = self.controller
        if state["controller_name"] != controller.name:
            raise CheckpointError(
                f"the snapshot holds a {state['controller_name']!r} run, "
                f"this controller is {controller.name!r}"
            )
        oracle_state = state.get("oracle")
        if (oracle_state is None) != (self.oracle is None):
            raise CheckpointError(
                f"the snapshot was written with compute_optimal="
                f"{oracle_state is not None}, this run has "
                f"compute_optimal={self.oracle is not None}"
            )
        self.result = SimulationResult.from_state(state["result"])
        controller.load_state_dict(state["controller"])
        if self.oracle is not None:
            self.oracle.load_state_dict(oracle_state)
        self.previous = (
            Assignment.from_stations(
                np.asarray(state["previous_stations"], dtype=np.int64),
                controller.requests,
            )
            if self.result.horizon > 0
            else None
        )
