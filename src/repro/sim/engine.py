"""The offline time-slot simulation loop.

:func:`run_simulation` drives one controller over a horizon.  Each slot
is the shared per-slot cycle of :class:`repro.sim.step.SlotStepper`
(decide, evaluate, observe, optional clairvoyant optimum, record) fed by
the demand model: the run loop itself only

1. applies the slot's scheduled station outages, if any;
2. realises `rho_l(t)` from the demand model (Eq. 1);
3. calls :meth:`~repro.sim.step.SlotStepper.step`;
4. writes a snapshot when the checkpoint cadence is due.

The stepper times ``decide`` and ``observe`` (the figures' runtime
panels) and wraps each phase in a :mod:`repro.obs` span, so an activated
registry, or the ``metrics`` argument, sees the per-slot decomposition.
The decision server (:mod:`repro.serve.server`) runs the same step on
demand aggregated from offers.
"""

from __future__ import annotations

from contextlib import nullcontext
from pathlib import Path
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro import obs
from repro.core.controller import Controller
from repro.core.optimal import ClairvoyantOracle
from repro.mec.network import MECNetwork
from repro.sim.config import RunConfig
from repro.sim.metrics import SimulationResult
from repro.sim.step import SlotStepper
from repro.state import (
    SIMULATION_KIND,
    CheckpointConfig,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from repro.utils.validation import require_positive
from repro.workload.demand import DemandModel

if TYPE_CHECKING:  # imported lazily at runtime: failures.py imports us
    from repro.sim.failures import FailureSchedule

__all__ = ["run_simulation"]

#: Floor left on a fully-failed station so utilisation ratios stay finite;
#: no request fits in it.
_OUTAGE_EPSILON_MHZ = 1e-6


def run_simulation(
    network: MECNetwork,
    demand_model: DemandModel,
    controller: Controller,
    horizon: int,
    *,
    demands_known: bool = True,
    compute_optimal: bool = False,
    exact_optimal: bool = False,
    metrics: Optional["obs.MetricsRegistry"] = None,
    config: Optional[RunConfig] = None,
    failures: Optional["FailureSchedule"] = None,
) -> SimulationResult:
    """Run ``controller`` for ``horizon`` slots; returns the metric series.

    ``demands_known`` selects the §IV setting (true demands passed to the
    controller) versus the §V setting (controller predicts internally).
    ``compute_optimal`` additionally solves the slot's clairvoyant LP
    (``exact_optimal`` upgrades it to the exact ILP — small instances
    only); the optimum lands in each record for regret tracking.  The LP
    starts from the previous slot's optimal basis, so its optimum matches
    a cold :func:`repro.core.optimal.clairvoyant_cost` to rounding
    (tested to 1e-12 relative), not bit for bit; snapshots carry that
    basis.
    ``metrics`` activates the given :class:`repro.obs.MetricsRegistry` for
    the duration of the run; when omitted, whatever registry is already
    active (e.g. installed by the CLI) keeps receiving the spans.

    ``config`` (a :class:`repro.sim.RunConfig`) carries the execution
    knobs this entry point reads: ``checkpoint_dir`` /
    ``checkpoint_every`` / ``resume`` enable crash-tolerant snapshots —
    the run writes a snapshot of the controller, demand-model identity
    and record series every ``checkpoint_every`` completed slots, and
    with ``resume=True`` restores an existing snapshot and continues
    from the next slot.  A resumed run over a same-seeded world
    reproduces the uninterrupted run's series bit-identically (timing
    columns excepted — wall-clock is re-measured).  The snapshot does
    not pin the horizon, so a run can resume into a longer horizon than
    it was interrupted at.

    ``failures`` applies a :class:`repro.sim.failures.FailureSchedule`
    around each slot: scheduled capacity factors are written to the live
    station objects before the controller decides (so its LP/packing sees
    the outage) and the original capacities are restored when the run
    ends, even on error.  A full outage leaves an epsilon capacity so
    utilisation ratios stay finite.
    """
    require_positive("horizon", horizon)
    if demand_model.n_requests != controller.n_requests:
        raise ValueError(
            f"demand model covers {demand_model.n_requests} requests, "
            f"controller expects {controller.n_requests}"
        )
    checkpoint = config.to_checkpoint_config() if config is not None else None
    with obs.activate(metrics) if metrics is not None else nullcontext():
        return _run_loop(
            network,
            demand_model,
            controller,
            horizon,
            demands_known,
            compute_optimal,
            exact_optimal,
            checkpoint,
            failures,
        )


def _write_snapshot(
    path: Path,
    stepper: SlotStepper,
    demand_model: DemandModel,
    demands_known: bool,
) -> None:
    """Snapshot everything a resumed run needs to continue bit-identically:
    the stepper's state (controller, series, previous stations, oracle
    basis) plus the demand model's identity."""
    state = stepper.state_dict()
    state["demand_model"] = demand_model.state_dict()
    with obs.span("state.save"):
        save_checkpoint(
            path,
            state,
            kind=SIMULATION_KIND,
            meta={
                "controller": stepper.controller.name,
                "slots": stepper.result.horizon,
                "demands_known": demands_known,
            },
        )
    obs.inc("state.save")


def _restore_snapshot(
    path: Path,
    stepper: SlotStepper,
    demand_model: DemandModel,
    horizon: int,
) -> None:
    """Load a snapshot back into ``stepper`` and check it fits this run."""
    with obs.span("state.load"):
        state, _meta = load_checkpoint(path, kind=SIMULATION_KIND)
    if "oracle" not in state:
        raise CheckpointError(
            f"{path} has no 'oracle' entry (the clairvoyant oracle's LP "
            "basis); it was written by an older version and cannot resume"
        )
    # Verifies the resumed world realises the same demand trajectory.
    demand_model.load_state_dict(state["demand_model"])
    stepper.load_state_dict(state)
    if stepper.result.horizon >= horizon:
        raise CheckpointError(
            f"{path} already covers {stepper.result.horizon} slots; resuming "
            f"needs a horizon beyond that, got {horizon}"
        )
    obs.inc("state.load")


def _run_loop(
    network: MECNetwork,
    demand_model: DemandModel,
    controller: Controller,
    horizon: int,
    demands_known: bool,
    compute_optimal: bool,
    exact_optimal: bool,
    checkpoint: Optional[CheckpointConfig],
    failures: Optional["FailureSchedule"],
) -> SimulationResult:
    oracle = (
        ClairvoyantOracle(network, controller.requests, exact=exact_optimal)
        if compute_optimal
        else None
    )
    stepper = SlotStepper(network, controller, oracle)
    snapshot_path = (
        checkpoint.path_for(controller.name) if checkpoint is not None else None
    )
    if (
        checkpoint is not None
        and checkpoint.resume
        and snapshot_path is not None
        and snapshot_path.exists()
    ):
        _restore_snapshot(snapshot_path, stepper, demand_model, horizon)
    original_capacities = (
        [bs.capacity_mhz for bs in network.stations]
        if failures is not None
        else None
    )
    applied_factors: Optional[np.ndarray] = None
    obs.set_context(controller=controller.name)

    try:
        for slot in range(stepper.result.horizon, horizon):
            obs.set_context(slot=slot)
            if failures is not None and original_capacities is not None:
                factors = failures.capacity_factors(network.n_stations, slot)
                # Most slots have no outage transition; only touch the live
                # station objects (and the evaluator's capacity cache) when
                # the factor vector actually changes.
                if applied_factors is None or not np.array_equal(
                    factors, applied_factors
                ):
                    for index, bs in enumerate(network.stations):
                        bs.capacity_mhz = max(
                            original_capacities[index] * float(factors[index]),
                            _OUTAGE_EPSILON_MHZ,
                        )
                    stepper.evaluator.refresh_capacities()
                    applied_factors = factors
            stepper.step(slot, demand_model.demand_at(slot), demands_known)
            obs.inc("sim.slots")
            if (
                checkpoint is not None
                and snapshot_path is not None
                and checkpoint.due(stepper.result.horizon)
            ):
                _write_snapshot(snapshot_path, stepper, demand_model, demands_known)
    finally:
        if failures is not None and original_capacities is not None:
            for index, bs in enumerate(network.stations):
                bs.capacity_mhz = original_capacities[index]
    obs.set_context(slot=None, controller=None)
    return stepper.result
