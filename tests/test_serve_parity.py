"""Served runs equal offline runs of the same world.

Two :class:`DecisionServer` instances are built from one
:class:`ServeConfig`, so they hold the same world, controller and
streams.  One is run offline: its world goes through
:func:`repro.sim.run_simulation`.  The other is served: each slot, every
request with positive demand offers that slot's
``demand_model.demand_at(t)`` volume, and ``decide`` closes the slot.
Both paths run the same slot step, so every non-timing field of every
:class:`SlotRecord` must be equal, and each served placement must route
requests exactly where the offline controller did.
"""

import dataclasses

import numpy as np
import pytest

from repro.serve import DecisionServer, ServeConfig
from repro.sim import SlotRecord, run_simulation

SLOTS = 12

#: Wall-clock columns, re-measured by every run.
TIMING_FIELDS = {"decision_seconds", "observe_seconds"}

CASES = {
    "OL_GD": dict(controller="OL_GD"),
    "Greedy_GD": dict(controller="Greedy_GD"),
    "OL_GAN": dict(
        controller="OL_GAN",
        demands_known=False,
        controller_options={"n_hotspots": 3, "window": 3, "hidden_size": 4},
    ),
}


def parity_config(**overrides) -> ServeConfig:
    return ServeConfig(
        seed=11,
        horizon=SLOTS,
        n_stations=10,
        n_services=2,
        n_requests=6,
        n_hotspots=3,
        **overrides,
    )


def record_decisions(controller):
    """Collect the station vector of every ``decide`` call, in order."""
    decisions = []
    decide = controller.decide

    def recorded(slot, demands):
        assignment = decide(slot, demands)
        decisions.append(tuple(int(s) for s in assignment.station_of))
        return assignment

    controller.decide = recorded
    return decisions


def deterministic_fields(record: SlotRecord):
    return {
        field.name: getattr(record, field.name)
        for field in dataclasses.fields(record)
        if field.name not in TIMING_FIELDS
    }


@pytest.mark.parametrize("name", list(CASES))
def test_served_run_equals_offline_run(name):
    config = parity_config(**CASES[name])

    offline = DecisionServer(config)
    offline.start()
    decisions = record_decisions(offline.controller)
    expected = run_simulation(
        offline.network,
        offline.demand_model,
        offline.controller,
        horizon=SLOTS,
        demands_known=config.demands_known,
    )
    offline.stop()

    served = DecisionServer(config)
    served.start()
    for slot in range(SLOTS):
        demands = served.demand_model.demand_at(slot)
        for request in np.flatnonzero(demands > 0):
            assert served.offer(int(request), float(demands[request]))
        served.decide(slot)
    served.stop()

    assert len(served.result.records) == len(expected.records) == SLOTS
    for got, want in zip(served.result.records, expected.records, strict=True):
        assert deterministic_fields(got) == deterministic_fields(want)
    placements = served.placement_history()
    assert [p.station_of for p in placements] == decisions
    if name == "OL_GAN":
        # The predictive path is exercised: the MAE column is filled.
        assert all(r.prediction_mae_mb is not None for r in expected.records)
