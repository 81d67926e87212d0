"""Differential test of the hot-started per-slot LP against a recorded horizon.

``lp_hot_start_corpus.npz`` holds the 30 LP inputs ``(lp_demands, theta)``
that OL_GD solved over one horizon of a Fig. 3-sized world (50 stations,
60 requests, given demands), with the x-matrix and objective of each
solve.  They were recorded by the solver that preceded the hot start:
every solve cold, through ``scipy.optimize.linprog(method="highs")``.
Running this file as a script re-records the corpus, but on a tree with
the hot start it records that tree's own OL_GD trajectory, not the
original one.

A cold solve must reproduce each recording bit for bit.  The hot-started
sequence may land on other optimal vertices of the degenerate LP, so it
must match the objectives to a relative 1e-9, and every x it returns
must be feasible.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.api import make_controller, make_topology, make_workload, run_simulation
from repro.core.fastlp import PerSlotLpSolver
from repro.core.optimal import ClairvoyantOracle
from repro.mec import DriftingDelay
from repro.utils.seeding import RngRegistry
from repro.workload import requests_from_trace, synthesize_nyc_wifi_trace

CORPUS = Path(__file__).resolve().parent / "lp_hot_start_corpus.npz"
HORIZON = 30


def build_world():
    """The recorded world: Fig. 3's quick-profile size, seed 2020."""
    rngs = RngRegistry(seed=2020)
    trace = synthesize_nyc_wifi_trace(5, 60, rngs.get("trace"), horizon_slots=HORIZON)
    network = make_topology(
        "gtitm",
        rngs,
        n_stations=50,
        n_services=4,
        anchor_points=[h.location for h in trace.hotspots],
    )
    requests = requests_from_trace(trace, network.services, rngs.get("requests"))
    # A femtocell hosts about two average requests (the figures' C_unit).
    mean_demand = float(np.mean([r.basic_demand_mb for r in requests]))
    network.c_unit_mhz = float(network.capacities_mhz.min() / (2.0 * mean_demand))
    network.delays = DriftingDelay(network.stations, rngs.get("drift"), drift_ms=0.5)
    model = make_workload("constant", requests, rngs.get("demand"))
    controller = make_controller("OL_GD", network, requests, rngs.get("controller"))
    return network, model, controller


def record(path=CORPUS):
    """Run OL_GD over the horizon, recording every LP it solves."""
    network, model, controller = build_world()
    inputs = []
    solve = PerSlotLpSolver.solve

    def recording(self, demands, theta, *args, **kwargs):
        inputs.append((np.array(demands), np.array(theta)))
        return solve(self, demands, theta, *args, **kwargs)

    PerSlotLpSolver.solve = recording
    try:
        run_simulation(network, model, controller, HORIZON)
    finally:
        PerSlotLpSolver.solve = solve
    solver = PerSlotLpSolver(network, controller.requests)
    xs, objectives = zip(
        *(solver.optimum(np.outer(d, t), d) for d, t in inputs), strict=True
    )
    np.savez_compressed(
        path,
        demands=np.array([d for d, _ in inputs]),
        theta=np.array([t for _, t in inputs]),
        x=np.array(xs),
        objective=np.array(objectives),
        capacities_mhz=network.capacities_mhz,
        basic_demands_mb=np.array([r.basic_demand_mb for r in controller.requests]),
    )


@pytest.fixture(scope="module")
def corpus():
    network, _, controller = build_world()
    with np.load(CORPUS) as archive:
        recorded = dict(archive)
    np.testing.assert_array_equal(network.capacities_mhz, recorded["capacities_mhz"])
    np.testing.assert_array_equal(
        [r.basic_demand_mb for r in controller.requests], recorded["basic_demands_mb"]
    )
    assert recorded["x"].shape == (HORIZON, 60, 50)
    return network, controller.requests, recorded


def objective_of(network, requests, demands, theta, x):
    """Eq. (3) at x, with every needed instance cached at its largest share."""
    n = len(requests)
    processing = float(np.sum(np.outer(demands, theta) * x)) / n
    service_of = np.array([r.service_index for r in requests])
    instantiation = 0.0
    for k in np.unique(service_of):
        share = x[service_of == k].max(axis=0)
        delays = [network.services.instantiation_delay(i, k) for i in range(x.shape[1])]
        instantiation += float(np.dot(share, delays)) / n
    return processing + instantiation


def test_cold_solves_reproduce_the_recording(corpus):
    network, requests, recorded = corpus
    solver = PerSlotLpSolver(network, requests)
    for slot in range(HORIZON):
        demands, theta = recorded["demands"][slot], recorded["theta"][slot]
        x, objective = solver.optimum(np.outer(demands, theta), demands)
        np.testing.assert_array_equal(x, recorded["x"][slot], err_msg=f"slot {slot}")
        assert objective == recorded["objective"][slot], slot
        assert solver.solve_with_objective(demands, theta)[0] == objective, slot
    # A solve without a start is the same cold solve.
    x, _ = solver.solve(recorded["demands"][0], recorded["theta"][0])
    np.testing.assert_array_equal(x, recorded["x"][0])


def test_hot_sequence_matches_objectives_and_stays_feasible(corpus):
    network, requests, recorded = corpus
    solver = PerSlotLpSolver(network, requests)
    basis = None
    moved = 0
    for slot in range(HORIZON):
        demands, theta = recorded["demands"][slot], recorded["theta"][slot]
        x, basis = solver.solve(demands, theta, start=basis)
        assert objective_of(network, requests, demands, theta, x) == pytest.approx(
            recorded["objective"][slot], rel=1e-9
        ), slot
        np.testing.assert_allclose(x.sum(axis=1), 1.0, rtol=0, atol=1e-9)
        loads = (x * demands[:, None]).sum(axis=0) * network.c_unit_mhz
        assert np.all(loads <= network.capacities_mhz * (1 + 1e-9)), slot
        moved += not np.array_equal(x, recorded["x"][slot])
    # The hot start is in use: the degenerate LP lands elsewhere.
    assert moved > 0


def test_hot_oracle_matches_the_recorded_objectives(corpus):
    """The clairvoyant oracle's hot-started objective, slot after slot,
    equals the recorded cold optimum to rounding."""
    network, requests, recorded = corpus
    oracle = ClairvoyantOracle(network, requests)
    hot = np.array([
        oracle.cost(recorded["demands"][slot], recorded["theta"][slot])
        for slot in range(HORIZON)
    ])
    np.testing.assert_allclose(hot, recorded["objective"], rtol=1e-12, atol=0)


if __name__ == "__main__":
    record()
