"""Equivalence tests pinning the vectorised hot path to scalar references.

PR 6 vectorised the simulation slot loop (demand realisation, cache-set
derivation, Eq. (3) evaluation, the failure-injection loop).  These tests
pin every vectorised path **bit-identical in float64** to the scalar
formulation it replaced, so future edits to the fast path cannot silently
change realised trajectories:

* ``BurstyDemandModel.bursty_at`` vs the pinned ``bursty_at_scalar``
  (both amplitude modes, flash crowds, solo requests);
* ``Assignment.from_stations``'s packed-code cache-set derivation vs the
  per-request python set loop;
* ``Assignment.loads_mhz``'s bincount vs the former ``np.add.at``;
* ``SlotEvaluator.evaluate`` vs a from-scratch scalar spelling of the
  extended Eq. (3);
* ``run_with_failures`` vs an inline reference loop applying the outage
  capacity factors by hand.
"""

import numpy as np
import pytest

from repro.core.assignment import Assignment, SlotEvaluator, service_indices
from repro.core.controller import Controller
from repro.mec.network import MECNetwork
from repro.mec.requests import Request
from repro.sim import FailureSchedule, run_with_failures
from repro.utils.seeding import RngRegistry
from repro.workload.bursty import FlashCrowdSchedule
from repro.workload.demand import BurstyDemandModel, ConstantDemandModel

N_HOTSPOTS = 11  # > 10 so string-sorted hotspot keys would interleave


def make_requests(n=150, n_services=3, seed=0):
    """Request mix with many hotspots and a sprinkle of solo users."""
    rng = np.random.default_rng(seed)
    return [
        Request(
            index=i,
            service_index=int(rng.integers(n_services)),
            basic_demand_mb=float(rng.uniform(0.5, 2.0)),
            hotspot_index=None if i % 10 == 9 else i % N_HOTSPOTS,
        )
        for i in range(n)
    ]


def make_world(seed=21, n_stations=8, n_services=3, n_requests=60):
    rngs = RngRegistry(seed=seed)
    network = MECNetwork.synthetic(n_stations, n_services, rngs)
    requests = make_requests(n_requests, n_services, seed)
    return network, requests


class TestDemandEquivalence:
    @pytest.mark.parametrize("amplitude_mode", ["slot", "episode"])
    @pytest.mark.parametrize("with_crowds", [False, True])
    def test_bursty_at_bit_identical_to_scalar(self, amplitude_mode, with_crowds):
        schedule = None
        if with_crowds:
            schedule = (
                FlashCrowdSchedule()
                .add_event(0, start=2, duration=3, amplitude_mb=5.0)
                .add_event(10, start=4, duration=2, amplitude_mb=3.0)
            )
        model = BurstyDemandModel(
            make_requests(),
            np.random.default_rng(33),
            flash_crowds=schedule,
            amplitude_mode=amplitude_mode,
        )
        for t in range(40):
            np.testing.assert_array_equal(
                model.bursty_at(t), model.bursty_at_scalar(t)
            )

    def test_demand_at_bit_identical_to_scalar_composition(self):
        model = BurstyDemandModel(make_requests(), np.random.default_rng(34))
        for t in range(20):
            np.testing.assert_array_equal(
                model.demand_at(t), model.basic_demands + model.bursty_at_scalar(t)
            )

    def test_constant_model_demand_is_basic(self):
        model = ConstantDemandModel(make_requests())
        for t in range(5):
            np.testing.assert_array_equal(model.demand_at(t), model.basic_demands)

    def test_all_solo_requests(self):
        requests = make_requests(30)
        solo = [
            Request(
                index=r.index,
                service_index=r.service_index,
                basic_demand_mb=r.basic_demand_mb,
                hotspot_index=None,
            )
            for r in requests
        ]
        model = BurstyDemandModel(solo, np.random.default_rng(35))
        for t in range(15):
            np.testing.assert_array_equal(
                model.bursty_at(t), model.bursty_at_scalar(t)
            )


class TestAssignmentEquivalence:
    def _world(self):
        network, requests = make_world()
        rng = np.random.default_rng(77)
        stations = rng.integers(0, network.n_stations, size=len(requests))
        return network, requests, stations

    def test_cache_set_matches_python_loop(self):
        _, requests, stations = self._world()
        fast = Assignment.from_stations(stations, requests)
        legacy = frozenset(
            (r.service_index, int(i)) for r, i in zip(requests, stations, strict=True)
        )
        assert fast.cached == legacy

    def test_cached_array_matches_np_unique_order(self):
        _, requests, stations = self._world()
        fast = Assignment.from_stations(stations, requests)
        pairs = np.stack([service_indices(requests), stations], axis=1)
        np.testing.assert_array_equal(fast.cached_array(), np.unique(pairs, axis=0))

    def test_loads_bit_identical_to_add_at(self):
        network, requests, stations = self._world()
        assignment = Assignment.from_stations(stations, requests)
        demands = np.random.default_rng(78).uniform(0.5, 3.0, len(requests))
        fast = assignment.loads_mhz(
            demands, network.c_unit_mhz, network.n_stations
        )
        reference = np.zeros(network.n_stations)
        np.add.at(reference, stations, demands * network.c_unit_mhz)
        np.testing.assert_array_equal(fast, reference)

    def test_evaluate_bit_identical_to_scalar_reference(self):
        network, requests, stations = self._world()
        assignment = Assignment.from_stations(stations, requests)
        rng = np.random.default_rng(79)
        demands = rng.uniform(0.5, 3.0, len(requests))
        delays = rng.uniform(1.0, 20.0, network.n_stations)

        fast = SlotEvaluator(network, requests).evaluate(
            assignment, demands, delays
        )

        # From-scratch scalar spelling of the extended Eq. (3), with the
        # canonical sorted-pair instantiation order the evaluator pins.
        loads = np.zeros(network.n_stations)
        np.add.at(loads, stations, demands * network.c_unit_mhz)
        overload = np.maximum(loads / network.capacities_mhz, 1.0)
        processing = demands * delays[stations] * overload[stations]
        instantiation = 0.0
        for service, station in sorted(assignment.cached):
            instantiation += network.services.instantiation_matrix[station, service]
        reference = float((processing.sum() + instantiation) / len(requests))
        assert fast == reference

    def test_float32_evaluator_close_to_float64(self):
        network, requests, stations = self._world()
        assignment = Assignment.from_stations(stations, requests)
        rng = np.random.default_rng(80)
        demands = rng.uniform(0.5, 3.0, len(requests))
        delays = rng.uniform(1.0, 20.0, network.n_stations)
        exact = SlotEvaluator(network, requests).evaluate(
            assignment, demands, delays
        )
        single = SlotEvaluator(network, requests, dtype="float32")
        assert single.dtype == np.float32
        assert single.evaluate(assignment, demands, delays) == pytest.approx(
            exact, rel=1e-5
        )


class _StaticRR(Controller):
    """Fixed round-robin placement, so trajectories are world-determined."""

    name = "Static_RR_Test"

    def __init__(self, network, requests):
        super().__init__(network, requests)
        self._stations = np.arange(len(requests)) % network.n_stations

    def decide(self, slot, demands):
        return Assignment.from_stations(
            self._stations, self.requests, service_of=self.service_of
        )

    def observe(self, slot, demands, unit_delays, assignment):
        return None


class TestFailureLoopEquivalence:
    def test_run_with_failures_matches_reference_loop(self):
        network, requests = make_world(seed=41)
        model = BurstyDemandModel(requests, np.random.default_rng(42))
        schedule = (
            FailureSchedule()
            .add_outage(0, start=2, duration=3, remaining_fraction=0.0)
            .add_outage(3, start=4, duration=2, remaining_fraction=0.4)
        )
        horizon = 8
        controller = _StaticRR(network, requests)
        result = run_with_failures(
            network, model, controller, horizon, failures=schedule
        )

        # Reference: re-walk the horizon applying the outage factors by
        # hand (epsilon floor included) over the same deterministic world.
        stations = np.arange(len(requests)) % network.n_stations
        original = [bs.capacity_mhz for bs in network.stations]
        expected = []
        for t in range(horizon):
            caps = np.array(
                [
                    max(original[i] * schedule.capacity_factor(i, t), 1e-6)
                    for i in range(network.n_stations)
                ]
            )
            demands = model.demand_at(t)
            delays = network.delays.sample(t)
            loads = np.zeros(network.n_stations)
            np.add.at(loads, stations, demands * network.c_unit_mhz)
            overload = np.maximum(loads / caps, 1.0)
            processing = demands * delays[stations] * overload[stations]
            cached = sorted(
                {
                    (r.service_index, int(i))
                    for r, i in zip(requests, stations, strict=True)
                }
            )
            instantiation = 0.0
            for service, station in cached:
                instantiation += network.services.instantiation_matrix[
                    station, service
                ]
            expected.append(
                float((processing.sum() + instantiation) / len(requests))
            )

        np.testing.assert_array_equal(result.delays_ms, np.array(expected))
        # The outage must actually bite: slot 2 overloads the survivors.
        assert result.delays_ms[2] > result.delays_ms[0]
        # And the live network is restored afterwards.
        assert [bs.capacity_mhz for bs in network.stations] == original
