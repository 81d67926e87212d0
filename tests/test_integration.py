"""Cross-module integration tests: invariants, failure injection, learning.

These exercise whole pipelines (network + workload + controller + engine)
rather than single modules.
"""

import numpy as np
import pytest

from repro.core import (
    GreedyController,
    OlGdController,
    OlRegController,
    PriorityController,
)
from repro.core.assignment import Assignment
from repro.mec import DriftingDelay, MECNetwork
from repro.mec.requests import Request
from repro.sim import run_simulation
from repro.utils.seeding import RngRegistry
from repro.workload import (
    BurstyDemandModel,
    ConstantDemandModel,
    FlashCrowdSchedule,
    requests_from_trace,
    synthesize_nyc_wifi_trace,
)


def build_world(seed=5, n_stations=25, n_users=20, horizon=30, drift=0.5):
    rngs = RngRegistry(seed=seed)
    trace = synthesize_nyc_wifi_trace(
        n_hotspots=4, n_users=n_users, rng=rngs.get("trace"), horizon_slots=horizon
    )
    anchors = [h.location for h in trace.hotspots]
    network = MECNetwork.synthetic(
        n_stations, 3, rngs, anchor_points=anchors
    )
    if drift > 0:
        network.delays = DriftingDelay(
            network.stations, rngs.get("delays-drift"), drift_ms=drift
        )
    requests = requests_from_trace(trace, network.services, rngs.get("trace"))
    mean_demand = float(np.mean([r.basic_demand_mb for r in requests]))
    network.c_unit_mhz = float(network.capacities_mhz.min() / (2.0 * mean_demand))
    return rngs, network, requests


class TestAssignmentInvariants:
    @pytest.mark.parametrize(
        "make",
        [
            lambda n, r, g: OlGdController(n, r, g),
            lambda n, r, g: GreedyController(n, r, g),
            lambda n, r, g: PriorityController(n, r, g),
        ],
        ids=["OL_GD", "Greedy_GD", "Pri_GD"],
    )
    def test_assignments_always_valid(self, make):
        rngs, network, requests = build_world()
        controller = make(network, requests, rngs.get("ctrl"))
        model = ConstantDemandModel(requests)
        for t in range(15):
            demands = model.demand_at(t)
            assignment = controller.decide(t, demands)
            # Every request served by an existing station (Eq. 4).
            assert assignment.station_of.shape == (len(requests),)
            assert np.all(assignment.station_of >= 0)
            assert np.all(assignment.station_of < network.n_stations)
            # Constraint 6: the serving station caches the needed service.
            for request, station in zip(requests, assignment.station_of, strict=True):
                assert (request.service_index, int(station)) in assignment.cached
            controller.observe(
                t, demands, network.delays.sample(t), assignment
            )

    def test_ol_gd_respects_capacity_with_known_demands(self):
        rngs, network, requests = build_world()
        controller = OlGdController(network, requests, rngs.get("ctrl"))
        model = ConstantDemandModel(requests)
        for t in range(10):
            demands = model.demand_at(t)
            assignment = controller.decide(t, demands)
            loads = assignment.loads_mhz(
                demands, network.c_unit_mhz, network.n_stations
            )
            assert np.all(loads <= network.capacities_mhz + 1e-6)
            controller.observe(t, demands, network.delays.sample(t), assignment)


class TestLearningBehaviour:
    def test_ol_gd_beats_greedy_under_drift(self):
        """The paper's core claim on a fresh (non-figure) configuration."""
        deltas = []
        for seed in (21, 22, 23):
            rngs, network, requests = build_world(seed=seed, drift=1.0, horizon=50)
            model = ConstantDemandModel(requests)
            ol = OlGdController(network, requests, rngs.get("ol"))
            greedy = GreedyController(network, requests, rngs.get("gr"))
            ol_delay = run_simulation(network, model, ol, 50).mean_delay_ms(10)
            gr_delay = run_simulation(network, model, greedy, 50).mean_delay_ms(10)
            deltas.append(gr_delay - ol_delay)
        assert np.mean(deltas) > 0, f"OL_GD should win on average, deltas={deltas}"

    def test_ol_gd_regret_below_greedy_regret_on_average(self):
        """Single topologies are noisy; the learner wins in the mean."""
        ol_regrets, greedy_regrets = [], []
        for seed in (21, 22, 23):
            rngs, network, requests = build_world(seed=seed, drift=1.0, horizon=50)
            model = ConstantDemandModel(requests)
            ol = OlGdController(network, requests, rngs.get("ol"))
            greedy = GreedyController(network, requests, rngs.get("gr"))
            ol_regrets.append(
                run_simulation(network, model, ol, 50, compute_optimal=True)
                .regret_tracker()
                .total_regret
            )
            greedy_regrets.append(
                run_simulation(network, model, greedy, 50, compute_optimal=True)
                .regret_tracker()
                .total_regret
            )
        assert np.mean(ol_regrets) < np.mean(greedy_regrets), (
            f"OL regrets {ol_regrets} vs greedy {greedy_regrets}"
        )

    def test_achieved_cost_never_below_lp_bound(self):
        rngs, network, requests = build_world(seed=41)
        model = ConstantDemandModel(requests)
        controller = OlGdController(network, requests, rngs.get("ol"))
        result = run_simulation(network, model, controller, 10, compute_optimal=True)
        assert np.all(result.regret_tracker().per_slot_regret >= -1e-9)


class TestFailureInjection:
    def test_flash_crowd_visible_and_absorbed(self):
        """A scheduled crowd must raise delay during, not after, the event."""
        rngs, network, requests = build_world(seed=51, horizon=45, drift=0.0)
        crowd = FlashCrowdSchedule().add_event(
            0, start=20, duration=6, amplitude_mb=8.0
        )
        model = BurstyDemandModel(
            requests, rngs.get("demand"), flash_crowds=crowd, p_enter=0.0
        )
        controller = OlRegController(network, requests, rngs.get("ctrl"))
        result = run_simulation(
            network, model, controller, horizon=45, demands_known=False
        )
        before = result.delays_ms[10:20].mean()
        during = result.delays_ms[20:26].mean()
        after = result.delays_ms[32:45].mean()
        assert during > before, "the crowd must be visible in the delay"
        assert after < during, "the controller must recover after the crowd"

    def test_station_outage_handled(self):
        """Zeroing a station's capacity mid-experiment must not crash and
        the LP must route around it."""
        rngs, network, requests = build_world(seed=61)
        model = ConstantDemandModel(requests)
        controller = OlGdController(network, requests, rngs.get("ctrl"))
        for t in range(5):
            demands = model.demand_at(t)
            assignment = controller.decide(t, demands)
            controller.observe(t, demands, network.delays.sample(t), assignment)
        # Outage: the most-used station loses (almost) all its capacity.
        victim = int(np.bincount(assignment.station_of).argmax())
        network.stations[victim].capacity_mhz = 1e-6
        for t in range(5, 10):
            demands = model.demand_at(t)
            assignment = controller.decide(t, demands)
            assert victim not in assignment.stations_used()
            controller.observe(t, demands, network.delays.sample(t), assignment)

    def test_extreme_burst_scales_lp_not_crash(self):
        """Demand exceeding total capacity triggers the LP demand scaling
        (documented fallback) instead of an infeasible-solve crash."""
        rngs, network, requests = build_world(seed=71)
        controller = OlGdController(network, requests, rngs.get("ctrl"))
        huge = np.full(
            len(requests),
            2.0 * network.total_capacity_mhz() / network.c_unit_mhz / len(requests),
        )
        assignment = controller.decide(0, huge)
        assert assignment.n_requests == len(requests)

    def test_single_station_network(self):
        """Degenerate topology: every algorithm must still work."""
        rngs = RngRegistry(seed=81)
        network = MECNetwork.synthetic(1, 2, rngs)
        requests = [
            Request(index=0, service_index=0, basic_demand_mb=1.0),
            Request(index=1, service_index=1, basic_demand_mb=1.0),
        ]
        model = ConstantDemandModel(requests)
        for make in (OlGdController, GreedyController, PriorityController):
            controller = make(network, requests, rngs.fresh("ctrl"))
            result = run_simulation(network, model, controller, horizon=3)
            assert np.all(result.delays_ms > 0)
