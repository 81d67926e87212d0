"""`Pri_GD` baseline: the priority-driven caching of Xie et al. [20].

"The algorithm assigns each request a priority according to the number of
base stations covered in its transmission range, and the base station
takes priority in processing the high priority request."  Requests are
served in decreasing coverage-count order; each picks the best (lowest
historical-mean delay) station among those *covering* its user with
remaining capacity, falling back to the best station anywhere when no
covering station can host it.  Like `Greedy_GD` it exploits historical
means without exploration.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.bandits.arms import ArmStats
from repro.core.assignment import Assignment
from repro.core.controller import Controller
from repro.mec.network import MECNetwork
from repro.mec.requests import Request

__all__ = ["PriorityController"]


class PriorityController(Controller):
    """`Pri_GD`: coverage-count priorities, covering-station preference."""

    name = "Pri_GD"

    def __init__(
        self,
        network: MECNetwork,
        requests: Sequence[Request],
        rng: np.random.Generator,
    ):
        super().__init__(network, requests)
        self._rng = rng
        d_min, d_max = network.delays.bounds
        self.arms = ArmStats(network.n_stations, prior_mean=(d_min + d_max) / 2.0)
        # Coverage is static (user locations are per-request fixed).
        self._set_coverage(network.covering_stations_at(r.location for r in requests))

    def _set_coverage(self, covering: List[List[int]]) -> None:
        """Covering stations per request; a request's priority is their count."""
        self._priorities = np.array([len(stations) for stations in covering])
        self._covering = [np.array(stations, dtype=int) for stations in covering]

    @property
    def priorities(self) -> np.ndarray:
        """Coverage counts per request (higher = served earlier)."""
        return self._priorities.copy()

    def _best_station(
        self,
        pool: np.ndarray,
        demand: float,
        service: int,
        theta: np.ndarray,
        capacities: np.ndarray,
        cached: Set[Tuple[int, int]],
    ) -> int:
        """Cheapest feasible station in ``pool`` (or -1)."""
        need = demand * self.network.c_unit_mhz
        best_station, best_cost = -1, np.inf
        for i in pool:
            if capacities[i] < need:
                continue
            cost = demand * theta[i]
            if (service, int(i)) not in cached:
                cost += self.network.services.instantiation_delay(int(i), service)
            if cost < best_cost:
                best_station, best_cost = int(i), cost
        return best_station

    def decide(self, slot: int, demands: Optional[np.ndarray]) -> Assignment:
        if demands is None:
            raise ValueError("Pri_GD assumes given demands (§VI benchmarks)")
        demands = np.asarray(demands, dtype=float)
        theta = self.arms.means
        capacities = self.network.capacities_mhz.copy()
        cached: Set[Tuple[int, int]] = set()
        stations = np.empty(self.n_requests, dtype=int)

        # High priority first; ties broken by request index (stable).
        order = np.argsort(-self._priorities, kind="stable")
        all_stations = np.arange(self.network.n_stations)
        for l in order:
            request = self.requests[l]
            station = self._best_station(
                self._covering[l], demands[l], request.service_index,
                theta, capacities, cached,
            )
            if station < 0:
                station = self._best_station(
                    all_stations, demands[l], request.service_index,
                    theta, capacities, cached,
                )
            if station < 0:
                station = int(np.argmax(capacities))
            stations[l] = station
            capacities[station] -= demands[l] * self.network.c_unit_mhz
            cached.add((request.service_index, station))

        return Assignment.from_stations(
            stations, self.requests, service_of=self.service_of
        )

    def observe(
        self,
        slot: int,
        demands: np.ndarray,
        unit_delays: np.ndarray,
        assignment: Assignment,
    ) -> None:
        played, observed = self.observed_delays(unit_delays, assignment)
        self.arms.observe_many(played.tolist(), observed.tolist())

    def state_dict(self) -> Dict[str, Any]:
        from repro.state.snapshot import rng_state

        return {"arms": self.arms.state_dict(), "rng": rng_state(self._rng)}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        from repro.state.snapshot import set_rng_state

        self.arms.load_state_dict(state["arms"])
        set_rng_state(self._rng, state["rng"])
