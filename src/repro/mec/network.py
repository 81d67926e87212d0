"""The MECNetwork facade: topology + stations + services + delay process.

This ties the substrate together into the object every controller and the
simulation engine consume.  Construction helpers reproduce the paper's two
evaluation settings:

* :meth:`MECNetwork.synthetic` — GT-ITM-style random topology (Figs. 3, 4,
  6, 7 sweep points);
* :meth:`MECNetwork.as1755` — the AS1755-scale real-world topology
  (Figs. 5, 7).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.mec.basestation import BaseStation, BaseStationTier
from repro.mec.delay import DelayProcess, UniformTierDelay
from repro.mec.geometry import Point
from repro.mec.graph import Graph
from repro.mec.services import ServiceCatalog
from repro.mec.topology import as1755_topology, gtitm_topology, place_base_stations
from repro.utils.seeding import RngRegistry
from repro.utils.validation import require_positive

__all__ = ["MECNetwork"]

_DEFAULT_C_UNIT_MHZ = 50.0


class MECNetwork:
    """A complete 5G-enabled MEC network `G = (BS, E)`.

    Attributes
    ----------
    graph:
        Backhaul topology; node `i` corresponds to ``stations[i]``.
    stations:
        The base stations with their cloudlets.
    services:
        The service catalog `S` with instantiation delays.
    delays:
        The unit-processing-delay process `d_i(t)`.
    c_unit_mhz:
        `C_unit` — computing resource (MHz) consumed per MB of request data.
    """

    def __init__(
        self,
        graph: Graph,
        stations: Sequence[BaseStation],
        services: ServiceCatalog,
        delays: DelayProcess,
        c_unit_mhz: float = _DEFAULT_C_UNIT_MHZ,
    ):
        if graph.number_of_nodes() != len(stations):
            raise ValueError(
                f"graph has {graph.number_of_nodes()} nodes but "
                f"{len(stations)} stations were supplied"
            )
        if delays.n_stations != len(stations):
            raise ValueError(
                f"delay process covers {delays.n_stations} stations, "
                f"need {len(stations)}"
            )
        if services.n_stations != len(stations):
            raise ValueError(
                f"service catalog covers {services.n_stations} stations, "
                f"need {len(stations)}"
            )
        require_positive("c_unit_mhz", c_unit_mhz)
        self.graph = graph
        self.stations: List[BaseStation] = list(stations)
        self.services = services
        self.delays = delays
        self.c_unit_mhz = float(c_unit_mhz)

    # ------------------------------------------------------------------ #
    # Constructors mirroring the paper's evaluation settings
    # ------------------------------------------------------------------ #

    @classmethod
    def synthetic(
        cls,
        n_stations: int,
        n_services: int,
        rngs: RngRegistry,
        link_probability: float = 0.1,
        c_unit_mhz: float = _DEFAULT_C_UNIT_MHZ,
        noise_fraction: float = 0.25,
        anchor_points: Optional[Sequence[Point]] = None,
    ) -> "MECNetwork":
        """GT-ITM-style synthetic network (paper §VI-A defaults).

        ``anchor_points`` (user hotspots) pull the small-cell placement —
        see :func:`repro.mec.topology.place_base_stations`.
        """
        require_positive("n_stations", n_stations)
        require_positive("n_services", n_services)
        topo_rng = rngs.get("topology")
        graph = gtitm_topology(n_stations, topo_rng, link_probability)
        stations = place_base_stations(
            graph, rngs.get("placement"), anchor_points=anchor_points
        )
        services = ServiceCatalog.generate(n_services, n_stations, rngs.get("services"))
        delays = UniformTierDelay(stations, rngs.get("delays"), noise_fraction=noise_fraction)
        return cls(graph, stations, services, delays, c_unit_mhz)

    @classmethod
    def as1755(
        cls,
        n_services: int,
        rngs: RngRegistry,
        c_unit_mhz: float = _DEFAULT_C_UNIT_MHZ,
        noise_fraction: float = 0.25,
        bottleneck_strength: float = 1.0,
        anchor_points: Optional[Sequence[Point]] = None,
    ) -> "MECNetwork":
        """AS1755-scale real topology with degree-driven congestion.

        Station delay means are inflated by a per-node congestion factor
        proportional to normalised degree: hub-adjacent stations are the
        bottlenecks, which is what widens the gap between the learning
        algorithm and the baselines in Fig. 5.
        """
        require_positive("n_services", n_services)
        if bottleneck_strength < 0:
            raise ValueError("bottleneck_strength must be >= 0")
        graph = as1755_topology()
        n = graph.number_of_nodes()
        stations = place_base_stations(
            graph, rngs.get("placement"), anchor_points=anchor_points
        )
        services = ServiceCatalog.generate(n_services, n, rngs.get("services"))
        degrees = np.array([graph.degree(i) for i in range(n)], dtype=float)
        congestion = 1.0 + bottleneck_strength * degrees / degrees.max()
        delays = UniformTierDelay(
            stations,
            rngs.get("delays"),
            noise_fraction=noise_fraction,
            congestion=congestion,
        )
        return cls(graph, stations, services, delays, c_unit_mhz)

    # ------------------------------------------------------------------ #
    # Introspection helpers used by controllers / metrics
    # ------------------------------------------------------------------ #

    @property
    def n_stations(self) -> int:
        """Number of base stations |BS|."""
        return len(self.stations)

    @property
    def n_services(self) -> int:
        """Number of services |S|."""
        return len(self.services)

    @property
    def capacities_mhz(self) -> np.ndarray:
        """Vector of `C(bs_i)` over all stations."""
        return np.array([bs.capacity_mhz for bs in self.stations])

    def total_capacity_mhz(self) -> float:
        """Aggregate compute across all cloudlets."""
        return float(self.capacities_mhz.sum())

    def coverage_count(self, point: Point) -> int:
        """How many base stations cover ``point`` (Pri_GD's priority key)."""
        return len(self.covering_stations(point))

    def covering_stations(self, point: Point) -> List[int]:
        """Indices of stations whose disk contains ``point``."""
        return self.covering_stations_at([point])[0]

    def covering_stations_at(self, points: Iterable[Point]) -> List[List[int]]:
        """Each point's covering stations, in one pass over the stations per point.

        The test is :meth:`BaseStation.covers` exactly (``math.hypot`` of
        the offsets against the radius), so boundary points agree.
        """
        disks = [
            (bs.index, bs.position.x, bs.position.y, bs.radius_m)
            for bs in self.stations
        ]
        return [
            [i for i, x, y, r in disks if math.hypot(x - p.x, y - p.y) <= r]
            for p in points
        ]

    def tier_counts(self) -> Dict[BaseStationTier, int]:
        """Histogram of stations per tier (for sanity checks and docs)."""
        counts: Dict[BaseStationTier, int] = {tier: 0 for tier in BaseStationTier}
        for bs in self.stations:
            counts[bs.tier] += 1
        return counts

    def clear_caches(self) -> None:
        """Evict every cached service instance (reset between repetitions)."""
        for bs in self.stations:
            bs.cached_services.clear()

    def validate_demand_fits(self, total_demand_mb: float) -> None:
        """Enforce the paper's feasibility assumption (§III-E).

        The problem definition assumes aggregate station resources exceed
        total demand; violating that makes every per-slot ILP infeasible,
        so we fail fast with a clear message.
        """
        needed = total_demand_mb * self.c_unit_mhz
        available = self.total_capacity_mhz()
        if needed > available:
            raise ValueError(
                f"total demand needs {needed:.0f} MHz but the network only has "
                f"{available:.0f} MHz; reduce demand or grow the network "
                "(paper §III-E assumes accumulative resources exceed demand)"
            )
