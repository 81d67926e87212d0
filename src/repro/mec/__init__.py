"""MEC network substrate: topology, base stations, services, delays.

This package models the 5G heterogeneous MEC network `G = (BS, E)` of paper
§III-A: a set of macro / micro / femto base stations, each attached to a
cloudlet with a computing capacity, interconnected by a topology generated
GT-ITM-style (or the AS1755-like "real" topology for Fig. 5/7), with
per-base-station unit-data processing-delay random processes `d_i(t)`.
"""

from repro.mec.basestation import BaseStation, BaseStationTier, TierProfile, TIER_PROFILES
from repro.mec.delay import DelayObservation, DelayProcess, UniformTierDelay, DriftingDelay
from repro.mec.geometry import Point, distance, points_within
from repro.mec.datacenter import RemoteDataCenter, cloud_only_delay_ms
from repro.mec.network import MECNetwork
from repro.mec.registry import (
    TOPOLOGIES,
    TopologyFactory,
    make_topology,
    register_topology,
    topology_names,
)
from repro.mec.requests import Request
from repro.mec.services import Service, ServiceCatalog
from repro.mec.topology import (
    as1755_topology,
    gtitm_topology,
    place_base_stations,
)

__all__ = [
    "BaseStation",
    "BaseStationTier",
    "TierProfile",
    "TIER_PROFILES",
    "DelayObservation",
    "DelayProcess",
    "UniformTierDelay",
    "DriftingDelay",
    "Point",
    "distance",
    "points_within",
    "MECNetwork",
    "RemoteDataCenter",
    "cloud_only_delay_ms",
    "Request",
    "Service",
    "ServiceCatalog",
    "TOPOLOGIES",
    "TopologyFactory",
    "make_topology",
    "register_topology",
    "topology_names",
    "as1755_topology",
    "gtitm_topology",
    "place_base_stations",
]
