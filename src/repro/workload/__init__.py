"""Bursty user-demand workload: MMPP bursts, flash crowds, synthetic traces.

Implements the demand side of the paper: per-request data volumes
`rho_l(t) = rho_l^bsc + rho_l^bst(t)` (Eq. 1) whose bursty component is
driven by location-correlated burst processes ("a sudden event can easily
cause a lot of user demand on a femtocell network"), plus a synthetic
stand-in for the NYC Wi-Fi hotspot dataset the paper samples user hidden
features from (see DESIGN.md §2).
"""

from repro.workload.bursty import FlashCrowdSchedule, MmppBurstProcess
from repro.workload.demand import BurstyDemandModel, ConstantDemandModel, DemandModel
from repro.workload.features import (
    HiddenFeatures,
    encode_request_locations,
    one_hot,
)
from repro.workload.registry import (
    WORKLOADS,
    WorkloadFactory,
    make_workload,
    register_workload,
    workload_names,
)
from repro.workload.trace import (
    Hotspot,
    UserRecord,
    WifiTrace,
    requests_from_trace,
    synthesize_nyc_wifi_trace,
)

__all__ = [
    "FlashCrowdSchedule",
    "MmppBurstProcess",
    "BurstyDemandModel",
    "ConstantDemandModel",
    "DemandModel",
    "HiddenFeatures",
    "encode_request_locations",
    "one_hot",
    "WORKLOADS",
    "WorkloadFactory",
    "make_workload",
    "register_workload",
    "workload_names",
    "Hotspot",
    "UserRecord",
    "WifiTrace",
    "requests_from_trace",
    "synthesize_nyc_wifi_trace",
]
