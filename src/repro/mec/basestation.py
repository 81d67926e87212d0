"""Base stations and the three 5G tiers of paper §VI-A.

Each base station `bs_i` carries a cloudlet with computing capacity
`C(bs_i)` (MHz), a coverage radius, and a per-tier band for the mean
unit-data processing delay used to parameterise its delay process
`d_i(t)`:

===========  ============  ==============  ===========  ==================
tier         capacity MHz  bandwidth Mbps  radius m     mean delay band ms
===========  ============  ==============  ===========  ==================
MACRO        8000-16000    500-1000        100          30-50
MICRO        5000-10000    200-500         30           10-20
FEMTO        1000-2000     1000-2000 (*)   15           5-10
===========  ============  ==============  ===========  ==================

(*) §VI-A gives femto "computing and bandwidth capacities in the ranges of
[1,000, 2,000]" — we read both from the same band as written.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.mec.geometry import Point
from repro.utils.validation import require_non_negative, require_positive

__all__ = ["BaseStationTier", "TierProfile", "TIER_PROFILES", "BaseStation"]


class BaseStationTier(enum.Enum):
    """The three base-station classes considered in the evaluation."""

    MACRO = "macro"
    MICRO = "micro"
    FEMTO = "femto"


@dataclass(frozen=True)
class TierProfile:
    """Static per-tier parameter bands (paper §VI-A)."""

    tier: BaseStationTier
    capacity_mhz: Tuple[float, float]
    bandwidth_mbps: Tuple[float, float]
    radius_m: float
    unit_delay_ms: Tuple[float, float]

    def sample_capacity(self, rng: np.random.Generator) -> float:
        """Draw a computing capacity uniformly from the tier band."""
        low, high = self.capacity_mhz
        return float(rng.uniform(low, high))

    def sample_bandwidth(self, rng: np.random.Generator) -> float:
        """Draw a bandwidth capacity uniformly from the tier band."""
        low, high = self.bandwidth_mbps
        return float(rng.uniform(low, high))


TIER_PROFILES: Dict[BaseStationTier, TierProfile] = {
    BaseStationTier.MACRO: TierProfile(
        tier=BaseStationTier.MACRO,
        capacity_mhz=(8000.0, 16000.0),
        bandwidth_mbps=(500.0, 1000.0),
        radius_m=100.0,
        unit_delay_ms=(30.0, 50.0),
    ),
    BaseStationTier.MICRO: TierProfile(
        tier=BaseStationTier.MICRO,
        capacity_mhz=(5000.0, 10000.0),
        bandwidth_mbps=(200.0, 500.0),
        radius_m=30.0,
        unit_delay_ms=(10.0, 20.0),
    ),
    BaseStationTier.FEMTO: TierProfile(
        tier=BaseStationTier.FEMTO,
        capacity_mhz=(1000.0, 2000.0),
        bandwidth_mbps=(1000.0, 2000.0),
        radius_m=15.0,
        unit_delay_ms=(5.0, 10.0),
    ),
}


@dataclass
class BaseStation:
    """A base station `bs_i` with its attached cloudlet.

    Attributes
    ----------
    index:
        Position of this station in the network's station list; also the
        bandit arm index used by the learning algorithms.
    tier:
        MACRO / MICRO / FEMTO.
    position:
        Deployment-plane location in metres.
    capacity_mhz:
        Cloudlet computing capacity `C(bs_i)`.
    bandwidth_mbps:
        Backhaul/radio bandwidth capacity.
    """

    index: int
    tier: BaseStationTier
    position: Point
    capacity_mhz: float
    bandwidth_mbps: float

    def __post_init__(self) -> None:
        require_non_negative("index", self.index)
        require_positive("capacity_mhz", self.capacity_mhz)
        require_positive("bandwidth_mbps", self.bandwidth_mbps)

    @property
    def profile(self) -> TierProfile:
        """The static tier profile of this station."""
        return TIER_PROFILES[self.tier]

    @property
    def radius_m(self) -> float:
        """Coverage radius in metres."""
        return self.profile.radius_m

    def covers(self, point: Point) -> bool:
        """True when ``point`` lies within this station's coverage disk."""
        return self.position.distance_to(point) <= self.radius_m
