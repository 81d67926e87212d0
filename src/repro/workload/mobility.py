"""User mobility: the third hidden feature the paper names (§I).

"Mobile users usually have various dynamic hidden features, such as their
locations, user group tags, and mobility patterns."  The shipped
experiments keep users static within a horizon (as the paper's evaluation
implicitly does); this module provides the substrate for mobility-aware
extensions: a hotspot-hopping waypoint model whose per-slot positions are
slot-keyed deterministic, plus a Pri_GD variant that re-derives its
coverage priorities from the moving positions every slot.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.assignment import Assignment
from repro.core.priority import PriorityController
from repro.mec.geometry import Point, random_point_in_disk
from repro.mec.network import MECNetwork
from repro.mec.requests import Request
from repro.utils.validation import require_positive

__all__ = ["HotspotHoppingMobility", "MobilePriorityController"]


# repro: allow[STATE001] -- only mutates lazily-extended itinerary caches that are pure functions of (seed, user); regrown bit-identically after resume
class HotspotHoppingMobility:
    """Users dwell at a hotspot, then hop to a uniformly random other one.

    Per user: dwell times are drawn uniformly from ``dwell_range`` slots;
    while dwelling, the position is a fixed jittered offset near the
    hotspot (people do not teleport within a venue).  The whole itinerary
    of a user is a deterministic function of `(seed, user)` so positions
    are reproducible and order-independent.
    """

    def __init__(
        self,
        hotspot_locations: Sequence[Point],
        n_users: int,
        rng: np.random.Generator,
        dwell_range: Tuple[int, int] = (5, 15),
        jitter_m: float = 10.0,
        initial_hotspots: Optional[Sequence[int]] = None,
    ):
        if not hotspot_locations:
            raise ValueError("need at least one hotspot location")
        require_positive("n_users", n_users)
        low, high = dwell_range
        if not (isinstance(low, (int, np.integer)) and isinstance(high, (int, np.integer))):
            raise ValueError("dwell_range must be integer slots")
        if low < 1 or high < low:
            raise ValueError(f"dwell_range must be (low>=1, high>=low), got {dwell_range}")
        if jitter_m < 0:
            raise ValueError("jitter_m must be >= 0")
        self._hotspots = list(hotspot_locations)
        self._n_users = int(n_users)
        self._dwell = (int(low), int(high))
        self._jitter = float(jitter_m)
        self._seed = int(rng.integers(2**63 - 1))
        if initial_hotspots is not None:
            starts = list(initial_hotspots)
            if len(starts) != n_users:
                raise ValueError(
                    f"initial_hotspots must have one entry per user "
                    f"({n_users}), got {len(starts)}"
                )
            if any(not 0 <= h < len(self._hotspots) for h in starts):
                raise ValueError("initial hotspot index out of range")
            self._starts = [int(h) for h in starts]
        else:
            start_rng = np.random.default_rng((self._seed, 0))
            self._starts = [
                int(h) for h in start_rng.integers(0, len(self._hotspots), n_users)
            ]
        # Per-user itinerary cache: list of (hotspot, end_slot_exclusive).
        # Each user owns a persistent generator; legs are always appended
        # in order, so the realised itinerary is independent of the order
        # in which slots are queried.
        self._itineraries: Dict[int, List[Tuple[int, int]]] = {}
        self._user_rngs: Dict[int, np.random.Generator] = {}

    @property
    def n_users(self) -> int:
        return self._n_users

    @property
    def n_hotspots(self) -> int:
        return len(self._hotspots)

    def _extend_itinerary(self, user: int, slot: int) -> List[Tuple[int, int]]:
        legs = self._itineraries.setdefault(user, [])
        if user not in self._user_rngs:
            self._user_rngs[user] = np.random.default_rng((self._seed, 1, user))
        user_rng = self._user_rngs[user]
        if not legs:
            dwell = int(user_rng.integers(self._dwell[0], self._dwell[1] + 1))
            legs.append((self._starts[user], dwell))
        while legs[-1][1] <= slot:
            current, end = legs[-1]
            if self.n_hotspots == 1:
                nxt = current
            else:
                nxt = int(user_rng.integers(0, self.n_hotspots - 1))
                if nxt >= current:
                    nxt += 1  # uniform over the *other* hotspots
            dwell = int(user_rng.integers(self._dwell[0], self._dwell[1] + 1))
            legs.append((nxt, end + dwell))
        return legs

    def hotspot_of(self, user: int, slot: int) -> int:
        """Which hotspot ``user`` is at in ``slot``."""
        if not 0 <= user < self._n_users:
            raise IndexError(f"user {user} out of range [0, {self._n_users})")
        if slot < 0:
            raise ValueError(f"slot must be >= 0, got {slot}")
        legs = self._extend_itinerary(user, slot)
        for hotspot, end in legs:
            if slot < end:
                return hotspot
        raise AssertionError("itinerary extension failed")  # pragma: no cover

    def position_of(self, user: int, slot: int) -> Point:
        """The user's position in ``slot``: its hotspot plus a fixed offset.

        The jitter offset is per (user, hotspot-visit-index) so a user
        keeps one spot for a whole dwell and picks a new one on return.
        """
        self.hotspot_of(user, slot)  # validates args, extends the itinerary
        legs = self._itineraries[user]
        leg_index = next(
            i for i, (_, end) in enumerate(legs) if slot < end
        )
        hotspot_index = legs[leg_index][0]
        anchor = self._hotspots[hotspot_index]
        offset_rng = np.random.default_rng((self._seed, 2, user, leg_index))
        return random_point_in_disk(anchor, self._jitter, offset_rng)

    def positions_at(self, slot: int) -> List[Point]:
        """Positions of every user in ``slot``."""
        return [self.position_of(user, slot) for user in range(self._n_users)]


class MobilePriorityController(PriorityController):
    """`Pri_GD` re-deriving coverage priorities from moving users.

    The static `Pri_GD` computes its coverage counts once; under mobility
    those go stale.  This variant queries a
    :class:`HotspotHoppingMobility` each slot (user `l` is request `l`)
    and rebuilds priorities and covering sets before assigning.
    """

    name = "Pri_GD_mobile"

    def __init__(
        self,
        network: MECNetwork,
        requests: Sequence[Request],
        rng: np.random.Generator,
        mobility: HotspotHoppingMobility,
    ):
        if mobility.n_users != len(requests):
            raise ValueError(
                f"mobility covers {mobility.n_users} users, need {len(requests)}"
            )
        super().__init__(network, requests, rng)
        self._mobility = mobility

    def decide(self, slot: int, demands: Optional[np.ndarray]) -> Assignment:
        positions = self._mobility.positions_at(slot)
        self._set_coverage(self.network.covering_stations_at(positions))
        return super().decide(slot, demands)
