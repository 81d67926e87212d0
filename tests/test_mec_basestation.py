"""Tests for base stations and tier profiles."""

import numpy as np
import pytest

from repro.mec.basestation import TIER_PROFILES, BaseStation, BaseStationTier
from repro.mec.geometry import Point


def make_station(tier=BaseStationTier.MICRO, index=0, capacity=6000.0):
    return BaseStation(
        index=index,
        tier=tier,
        position=Point(0.0, 0.0),
        capacity_mhz=capacity,
        bandwidth_mbps=300.0,
    )


class TestTierProfiles:
    def test_all_tiers_present(self):
        assert set(TIER_PROFILES) == set(BaseStationTier)

    def test_paper_capacity_bands(self):
        assert TIER_PROFILES[BaseStationTier.MACRO].capacity_mhz == (8000.0, 16000.0)
        assert TIER_PROFILES[BaseStationTier.MICRO].capacity_mhz == (5000.0, 10000.0)
        assert TIER_PROFILES[BaseStationTier.FEMTO].capacity_mhz == (1000.0, 2000.0)

    def test_paper_radii(self):
        assert TIER_PROFILES[BaseStationTier.MACRO].radius_m == 100.0
        assert TIER_PROFILES[BaseStationTier.MICRO].radius_m == 30.0
        assert TIER_PROFILES[BaseStationTier.FEMTO].radius_m == 15.0

    def test_paper_delay_bands(self):
        assert TIER_PROFILES[BaseStationTier.MACRO].unit_delay_ms == (30.0, 50.0)
        assert TIER_PROFILES[BaseStationTier.MICRO].unit_delay_ms == (10.0, 20.0)
        assert TIER_PROFILES[BaseStationTier.FEMTO].unit_delay_ms == (5.0, 10.0)

    def test_sample_capacity_within_band(self):
        rng = np.random.default_rng(0)
        profile = TIER_PROFILES[BaseStationTier.MACRO]
        for _ in range(100):
            c = profile.sample_capacity(rng)
            assert 8000.0 <= c <= 16000.0

    def test_sample_bandwidth_within_band(self):
        rng = np.random.default_rng(0)
        profile = TIER_PROFILES[BaseStationTier.MICRO]
        for _ in range(100):
            b = profile.sample_bandwidth(rng)
            assert 200.0 <= b <= 500.0


class TestBaseStation:
    def test_covers_inside_radius(self):
        bs = make_station(tier=BaseStationTier.FEMTO)
        assert bs.covers(Point(10.0, 0.0))
        assert not bs.covers(Point(16.0, 0.0))

    def test_covers_at_exact_radius(self):
        bs = make_station(tier=BaseStationTier.MICRO)
        assert bs.covers(Point(30.0, 0.0))

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            make_station(index=-1)

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            make_station(capacity=0.0)
