"""Tests for the MECNetwork facade."""

import numpy as np
import pytest

from repro.mec.basestation import BaseStationTier
from repro.mec.geometry import Point
from repro.mec.network import MECNetwork
from repro.utils.seeding import RngRegistry


@pytest.fixture
def net():
    return MECNetwork.synthetic(40, 5, RngRegistry(seed=10))


class TestSynthetic:
    def test_sizes(self, net):
        assert net.n_stations == 40
        assert net.n_services == 5
        assert net.graph.number_of_nodes() == 40

    def test_reproducible(self):
        a = MECNetwork.synthetic(30, 4, RngRegistry(seed=3))
        b = MECNetwork.synthetic(30, 4, RngRegistry(seed=3))
        np.testing.assert_array_equal(a.capacities_mhz, b.capacities_mhz)
        np.testing.assert_array_equal(a.delays.true_means, b.delays.true_means)
        assert sorted(a.graph.edges()) == sorted(b.graph.edges())

    def test_capacities_vector(self, net):
        caps = net.capacities_mhz
        assert caps.shape == (40,)
        assert np.all(caps > 0)
        assert net.total_capacity_mhz() == pytest.approx(caps.sum())

    def test_tier_counts_sum(self, net):
        assert sum(net.tier_counts().values()) == 40

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            MECNetwork.synthetic(0, 3, RngRegistry(seed=0))
        with pytest.raises(ValueError):
            MECNetwork.synthetic(10, 0, RngRegistry(seed=0))


class TestAs1755Network:
    def test_scale(self):
        net = MECNetwork.as1755(4, RngRegistry(seed=1))
        assert net.n_stations == 87
        assert net.graph.number_of_edges() == 161

    def test_congestion_inflates_hub_delays(self):
        net = MECNetwork.as1755(4, RngRegistry(seed=1), bottleneck_strength=1.0)
        flat = MECNetwork.as1755(4, RngRegistry(seed=1), bottleneck_strength=0.0)
        # Means with bottlenecks dominate the flat means station-by-station.
        assert np.all(net.delays.true_means >= flat.delays.true_means - 1e-9)
        assert net.delays.true_means.mean() > flat.delays.true_means.mean()

    def test_negative_bottleneck_rejected(self):
        with pytest.raises(ValueError):
            MECNetwork.as1755(4, RngRegistry(seed=1), bottleneck_strength=-1.0)


class TestCoverage:
    def test_coverage_count_matches_covering_stations(self, net):
        point = net.stations[0].position
        assert net.coverage_count(point) == len(net.covering_stations(point))

    def test_station_covers_own_position(self, net):
        for bs in net.stations[:10]:
            assert bs.index in net.covering_stations(bs.position)

    def test_far_point_uncovered(self, net):
        assert net.coverage_count(Point(1e8, 1e8)) == 0


class TestValidationAndState:
    def test_mismatched_station_count_rejected(self, net):
        with pytest.raises(ValueError, match="stations"):
            MECNetwork(
                net.graph,
                net.stations[:-1],
                net.services,
                net.delays,
            )

    def test_clear_caches(self, net):
        net.stations[0].cache_service(1)
        net.stations[5].cache_service(2)
        net.clear_caches()
        assert all(not bs.cached_services for bs in net.stations)

    def test_validate_demand_fits_passes_small(self, net):
        net.validate_demand_fits(total_demand_mb=1.0)

    def test_validate_demand_fits_raises_large(self, net):
        huge = net.total_capacity_mhz() / net.c_unit_mhz + 1.0
        with pytest.raises(ValueError, match="MHz"):
            net.validate_demand_fits(total_demand_mb=huge)

    def test_c_unit_positive(self, net):
        with pytest.raises(ValueError):
            MECNetwork(net.graph, net.stations, net.services, net.delays, c_unit_mhz=0.0)
