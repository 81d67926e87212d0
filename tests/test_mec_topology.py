"""Tests for topology generators and base-station placement."""

import numpy as np
import pytest

from repro.mec.basestation import BaseStationTier
from repro.mec.graph import Graph, is_connected
from repro.mec.topology import (
    AS1755_EDGE_COUNT,
    AS1755_NODE_COUNT,
    as1755_topology,
    gtitm_topology,
    place_base_stations,
    transit_stub_topology,
)


def bridges(graph):
    """Edges whose removal disconnects ``graph``."""
    edges = list(graph.edges())
    for cut in edges:
        rest = Graph()
        rest.add_nodes_from(graph)
        for edge in edges:
            if edge != cut:
                rest.add_edge(*edge)
        if not is_connected(rest):
            yield cut


class TestGtitmTopology:
    def test_node_count(self):
        g = gtitm_topology(40, np.random.default_rng(0))
        assert g.number_of_nodes() == 40

    def test_connected(self):
        for seed in range(5):
            g = gtitm_topology(30, np.random.default_rng(seed))
            assert is_connected(g)

    def test_link_probability_controls_density(self):
        rng = np.random.default_rng(1)
        sparse = gtitm_topology(60, rng, link_probability=0.05)
        rng = np.random.default_rng(1)
        dense = gtitm_topology(60, rng, link_probability=0.5)
        assert dense.number_of_edges() > sparse.number_of_edges()

    def test_density_close_to_probability(self):
        n, p = 100, 0.1
        g = gtitm_topology(n, np.random.default_rng(2), link_probability=p)
        possible = n * (n - 1) / 2
        assert abs(g.number_of_edges() / possible - p) < 0.03

    def test_edges_have_attributes(self):
        g = gtitm_topology(20, np.random.default_rng(3))
        for _, _, data in g.edges(data=True):
            assert data["delay_ms"] > 0
            assert data["bandwidth_mbps"] > 0

    def test_deterministic_given_rng(self):
        g1 = gtitm_topology(25, np.random.default_rng(9))
        g2 = gtitm_topology(25, np.random.default_rng(9))
        assert sorted(g1.edges()) == sorted(g2.edges())

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            gtitm_topology(0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            gtitm_topology(10, np.random.default_rng(0), link_probability=1.5)


class TestTransitStub:
    def test_connected_and_sized(self):
        g = transit_stub_topology(2, 3, 2, 4, np.random.default_rng(0))
        # 2 transit domains of 3 + each of the 6 transit nodes hangs 2 stubs of 4
        assert g.number_of_nodes() == 2 * 3 + 6 * 2 * 4
        assert is_connected(g)

    def test_stub_gateways_create_cut_edges(self):
        """Stub domains attach by one gateway edge, so bridges must exist."""
        g = transit_stub_topology(2, 2, 2, 3, np.random.default_rng(1))
        assert any(True for _ in bridges(g))

    def test_edge_attributes_assigned(self):
        g = transit_stub_topology(1, 2, 1, 3, np.random.default_rng(2))
        assert all("delay_ms" in d for _, _, d in g.edges(data=True))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            transit_stub_topology(0, 1, 1, 1, np.random.default_rng(0))


class TestAs1755:
    def test_published_scale(self):
        g = as1755_topology()
        assert g.number_of_nodes() == AS1755_NODE_COUNT == 87
        assert g.number_of_edges() == AS1755_EDGE_COUNT == 161

    def test_deterministic_by_default(self):
        g1, g2 = as1755_topology(), as1755_topology()
        assert sorted(g1.edges()) == sorted(g2.edges())
        d1 = [g1.edge(*e)["delay_ms"] for e in sorted(g1.edges())]
        d2 = [g2.edge(*e)["delay_ms"] for e in sorted(g2.edges())]
        assert d1 == d2

    def test_connected(self):
        assert is_connected(as1755_topology())

    def test_heavy_tailed_degrees(self):
        """The synthesis must produce hub nodes (max degree >> mean degree)."""
        g = as1755_topology()
        degrees = [g.degree(node) for node in g]
        assert max(degrees) >= 4 * (sum(degrees) / len(degrees))

    def test_hub_links_slower(self):
        """Links adjacent to hubs should carry larger delays (bottlenecks)."""
        g = as1755_topology()
        degrees = {node: g.degree(node) for node in g}
        max_deg = max(degrees.values())
        hub_delays = [
            d["delay_ms"]
            for u, v, d in g.edges(data=True)
            if max(degrees[u], degrees[v]) >= 0.8 * max_deg
        ]
        leaf_delays = [
            d["delay_ms"]
            for u, v, d in g.edges(data=True)
            if max(degrees[u], degrees[v]) <= 0.2 * max_deg
        ]
        assert hub_delays and leaf_delays
        assert np.mean(hub_delays) > np.mean(leaf_delays)


class TestPlacement:
    def test_one_station_per_node(self):
        g = gtitm_topology(50, np.random.default_rng(0))
        stations = place_base_stations(g, np.random.default_rng(1))
        assert len(stations) == 50
        assert [bs.index for bs in stations] == list(range(50))

    def test_tier_mix(self):
        g = gtitm_topology(100, np.random.default_rng(0))
        stations = place_base_stations(
            g, np.random.default_rng(1), macro_fraction=0.1, micro_fraction=0.3
        )
        tiers = [bs.tier for bs in stations]
        assert tiers.count(BaseStationTier.MACRO) == 10
        assert tiers.count(BaseStationTier.MICRO) == 30
        assert tiers.count(BaseStationTier.FEMTO) == 60

    def test_at_least_one_macro(self):
        g = gtitm_topology(5, np.random.default_rng(0))
        stations = place_base_stations(g, np.random.default_rng(1), macro_fraction=0.01)
        assert any(bs.tier is BaseStationTier.MACRO for bs in stations)

    def test_capacities_within_tier_bands(self):
        g = gtitm_topology(60, np.random.default_rng(0))
        for bs in place_base_stations(g, np.random.default_rng(1)):
            lo, hi = bs.profile.capacity_mhz
            assert lo <= bs.capacity_mhz <= hi

    def test_small_cells_near_a_macro(self):
        """Micro/femto stations must sit inside some macro's coverage disk."""
        g = gtitm_topology(80, np.random.default_rng(0))
        stations = place_base_stations(g, np.random.default_rng(1))
        macros = [bs for bs in stations if bs.tier is BaseStationTier.MACRO]
        for bs in stations:
            if bs.tier is BaseStationTier.MACRO:
                continue
            assert any(
                m.position.distance_to(bs.position) <= m.radius_m + 1e-9 for m in macros
            )

    def test_fraction_validation(self):
        g = gtitm_topology(10, np.random.default_rng(0))
        with pytest.raises(ValueError):
            place_base_stations(
                g, np.random.default_rng(1), macro_fraction=0.7, micro_fraction=0.7
            )


class TestAs3967:
    def test_published_scale(self):
        from repro.mec.topology import (
            AS3967_EDGE_COUNT,
            AS3967_NODE_COUNT,
            as3967_topology,
        )

        g = as3967_topology()
        assert g.number_of_nodes() == AS3967_NODE_COUNT == 79
        assert g.number_of_edges() == AS3967_EDGE_COUNT == 147

    def test_deterministic_and_connected(self):
        from repro.mec.topology import as3967_topology

        g1, g2 = as3967_topology(), as3967_topology()
        assert sorted(g1.edges()) == sorted(g2.edges())
        assert is_connected(g1)

    def test_distinct_from_as1755(self):
        from repro.mec.topology import as1755_topology, as3967_topology

        a, b = as1755_topology(), as3967_topology()
        assert a.number_of_nodes() != b.number_of_nodes()

    def test_heavy_tailed(self):
        from repro.mec.topology import as3967_topology

        g = as3967_topology()
        degrees = [g.degree(node) for node in g]
        assert max(degrees) >= 4 * (sum(degrees) / len(degrees))
