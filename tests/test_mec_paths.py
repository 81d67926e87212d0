"""Tests for backhaul paths and the transport-aware cost extension."""

import numpy as np
import pytest

from repro.core import Assignment, evaluate_assignment, evaluate_with_transport
from repro.mec import BackhaulPaths, MECNetwork, access_station
from repro.mec.graph import Graph, NoPath
from repro.mec.geometry import Point
from repro.mec.requests import Request
from repro.utils.seeding import RngRegistry


def line_graph():
    """0 -1ms- 1 -2ms- 2, bandwidths 800 / 400 Mbps."""
    graph = Graph()
    graph.add_edge(0, 1, delay_ms=1.0, bandwidth_mbps=800.0)
    graph.add_edge(1, 2, delay_ms=2.0, bandwidth_mbps=400.0)
    return graph


class TestBackhaulPaths:
    def test_propagation_delay(self):
        paths = BackhaulPaths(line_graph())
        assert paths.propagation_delay_ms(0, 2) == pytest.approx(3.0)
        assert paths.propagation_delay_ms(2, 0) == pytest.approx(3.0)

    def test_same_node_zero(self):
        paths = BackhaulPaths(line_graph())
        assert paths.propagation_delay_ms(1, 1) == 0.0
        assert paths.transfer_delay_ms(1, 1, 10.0) == 0.0
        assert paths.path(1, 1) == [1]

    def test_path_nodes(self):
        paths = BackhaulPaths(line_graph())
        assert paths.path(0, 2) == [0, 1, 2]
        assert paths.hop_count(0, 2) == 2

    def test_transfer_includes_serialization(self):
        paths = BackhaulPaths(line_graph())
        data_mb = 10.0
        # serialization: 10*8/800 s + 10*8/400 s = 0.1 + 0.2 s = 300 ms
        expected = 3.0 + 300.0
        assert paths.transfer_delay_ms(0, 2, data_mb) == pytest.approx(expected)

    def test_shortest_by_delay_not_hops(self):
        graph = line_graph()
        graph.add_edge(0, 2, delay_ms=10.0, bandwidth_mbps=1000.0)  # direct but slow
        paths = BackhaulPaths(graph)
        assert paths.path(0, 2) == [0, 1, 2]

    def test_unknown_node_raises(self):
        paths = BackhaulPaths(line_graph())
        with pytest.raises(KeyError):
            paths.propagation_delay_ms(9, 0)

    def test_disconnected_raises(self):
        graph = line_graph()
        graph.add_node(9)
        paths = BackhaulPaths(graph)
        with pytest.raises(NoPath):
            paths.path(0, 9)

    def test_missing_attributes_rejected(self):
        graph = Graph()
        graph.add_edge(0, 1)
        with pytest.raises(ValueError, match="delay_ms"):
            BackhaulPaths(graph)

    def test_negative_data_rejected(self):
        paths = BackhaulPaths(line_graph())
        with pytest.raises(ValueError):
            paths.transfer_delay_ms(0, 2, -1.0)


class TestAccessStation:
    @pytest.fixture
    def network(self):
        return MECNetwork.synthetic(20, 2, RngRegistry(seed=4))

    def test_covered_user_gets_nearest_covering(self, network):
        bs = network.stations[0]
        station = access_station(network, bs.position)
        assert bs.covers(network.stations[station].position) or station == bs.index
        # The chosen station must cover the point.
        assert network.stations[station].covers(bs.position)

    def test_uncovered_user_gets_nearest(self, network):
        far = Point(1e6, 1e6)
        station = access_station(network, far)
        distances = [
            s.position.distance_to(far) for s in network.stations
        ]
        assert station == int(np.argmin(distances))


class TestEvaluateWithTransport:
    @pytest.fixture
    def setting(self):
        rngs = RngRegistry(seed=6)
        network = MECNetwork.synthetic(10, 2, rngs)
        requests = [
            Request(
                index=i,
                service_index=i % 2,
                basic_demand_mb=1.0,
                location=network.stations[i].position,
            )
            for i in range(3)
        ]
        demands = np.ones(3)
        return network, requests, demands

    def test_transport_cost_is_additive(self, setting):
        network, requests, demands = setting
        paths = BackhaulPaths(network.graph)
        assignment = Assignment.from_stations([5, 6, 7], requests)
        d_t = network.delays.sample(0)
        base = evaluate_assignment(assignment, network, requests, demands, d_t)
        extended = evaluate_with_transport(
            assignment, network, requests, demands, d_t, paths
        )
        assert extended > base

    def test_local_serving_costs_less_transport(self, setting):
        """Serving at the access station avoids the backhaul leg."""
        network, requests, demands = setting
        paths = BackhaulPaths(network.graph)
        d_t = network.delays.sample(0)
        accesses = [access_station(network, r.location) for r in requests]
        local = Assignment.from_stations(accesses, requests)
        remote_station = max(
            range(network.n_stations),
            key=lambda i: paths.hop_count(accesses[0], i),
        )
        remote = Assignment.from_stations([remote_station] * 3, requests)

        local_transport = evaluate_with_transport(
            local, network, requests, demands, d_t, paths
        ) - evaluate_assignment(local, network, requests, demands, d_t)
        remote_transport = evaluate_with_transport(
            remote, network, requests, demands, d_t, paths
        ) - evaluate_assignment(remote, network, requests, demands, d_t)
        assert local_transport < remote_transport
