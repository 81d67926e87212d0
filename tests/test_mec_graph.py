"""Tests for the backhaul graph and its algorithms (repro.mec.graph).

Bit-identity with the networkx-built worlds is pinned by
``tests/test_topology_corpus.py``; these tests pin the contract itself.
"""

import pytest

from repro.mec.graph import (
    Graph,
    barabasi_albert_tree,
    connected_components,
    is_connected,
)


def path_graph(n):
    graph = Graph()
    for u in range(n - 1):
        graph.add_edge(u, u + 1, delay_ms=1.0)
    return graph


class TestGraph:
    def test_both_ends_share_one_attribute_dict(self):
        graph = Graph()
        graph.add_edge(0, 1, delay_ms=2.0)
        graph.edge(1, 0)["bandwidth_mbps"] = 300.0
        assert graph.edge(0, 1) == {"delay_ms": 2.0, "bandwidth_mbps": 300.0}
        assert graph.edge(0, 1) is graph.edge(1, 0)

    def test_re_adding_an_edge_updates_it_in_place(self):
        graph = Graph()
        graph.add_edge(0, 1, delay_ms=2.0)
        graph.add_edge(0, 2)
        graph.add_edge(1, 0, bandwidth_mbps=5.0)
        assert list(graph.neighbors(0)) == [1, 2]
        assert graph.edge(0, 1) == {"delay_ms": 2.0, "bandwidth_mbps": 5.0}
        assert graph.number_of_edges() == 2

    def test_edges_in_insertion_order_each_once(self):
        graph = Graph()
        graph.add_nodes_from([3, 0])
        graph.add_edge(0, 2)
        graph.add_edge(3, 0)
        graph.add_edge(2, 3, delay_ms=1.0)
        assert list(graph) == [3, 0, 2]
        assert list(graph.edges()) == [(3, 0), (3, 2), (0, 2)]
        assert list(graph.edges(data=True))[1] == (3, 2, {"delay_ms": 1.0})

    def test_sizes_and_degrees(self):
        graph = path_graph(4)
        graph.add_node(9)
        assert len(graph) == graph.number_of_nodes() == 5
        assert graph.number_of_edges() == 3
        assert [graph.degree(node) for node in graph] == [1, 2, 2, 1, 0]
        assert 9 in graph and 10 not in graph
        assert graph.has_edge(2, 1) and not graph.has_edge(0, 2)


class TestComponents:
    def test_components_in_node_order(self):
        graph = path_graph(3)
        graph.add_edge(5, 4)
        graph.add_node(7)
        assert list(connected_components(graph)) == [{0, 1, 2}, {5, 4}, {7}]

    def test_restricted_to_an_induced_subgraph(self):
        graph = path_graph(5)  # 0-1-2-3-4: dropping 2 splits {0, 1} from {3, 4}
        components = list(connected_components(graph, [0, 1, 3, 4]))
        assert sorted(map(sorted, components)) == [[0, 1], [3, 4]]
        assert list(connected_components(graph, [4])) == [{4}]

    def test_is_connected(self):
        graph = path_graph(3)
        assert is_connected(graph)
        graph.add_node(3)
        assert not is_connected(graph)
        with pytest.raises(ValueError):
            is_connected(Graph())


class TestBarabasiAlbertTree:
    @pytest.mark.parametrize("n", [2, 3, 87])
    def test_spanning_tree(self, n):
        graph = barabasi_albert_tree(n, seed=1755)
        assert list(graph) == list(range(n))
        assert graph.number_of_edges() == n - 1
        assert is_connected(graph)

    def test_seeded(self):
        a, b = barabasi_albert_tree(50, seed=3), barabasi_albert_tree(50, seed=3)
        assert list(a.edges()) == list(b.edges())
        assert list(a.edges()) != list(barabasi_albert_tree(50, seed=4).edges())

    def test_needs_two_nodes(self):
        with pytest.raises(ValueError):
            barabasi_albert_tree(1, seed=0)
