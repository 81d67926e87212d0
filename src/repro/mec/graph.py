"""Undirected backhaul graphs and the few graph algorithms the topologies use.

A :class:`Graph` is stored the way networkx stores one: an
insertion-ordered dict mapping each node to an insertion-ordered dict of
its neighbours, where both ends of an edge share one attribute dict.
Node, neighbour and edge iteration therefore follow insertion order.

The algorithms follow networkx 3.6.1 step for step, so a seed builds the
same world it built when the repo used networkx:

* :func:`connected_components` is networkx's level-by-level BFS, with the
  same set-insertion order and the same early exit; restricted to a node
  subset, it visits nodes in the order a networkx subgraph view does;
* :func:`barabasi_albert_tree` draws from ``random.Random(seed)`` over
  networkx's star start graph and its repeated-node list.

``tests/test_topology_corpus.py`` replays a corpus recorded with networkx
3.6.1 bit for bit.
"""

from __future__ import annotations

# repro: allow[DET003] -- a local Random(seed) instance, never the global one; it reproduces networkx's preferential-attachment draws
from random import Random
from typing import Collection, Dict, Iterable, Iterator, Optional, Set

__all__ = [
    "Graph",
    "barabasi_albert_tree",
    "connected_components",
    "is_connected",
]

Attributes = Dict[str, float]


class Graph:
    """Undirected simple graph with one shared attribute dict per edge."""

    __slots__ = ("_adj",)

    def __init__(self) -> None:
        self._adj: Dict[int, Dict[int, Attributes]] = {}

    def __len__(self) -> int:
        return len(self._adj)

    def __iter__(self) -> Iterator[int]:
        return iter(self._adj)

    def __contains__(self, node: object) -> bool:
        return node in self._adj

    def add_node(self, node: int) -> None:
        self._adj.setdefault(node, {})

    def add_nodes_from(self, nodes: Iterable[int]) -> None:
        for node in nodes:
            self._adj.setdefault(node, {})

    def add_edge(self, u: int, v: int, **attributes: float) -> None:
        """Add ``u``–``v`` (and missing endpoints); update its attributes."""
        u_neighbours = self._adj.setdefault(u, {})
        v_neighbours = self._adj.setdefault(v, {})
        data = u_neighbours.get(v, {})
        data.update(attributes)
        u_neighbours[v] = data
        v_neighbours[u] = data

    def has_edge(self, u: int, v: int) -> bool:
        return u in self._adj and v in self._adj[u]

    def edge(self, u: int, v: int) -> Attributes:
        """The attribute dict of edge ``u``–``v`` (shared, so writable)."""
        return self._adj[u][v]

    def neighbors(self, node: int) -> Iterator[int]:
        return iter(self._adj[node])

    def degree(self, node: int) -> int:
        neighbours = self._adj[node]
        return len(neighbours) + (node in neighbours)

    def number_of_nodes(self) -> int:
        return len(self._adj)

    def number_of_edges(self) -> int:
        return sum(self.degree(node) for node in self._adj) // 2

    def edges(self, data: bool = False) -> Iterator[tuple]:
        """Each edge once, as ``(u, v)`` or ``(u, v, attributes)``.

        Nodes in insertion order, each with its neighbours not yet
        visited, in insertion order: networkx's edge-view order.
        """
        visited: Set[int] = set()
        for u, neighbours in self._adj.items():
            for v, attributes in neighbours.items():
                if v not in visited:
                    yield (u, v, attributes) if data else (u, v)
            visited.add(u)


def _plain_bfs(
    adj: Dict[int, Dict[int, Attributes]],
    source: int,
    remaining: int,
    keep: Optional[Set[int]],
) -> Set[int]:
    """The component of ``source``; stops once ``remaining`` nodes are seen."""
    seen = {source}
    next_level = [source]
    while next_level:
        this_level = next_level
        next_level = []
        for v in this_level:
            for w in adj[v]:
                if w not in seen and (keep is None or w in keep):
                    seen.add(w)
                    next_level.append(w)
            if len(seen) == remaining:
                return seen
    return seen


def connected_components(
    graph: Graph, nodes: Optional[Iterable[int]] = None
) -> Iterator[Set[int]]:
    """Node sets of the connected components, found lazily.

    With ``nodes``, the components of the subgraph those nodes induce.
    Like a networkx subgraph view, that visits start nodes in the order
    of ``set(nodes)`` when it is under half the graph, else in graph
    order.
    """
    adj = graph._adj
    keep: Optional[Set[int]] = None
    order: Collection[int] = adj
    if nodes is not None:
        keep = {node for node in nodes if node in adj}
        order = keep if 2 * len(keep) < len(adj) else [v for v in adj if v in keep]
    total = len(order)
    seen: Set[int] = set()
    for v in order:
        if v not in seen:
            component = _plain_bfs(adj, v, total - len(seen), keep)
            seen.update(component)
            yield component


def is_connected(graph: Graph) -> bool:
    if not len(graph):
        raise ValueError("connectivity is undefined for the empty graph")
    return len(next(connected_components(graph))) == len(graph)


def barabasi_albert_tree(n: int, seed: int) -> Graph:
    """Preferential-attachment tree: networkx's ``barabasi_albert_graph(n, 1, seed)``.

    Starts from the edge 0–1 and attaches node ``k`` to a node drawn
    uniformly from the list holding every node once per incident edge.
    """
    if n < 2:
        raise ValueError(f"a Barabási–Albert tree needs n >= 2 nodes, got {n}")
    rng = Random(seed)
    graph = Graph()
    graph.add_edge(0, 1)
    repeated = [0, 1]
    for node in range(2, n):
        target = rng.choice(repeated)
        graph.add_edge(node, target)
        repeated.extend((target, node))
    return graph
