"""Network topologies: GT-ITM-style synthetic graphs and an AS1755 stand-in.

The paper generates synthetic topologies with GT-ITM [11], connecting each
pair of base stations with probability 0.1, and additionally evaluates on
the "real network AS1755" (the Rocketfuel-measured EBONE backbone).  GT-ITM
itself is an old C tool; its *flat random* model is an Erdős–Rényi /
Waxman-style generator, which :func:`gtitm_topology` reproduces exactly at
the paper's 0.1 link probability.  :func:`as1755_topology`
deterministically synthesises a graph with AS1755's published scale (87
routers, ~161 links) and a heavy-tailed degree distribution, which
produces the bottleneck links the paper credits for the wider algorithm
gap in Fig. 5 (see DESIGN.md §2 for the substitution rationale).

All generators return a :class:`repro.mec.graph.Graph` whose nodes are
integers ``0..n-1`` and whose edges carry a ``delay_ms`` attribute (link
propagation delay) and a ``bandwidth_mbps`` attribute.
"""

from __future__ import annotations

import itertools
import math
from typing import List, Optional, Sequence

import numpy as np

from repro.mec.basestation import TIER_PROFILES, BaseStation, BaseStationTier
from repro.mec.geometry import Point, random_point_in_disk
from repro.mec.graph import Graph, barabasi_albert_tree, connected_components
from repro.utils.validation import require_positive, require_probability

__all__ = [
    "gtitm_topology",
    "as1755_topology",
    "place_base_stations",
    "AS1755_NODE_COUNT",
    "AS1755_EDGE_COUNT",
]

# Published Rocketfuel scale for AS1755 (EBONE, Europe): 87 routers / 161 links.
AS1755_NODE_COUNT = 87
AS1755_EDGE_COUNT = 161

_DEFAULT_LINK_PROBABILITY = 0.1
_LINK_DELAY_RANGE_MS = (0.5, 3.0)
_LINK_BANDWIDTH_RANGE_MBPS = (200.0, 1000.0)


def _first_two_components(graph: Graph) -> List[List[int]]:
    """The first two components (one when connected), as node lists."""
    return [list(c) for c in itertools.islice(connected_components(graph), 2)]


def _ensure_connected(graph: Graph, rng: np.random.Generator) -> None:
    """Connect components by adding one random edge between each pair.

    GT-ITM retries until connected; adding bridge edges is equivalent for
    our purposes and keeps generation deterministic in the number of draws.
    """
    components = _first_two_components(graph)
    while len(components) > 1:
        a = components[0][int(rng.integers(len(components[0])))]
        b = components[1][int(rng.integers(len(components[1])))]
        graph.add_edge(a, b)
        components = _first_two_components(graph)


def _link_random_pairs(
    graph: Graph,
    nodes: Sequence[int],
    probability: float,
    rng: np.random.Generator,
) -> None:
    """Link each pair of ``nodes`` with ``probability``.

    One coin per pair in ``itertools.combinations`` order, all drawn in
    one call: the same stream as one scalar draw per pair.
    """
    first, second = np.triu_indices(len(nodes), 1)
    linked = rng.uniform(size=first.size) < probability
    labels = np.asarray(nodes)
    for u, v in zip(labels[first[linked]].tolist(), labels[second[linked]].tolist()):
        graph.add_edge(u, v)


def _assign_link_attributes(
    graph: Graph,
    rng: np.random.Generator,
    delay_range_ms: Sequence[float] = _LINK_DELAY_RANGE_MS,
    bandwidth_range_mbps: Sequence[float] = _LINK_BANDWIDTH_RANGE_MBPS,
) -> None:
    """Attach uniform-random ``delay_ms`` / ``bandwidth_mbps`` to every edge.

    One ``(E, 2)`` draw in edge order: the same stream as a delay draw
    then a bandwidth draw per edge.
    """
    edges = list(graph.edges(data=True))
    draws = rng.uniform(
        (delay_range_ms[0], bandwidth_range_mbps[0]),
        (delay_range_ms[1], bandwidth_range_mbps[1]),
        size=(len(edges), 2),
    )
    for (_, _, attributes), (delay, bandwidth) in zip(edges, draws.tolist()):
        attributes["delay_ms"] = delay
        attributes["bandwidth_mbps"] = bandwidth


def gtitm_topology(
    n: int,
    rng: np.random.Generator,
    link_probability: float = _DEFAULT_LINK_PROBABILITY,
) -> Graph:
    """GT-ITM flat random topology: each pair connected with ``link_probability``.

    This is exactly the model the paper states for its synthetic networks
    ("each pair of base station has a probability of 0.1 of being
    connected").  The graph is forced connected by bridging components.
    """
    require_positive("n", n)
    require_probability("link_probability", link_probability)
    graph = Graph()
    graph.add_nodes_from(range(n))
    _link_random_pairs(graph, range(n), link_probability, rng)
    _ensure_connected(graph, rng)
    _assign_link_attributes(graph, rng)
    return graph


def _rocketfuel_like(
    n_nodes: int,
    n_edges: int,
    seed: int,
    rng: Optional[np.random.Generator],
) -> Graph:
    """Synthesise a Rocketfuel-scale backbone (see DESIGN.md §2).

    A preferential-attachment tree gives the power-law hub structure;
    degree-weighted chords then thicken it to the published link count.
    Link delays are drawn with *higher variance* than the synthetic model
    and scale with endpoint degree — hub-adjacent links are the
    bottlenecks.
    """
    local_rng = rng if rng is not None else np.random.default_rng(seed)
    graph = barabasi_albert_tree(n_nodes, seed)
    while graph.number_of_edges() < n_edges:
        degrees = np.array([graph.degree(i) for i in range(n_nodes)], dtype=float)
        weights = degrees / degrees.sum()
        u = int(local_rng.choice(n_nodes, p=weights))
        v = int(local_rng.integers(n_nodes))
        if u == v or graph.has_edge(u, v):
            continue
        graph.add_edge(u, v)
    _assign_link_attributes(graph, local_rng, (0.5, 2.0), (100.0, 600.0))
    degrees = {node: graph.degree(node) for node in graph}
    max_degree = max(degrees.values())
    for u, v, attributes in graph.edges(data=True):
        congestion = (degrees[u] + degrees[v]) / (2.0 * max_degree)
        attributes["delay_ms"] *= 1.0 + 4.0 * congestion
    return graph


def as1755_topology(rng: Optional[np.random.Generator] = None) -> Graph:
    """Deterministic AS1755-scale topology (87 routers, 161 links).

    Rocketfuel's AS1755 (EBONE) backbone has a heavy-tailed degree
    distribution — a few high-degree hubs carrying most paths; this
    synthesis reproduces the published scale and that hub structure,
    which is what creates the bottleneck links the paper credits for
    Fig. 5's wider gap.

    The graph is identical on every call with the default RNG (fixed
    seed); pass ``rng`` only to get randomised variants for robustness
    testing.
    """
    return _rocketfuel_like(AS1755_NODE_COUNT, AS1755_EDGE_COUNT, 1755, rng)


def place_base_stations(
    graph: Graph,
    rng: np.random.Generator,
    macro_fraction: float = 0.1,
    micro_fraction: float = 0.3,
    field_size_m: float = 1000.0,
    anchor_points: Optional[Sequence["Point"]] = None,
) -> List[BaseStation]:
    """Instantiate one :class:`BaseStation` per topology node.

    Mirrors §VI-A's deployment: macro stations sit on a coarse grid across
    the field (the paper deploys "the macro base station in the center"
    of each region), and micro/femto stations are scattered inside the
    coverage disk of their nearest macro station.  Tier capacities and
    bandwidths are drawn from :data:`TIER_PROFILES` bands.

    ``anchor_points`` (typically user hotspots) pull the small cells: when
    given, each micro/femto station is dropped near a random anchor instead
    of a random macro — operators deploy small cells where the traffic is,
    and this is what puts fast femtocells inside users' coverage disks.
    """
    require_probability("macro_fraction", macro_fraction)
    require_probability("micro_fraction", micro_fraction)
    if macro_fraction + micro_fraction > 1.0:
        raise ValueError("macro_fraction + micro_fraction must not exceed 1")
    require_positive("field_size_m", field_size_m)

    n = graph.number_of_nodes()
    n_macro = max(1, round(n * macro_fraction))
    n_micro = round(n * micro_fraction)
    tiers = (
        [BaseStationTier.MACRO] * n_macro
        + [BaseStationTier.MICRO] * n_micro
        + [BaseStationTier.FEMTO] * (n - n_macro - n_micro)
    )

    # Macro stations on a jittered grid so the whole field is covered.
    grid = max(1, math.ceil(math.sqrt(n_macro)))
    cell = field_size_m / grid
    macro_positions: List[Point] = []
    for i in range(n_macro):
        gx, gy = i % grid, i // grid
        cx = (gx + 0.5) * cell + rng.uniform(-0.1, 0.1) * cell
        cy = (gy + 0.5) * cell + rng.uniform(-0.1, 0.1) * cell
        macro_positions.append(Point(cx, cy))

    stations: List[BaseStation] = []
    for index in range(n):
        tier = tiers[index]
        profile = TIER_PROFILES[tier]
        if tier is BaseStationTier.MACRO:
            position = macro_positions[index]
        elif anchor_points:
            anchor = anchor_points[int(rng.integers(len(anchor_points)))]
            spread = 2.0 * profile.radius_m  # near, not on top of, the anchor
            position = random_point_in_disk(anchor, spread, rng)
        else:
            anchor = macro_positions[int(rng.integers(n_macro))]
            macro_radius = TIER_PROFILES[BaseStationTier.MACRO].radius_m
            position = random_point_in_disk(anchor, macro_radius, rng)
        stations.append(
            BaseStation(
                index=index,
                tier=tier,
                position=position,
                capacity_mhz=profile.sample_capacity(rng),
                bandwidth_mbps=profile.sample_bandwidth(rng),
            )
        )
    return stations
