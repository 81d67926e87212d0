"""Differential test of the topology generators against a recorded corpus.

``topology_corpus.npz`` was recorded when the generators ran on networkx
3.6.1.  It holds:

* GT-ITM flat random graphs (n in {8, 16, 50, 200}, including seeds
  whose components had to be bridged, and a sparse n = 200 graph with
  many components), transit-stub graphs (including ones whose stub
  domains had to be bridged), and the AS1755 / AS3967 backbones with the
  default RNG and with an explicit one.  Each graph is stored as its node
  order, every node's neighbours in order, and its edges in iteration
  order with their ``delay_ms`` and ``bandwidth_mbps``;
* ``place_base_stations`` positions, tiers, capacities and bandwidths,
  on a GT-ITM graph and on AS1755 with anchor points;
* ``BackhaulPaths`` distances and paths between every pair of nodes on
  a GT-ITM graph, on AS1755, and on a GT-ITM graph whose delays are
  rounded to half milliseconds, so that shortest paths tie.

The current code must reproduce every array bit for bit.  Running this
file as a script re-records the corpus from the current code.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.mec.geometry import Point
from repro.mec.paths import BackhaulPaths
from repro.mec.topology import (
    as1755_topology,
    as3967_topology,
    gtitm_topology,
    place_base_stations,
    transit_stub_topology,
)

CORPUS = Path(__file__).resolve().parent / "topology_corpus.npz"

#: (n, seed, link probability).  n = 8 and 16 always need bridging, n = 50
#: at seeds 1 and 3; seeds 8, 30 and 33 at n = 16 bridge components whose
#: node sets iterate out of numeric order.
GTITM = [(n, seed, 0.1) for n in (8, 16, 50, 200) for seed in range(4)] + [
    (16, 8, 0.1),
    (16, 30, 0.1),
    (16, 33, 0.1),
    (200, 0, 0.01),
    (200, 4, 0.01),
]
#: ((transit domains, transit size, stubs per transit, stub size), p, seed).
TRANSIT = [((2, 3, 2, 4), 0.6, seed) for seed in range(6)] + [
    ((2, 3, 2, 4), 0.3, 0),
    ((2, 3, 2, 4), 0.3, 1),
    ((3, 4, 3, 6), 0.15, 0),
]
ANCHORS = [Point(200.0, 300.0), Point(700.0, 650.0), Point(500.0, 100.0)]


def graph_arrays(graph):
    nodes = list(graph)
    edges = list(graph.edges(data=True))
    return {
        "nodes": np.array(nodes),
        "degrees": np.array([graph.degree(u) for u in nodes]),
        "neighbours": np.array([v for u in nodes for v in graph.neighbors(u)]),
        "edges": np.array([(u, v) for u, v, _ in edges]).reshape(-1, 2),
        "delay_ms": np.array([data["delay_ms"] for _, _, data in edges]),
        "bandwidth_mbps": np.array([data["bandwidth_mbps"] for _, _, data in edges]),
    }


def placement_arrays(stations):
    return {
        "positions": np.array([(bs.position.x, bs.position.y) for bs in stations]),
        "tiers": np.array([bs.tier.value for bs in stations]),
        "capacity_mhz": np.array([bs.capacity_mhz for bs in stations]),
        "bandwidth_mbps": np.array([bs.bandwidth_mbps for bs in stations]),
    }


def path_arrays(graph):
    paths = BackhaulPaths(graph)
    nodes = list(graph)
    pairs = [(s, t) for s in nodes for t in nodes]
    routes = [paths.path(s, t) for s, t in pairs]
    return {
        "distance_ms": np.array(
            [paths.propagation_delay_ms(s, t) for s, t in pairs]
        ).reshape(len(nodes), len(nodes)),
        "hops": np.array([len(route) - 1 for route in routes]),
        "route_nodes": np.concatenate(routes),
    }


def tied_delays(graph):
    """Round every delay to a positive multiple of 0.5 ms."""
    for _, _, data in graph.edges(data=True):
        data["delay_ms"] = max(0.5, float(int(data["delay_ms"] * 2) / 2))
    return graph


def cases():
    """Case name -> builder of that case's named arrays."""
    builders = {}
    for n, seed, p in GTITM:
        builders[f"gtitm_n{n}_s{seed}_p{p}"] = lambda n=n, seed=seed, p=p: graph_arrays(
            gtitm_topology(n, np.random.default_rng(seed), link_probability=p)
        )
    for shape, p, seed in TRANSIT:
        name = "transit_" + "x".join(map(str, shape)) + f"_p{p}_s{seed}"
        builders[name] = lambda shape=shape, p=p, seed=seed: graph_arrays(
            transit_stub_topology(
                *shape, np.random.default_rng(seed), intra_probability=p
            )
        )
    builders["as1755_default"] = lambda: graph_arrays(as1755_topology())
    builders["as3967_default"] = lambda: graph_arrays(as3967_topology())
    builders["as1755_rng5"] = lambda: graph_arrays(
        as1755_topology(np.random.default_rng(5))
    )
    builders["as3967_rng6"] = lambda: graph_arrays(
        as3967_topology(np.random.default_rng(6))
    )
    builders["placement_gtitm50"] = lambda: placement_arrays(
        place_base_stations(
            gtitm_topology(50, np.random.default_rng(0)), np.random.default_rng(1)
        )
    )
    builders["placement_as1755_anchored"] = lambda: placement_arrays(
        place_base_stations(
            as1755_topology(), np.random.default_rng(2), anchor_points=ANCHORS
        )
    )
    builders["paths_gtitm30"] = lambda: path_arrays(
        gtitm_topology(30, np.random.default_rng(3))
    )
    builders["paths_as1755"] = lambda: path_arrays(as1755_topology())
    builders["paths_ties"] = lambda: path_arrays(
        tied_delays(gtitm_topology(40, np.random.default_rng(4)))
    )
    return builders


CASES = cases()


def record(path=CORPUS):
    arrays = {
        f"{case}/{name}": value
        for case, build in CASES.items()
        for name, value in build().items()
    }
    np.savez_compressed(path, **arrays)


@pytest.fixture(scope="module")
def corpus():
    with np.load(CORPUS) as data:
        return {name: data[name] for name in data.files}


def test_corpus_holds_every_case(corpus):
    assert sorted({name.split("/", 1)[0] for name in corpus}) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_case_matches_corpus(corpus, case):
    arrays = CASES[case]()
    assert sorted(arrays) == sorted(
        name.split("/", 1)[1] for name in corpus if name.startswith(case + "/")
    )
    for name, value in arrays.items():
        recorded = corpus[f"{case}/{name}"]
        assert value.dtype == recorded.dtype, name
        np.testing.assert_array_equal(value, recorded, err_msg=name)


@pytest.mark.parametrize("n, p", [(8, 0.1), (16, 0.1), (50, 0.1), (200, 0.01)])
def test_corpus_exercises_component_bridging(corpus, n, p):
    """Some recorded graph at each size has more edges than its coins linked."""
    bridged = []
    for size, seed, probability in GTITM:
        if (size, probability) != (n, p):
            continue
        coins = np.random.default_rng(seed).uniform(size=n * (n - 1) // 2)
        edges = corpus[f"gtitm_n{n}_s{seed}_p{p}/edges"]
        bridged.append(len(edges) - int((coins < p).sum()))
    assert max(bridged) > 0


if __name__ == "__main__":
    record()
