"""Differential test of the topology generators against a recorded corpus.

``topology_corpus.npz`` was recorded when the generators ran on networkx
3.6.1.  It holds:

* GT-ITM flat random graphs (n in {8, 16, 50, 200}, including seeds
  whose components had to be bridged, and a sparse n = 200 graph with
  many components) and the AS1755 backbone with the default RNG and with
  an explicit one.  Each graph is stored as its node order, every node's
  neighbours in order, and its edges in iteration order with their
  ``delay_ms`` and ``bandwidth_mbps``;
* ``place_base_stations`` positions, tiers, capacities and bandwidths,
  on a GT-ITM graph and on AS1755 with anchor points.

The current code must reproduce every array bit for bit.  Running this
file as a script re-records the corpus from the current code.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.mec.geometry import Point
from repro.mec.topology import as1755_topology, gtitm_topology, place_base_stations

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


def cases():
    """Case name -> builder of that case's named arrays."""
    builders = {}
    for n, seed, p in GTITM:
        builders[f"gtitm_n{n}_s{seed}_p{p}"] = lambda n=n, seed=seed, p=p: graph_arrays(
            gtitm_topology(n, np.random.default_rng(seed), link_probability=p)
        )
    builders["as1755_default"] = lambda: graph_arrays(as1755_topology())
    builders["as1755_rng5"] = lambda: graph_arrays(
        as1755_topology(np.random.default_rng(5))
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
