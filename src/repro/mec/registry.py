"""Named topology factories: ``make_topology``.

The topology counterpart of :func:`repro.core.make_controller`: every
network construction recipe the experiments and campaign specs use is
registered by name, the name is stamped onto the built network
(``network.topology_name``) and enforced as its identity — what a
:class:`repro.campaigns.CampaignSpec` stores for a cell is exactly the
name the cell's network reports.

Factories are called as ``factory(rngs, n_stations=..., n_services=...,
anchor_points=..., **options)``.  Synthetic families honour
``n_stations``; the fixed real topology ``as1755`` ignores a ``None``
request and rejects a mismatching explicit one, so a spec that pins a
station count cannot silently run on a different-sized world.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence, Tuple

from repro.mec.geometry import Point
from repro.mec.network import MECNetwork
from repro.utils.registry import Registry
from repro.utils.seeding import RngRegistry

__all__ = [
    "TOPOLOGIES",
    "TopologyFactory",
    "register_topology",
    "topology_names",
    "make_topology",
]

TopologyFactory = Callable[..., MECNetwork]

#: The topology registry instance (names are campaign-spec identities).
TOPOLOGIES: Registry[MECNetwork] = Registry(
    "topology",
    identity=lambda network: getattr(network, "topology_name", None),
)


def register_topology(name: str, factory: TopologyFactory) -> None:
    """Register ``factory`` under ``name`` (must be new and non-empty).

    The built network must carry ``topology_name == name`` —
    :func:`make_topology` enforces it, mirroring the controller registry.
    """
    TOPOLOGIES.register(name, factory)


def topology_names() -> Tuple[str, ...]:
    """All registered topology names, sorted."""
    return TOPOLOGIES.names()


def make_topology(
    name: str,
    rngs: RngRegistry,
    *,
    n_stations: Optional[int] = None,
    n_services: int,
    anchor_points: Optional[Sequence[Point]] = None,
    **options: Any,
) -> MECNetwork:
    """Build the network registered under ``name``.

    ``rngs`` is the repetition's seeding registry (topology generation,
    placement, services and baseline delays each read their own named
    stream); ``options`` are the factory's own tuning parameters
    (e.g. ``link_probability`` for ``gtitm``, ``bottleneck_strength`` for
    ``as1755``), forwarded verbatim.
    """
    return TOPOLOGIES.make(
        name,
        rngs,
        n_stations=n_stations,
        n_services=n_services,
        anchor_points=anchor_points,
        **options,
    )


def _stamped(network: MECNetwork, name: str) -> MECNetwork:
    network.topology_name = name
    return network


def _gtitm(
    rngs: RngRegistry,
    *,
    n_stations: Optional[int] = None,
    n_services: int,
    anchor_points: Optional[Sequence[Point]] = None,
    **options: Any,
) -> MECNetwork:
    """GT-ITM-style synthetic network (paper §VI-A, default 30 stations)."""
    network = MECNetwork.synthetic(
        n_stations if n_stations is not None else 30,
        n_services,
        rngs,
        anchor_points=anchor_points,
        **options,
    )
    return _stamped(network, "gtitm")


def _as1755(
    rngs: RngRegistry,
    *,
    n_stations: Optional[int] = None,
    n_services: int,
    anchor_points: Optional[Sequence[Point]] = None,
    **options: Any,
) -> MECNetwork:
    """AS1755 real topology (fixed size; rejects a mismatching request)."""
    network = MECNetwork.as1755(
        n_services, rngs, anchor_points=anchor_points, **options
    )
    if n_stations is not None and n_stations != network.n_stations:
        raise ValueError(
            f"topology 'as1755' has exactly {network.n_stations} stations; "
            f"a spec requesting n_stations={n_stations} cannot run on it"
        )
    return _stamped(network, "as1755")


register_topology("gtitm", _gtitm)
register_topology("as1755", _as1755)
