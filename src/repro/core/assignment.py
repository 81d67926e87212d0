"""Assignments and their realised cost (the paper's objective, Eq. 3).

An :class:`Assignment` says which base station serves each request in one
slot; the services cached at a station follow from the requests assigned
there (constraint 6: `y_{ki} >= x_{li}`).

:func:`evaluate_assignment` computes the realised average delay under the
slot's true demands and unit delays:

    cost = (1/|R|) * ( sum_l rho_l(t) * d_{i(l)}(t) * overload_{i(l)}
                       + sum_{(k,i) cached} d_ins[i,k] )

The overload factor extends Eq. (3) to the prediction setting: a station
whose assigned compute demand exceeds its capacity processes at a
proportionally slower rate (processor sharing), so under-predicted demand
translates into extra delay.  With feasible loads the factor is exactly 1
and the cost coincides with Eq. (3).

:class:`SlotEvaluator` is the batched formulation of the same cost for a
fixed network + request set: the per-run constants (capacities, the
`d_ins` matrix, each request's service index) are assembled once — in an
opt-in ``dtype`` — and each slot reduces to a handful of vectorised
passes over the request vector.  :func:`evaluate_assignment` remains the
one-shot functional spelling and delegates to a throwaway evaluator, so
both paths share one cost definition.
"""

from __future__ import annotations

import operator
from collections.abc import Set
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from repro.mec.network import MECNetwork
from repro.mec.requests import Request

__all__ = ["Assignment", "SlotEvaluator", "evaluate_assignment"]

#: A cached `(service, station)` pair is stored as the one int64 code
#: ``service << _STATION_BITS | station``: codes sort as the pairs do and
#: mean the same pair in every assignment, so two cache sets compare
#: code for code.
_STATION_BITS = 32
_STATION_MASK = (1 << _STATION_BITS) - 1


def service_indices(requests: Sequence[Request]) -> np.ndarray:
    """Vector of ``service_index`` per request (the `k` of each `r_l`)."""
    return np.fromiter(
        (r.service_index for r in requests), dtype=int, count=len(requests)
    )


class CacheSet(Set):
    """Immutable set of `(service, station)` pairs over sorted packed codes.

    Behaves as the frozenset of int pairs it replaces (equal to one with
    the same pairs, same hash), iterates in sorted pair order, and keeps
    one int64 code per pair instead of a tuple of two python ints.
    """

    __slots__ = ("_codes",)

    def __init__(self, codes: np.ndarray):
        self._codes = codes

    @classmethod
    def _from_iterable(cls, pairs: Iterable[Tuple[int, int]]) -> "CacheSet":
        packed = [(int(k) << _STATION_BITS) | int(i) for k, i in pairs]
        return cls(np.unique(np.array(packed, dtype=np.int64)))

    def __len__(self) -> int:
        return int(self._codes.size)

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        for code in self._codes.tolist():
            yield code >> _STATION_BITS, code & _STATION_MASK

    def __contains__(self, pair: Any) -> bool:
        try:
            service, station = map(operator.index, pair)
        except (TypeError, ValueError):
            return False
        if service < 0 or not 0 <= station <= _STATION_MASK:
            return False
        code = (service << _STATION_BITS) | station
        at = int(np.searchsorted(self._codes, code))
        return at < self._codes.size and int(self._codes[at]) == code

    def __and__(self, other: Any) -> Any:
        if isinstance(other, CacheSet):
            return CacheSet(
                np.intersect1d(self._codes, other._codes, assume_unique=True)
            )
        return super().__and__(other)

    def __sub__(self, other: Any) -> Any:
        if isinstance(other, CacheSet):
            return CacheSet(
                np.setdiff1d(self._codes, other._codes, assume_unique=True)
            )
        return super().__sub__(other)

    def __hash__(self) -> int:
        return self._hash()

    def __repr__(self) -> str:
        return f"CacheSet({list(self)!r})"

    def pairs(self) -> np.ndarray:
        """The pairs as a sorted ``(n_pairs, 2)`` int64 array."""
        codes = self._codes
        return np.stack([codes >> _STATION_BITS, codes & _STATION_MASK], axis=1)


@dataclass
class Assignment:
    """Per-slot caching/offloading decision.

    Attributes
    ----------
    station_of:
        ``station_of[l]`` is the base-station index serving request ``l``.
    cached:
        The `(service, station)` pairs with a live instance this slot.
    """

    station_of: np.ndarray
    cached: CacheSet

    @classmethod
    def from_stations(
        cls,
        station_of: Sequence[int],
        requests: Sequence[Request],
        *,
        service_of: Optional[np.ndarray] = None,
    ) -> "Assignment":
        """Build an assignment, deriving the cache set from constraint (6).

        ``service_of`` optionally supplies the precomputed per-request
        service-index vector (see :func:`service_indices`); controllers on
        the hot path pass their cached copy so the cache-set derivation is
        one bincount over integer codes instead of a per-request python
        loop.
        """
        stations = np.asarray(station_of, dtype=int)
        if stations.shape != (len(requests),):
            raise ValueError(
                f"need one station per request ({len(requests)}), got "
                f"shape {stations.shape}"
            )
        if np.any(stations < 0):
            raise ValueError("station indices must be non-negative")
        if service_of is None:
            service_of = service_indices(requests)
        # Distinct (service, station) pairs via a presence bincount over
        # dense codes ``service * base + station`` — O(|R| + #codes)
        # instead of the O(|R| log |R|) sort ``np.unique`` costs, and the
        # code range is tiny (services x stations).  The dense codes come
        # out sorted, and repacking them to the fixed layout keeps that.
        base = int(stations.max()) + 1 if stations.size else 1
        dense = np.nonzero(np.bincount(service_of * base + stations))[0]
        dense = dense.astype(np.int64, copy=False)
        codes = ((dense // base) << _STATION_BITS) | (dense % base)
        return cls(station_of=stations, cached=CacheSet(codes))

    @property
    def n_requests(self) -> int:
        return int(self.station_of.shape[0])

    def stations_used(self) -> np.ndarray:
        """Sorted unique station indices serving at least one request."""
        return np.unique(self.station_of)

    def cached_array(self) -> np.ndarray:
        """The ``cached`` pairs as a sorted ``(n_pairs, 2)`` int array."""
        return self.cached.pairs()

    def loads_mhz(self, demands_mb: np.ndarray, c_unit_mhz: float, n_stations: int) -> np.ndarray:
        """Compute load per station: ``sum_l x_li * rho_l * C_unit`` (Eq. 5 LHS).

        A single ``bincount`` scatter-add over the request vector —
        bit-identical to the former ``np.add.at`` accumulation (both sum
        per station in request order) and much faster at large |R|.

        Floating inputs keep their dtype (so the float32 evaluator path
        computes its weights without a round-trip through float64);
        integer demand vectors are promoted to float64.
        """
        demands_mb = np.asarray(demands_mb)
        if demands_mb.dtype.kind != "f":
            demands_mb = demands_mb.astype(np.float64)
        if demands_mb.shape != (self.n_requests,):
            raise ValueError(
                f"demand vector must have shape ({self.n_requests},), "
                f"got {demands_mb.shape}"
            )
        if self.station_of.size and int(self.station_of.max()) >= n_stations:
            raise ValueError(
                f"assignment references station {int(self.station_of.max())} "
                f"but only {n_stations} stations exist"
            )
        return np.bincount(
            self.station_of,
            weights=demands_mb * c_unit_mhz,
            minlength=n_stations,
        )

    def cache_churn(self, previous: "Assignment") -> int:
        """How many instances this slot are *new* relative to ``previous``."""
        return len(self.cached - previous.cached)


# repro: allow[STATE001] -- only mutates _capacities, a cast of the live network's vector; refresh_capacities() re-reads it after resume
class SlotEvaluator:
    """Structure-cached Eq. (3) evaluation for a fixed network + request set.

    Mirrors :class:`repro.core.fastlp.PerSlotLpSolver`: everything that
    does not change across a horizon (station capacities, the `d_ins`
    instantiation matrix, each request's service index) is assembled once,
    so the per-slot evaluation is pure vectorised numpy over the request
    vector.  ``dtype`` selects the working precision of the cached arrays
    and the processing pass — ``"float32"`` halves memory traffic on
    10^5-request workloads; ``"float64"`` (the default) is bit-identical
    to :func:`evaluate_assignment`'s documented scalar semantics.

    When station capacities change mid-horizon (failure injection), call
    :meth:`refresh_capacities` before evaluating the affected slot.
    """

    def __init__(
        self,
        network: MECNetwork,
        requests: Sequence[Request],
        *,
        dtype: Union[str, np.dtype] = np.float64,
    ):
        if not requests:
            raise ValueError("a SlotEvaluator needs at least one request")
        self._network = network
        self._n = len(requests)
        self._dtype = np.dtype(dtype)
        if self._dtype.kind != "f":
            raise ValueError(f"dtype must be a float dtype, got {self._dtype}")
        self.service_of = service_indices(requests)
        self._d_ins = network.services.instantiation_matrix.astype(
            self._dtype, copy=False
        )
        self._c_unit = float(network.c_unit_mhz)
        self._capacities = network.capacities_mhz.astype(self._dtype, copy=False)

    @property
    def dtype(self) -> np.dtype:
        """Working precision of the cached arrays."""
        return self._dtype

    @property
    def capacities_mhz(self) -> np.ndarray:
        """The cached station-capacity vector (refresh after outages)."""
        return self._capacities

    def refresh_capacities(self) -> None:
        """Re-read live station capacities (they change under failures)."""
        self._capacities = self._network.capacities_mhz.astype(
            self._dtype, copy=False
        )

    def loads_mhz(self, assignment: Assignment, demands_mb: np.ndarray) -> np.ndarray:
        """Per-station compute load of ``assignment`` under ``demands_mb``."""
        return assignment.loads_mhz(
            demands_mb, self._c_unit, self._network.n_stations
        )

    def evaluate(
        self,
        assignment: Assignment,
        demands_mb: np.ndarray,
        unit_delays_ms: np.ndarray,
    ) -> float:
        """Realised average per-request delay of one slot (extended Eq. 3)."""
        demands_mb = np.asarray(demands_mb, dtype=self._dtype)
        unit_delays_ms = np.asarray(unit_delays_ms, dtype=self._dtype)
        n_stations = self._network.n_stations
        if assignment.n_requests != self._n:
            raise ValueError(
                f"assignment covers {assignment.n_requests} requests, "
                f"expected {self._n}"
            )
        if unit_delays_ms.shape != (n_stations,):
            raise ValueError(
                f"unit delay vector must have shape ({n_stations},), "
                f"got {unit_delays_ms.shape}"
            )
        stations = assignment.station_of
        if stations.size and int(stations.max()) >= n_stations:
            raise ValueError("assignment references a station outside the network")

        loads = assignment.loads_mhz(demands_mb, self._c_unit, n_stations).astype(
            self._dtype, copy=False
        )
        overload = np.maximum(loads / self._capacities, 1.0)
        processing = demands_mb * unit_delays_ms[stations] * overload[stations]
        # Instantiation cost: one fancy-indexed gather over the cached
        # (service, station) pairs, summed sequentially in sorted-pair
        # order — the canonical accumulation order the equivalence tests
        # pin (python set iteration order was never defined).
        pairs = assignment.cached_array()
        instantiation = sum(self._d_ins[pairs[:, 1], pairs[:, 0]].tolist())
        return float((processing.sum() + instantiation) / self._n)


def evaluate_assignment(
    assignment: Assignment,
    network: MECNetwork,
    requests: Sequence[Request],
    demands_mb: np.ndarray,
    unit_delays_ms: np.ndarray,
) -> float:
    """Realised average per-request delay of one slot (extended Eq. 3).

    ``demands_mb`` are the slot's *true* demands and ``unit_delays_ms`` the
    realised `d_i(t)`; returns milliseconds.  One-shot spelling of
    :meth:`SlotEvaluator.evaluate` — loops that evaluate many slots over a
    fixed world should hold a :class:`SlotEvaluator` instead.
    """
    if len(requests) != assignment.n_requests:
        raise ValueError(
            f"assignment covers {assignment.n_requests} requests, "
            f"expected {len(requests)}"
        )
    return SlotEvaluator(network, requests).evaluate(
        assignment, demands_mb, unit_delays_ms
    )
