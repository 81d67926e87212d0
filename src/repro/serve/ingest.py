"""Bounded per-slot ingest buffer with rejection accounting.

Offers (one user request worth of demand for the *current* slot) arrive
asynchronously from protocol handler threads; the slot clock drains the
buffer into a dense demand vector when the slot closes.  The buffer is
bounded: once ``limit`` offers are pending, further offers are rejected
and counted — admission control is part of the serving contract (the
queue/rejection metrics icarus-style evaluations report), not an error.

Determinism note: the demand vector is accumulated in *arrival order*,
and a warm restart restores the pending offers in that same order, so
the float summation order — and therefore the resumed decision trace —
is bit-identical to an uninterrupted run fed the same offers.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

__all__ = ["Offer", "SlotBuffer"]


@dataclass(frozen=True)
class Offer:
    """One ingested request: ``volume_mb`` of demand for ``request``."""

    request: int
    volume_mb: float


class SlotBuffer:
    """Thread-safe bounded buffer of the open slot's offers.

    Parameters
    ----------
    n_requests:
        Size of the demand vector; offers must reference a request index
        in ``[0, n_requests)``.
    limit:
        Maximum pending offers per slot; an offer arriving at a full
        buffer is rejected (returned ``False`` and counted).
    """

    def __init__(self, n_requests: int, limit: int) -> None:
        if n_requests < 1:
            raise ValueError(f"n_requests must be positive, got {n_requests}")
        if limit < 1:
            raise ValueError(f"limit must be positive, got {limit}")
        self.n_requests = int(n_requests)
        self.limit = int(limit)
        self._lock = threading.Lock()
        self._pending: List[Offer] = []
        self._slot_rejected = 0
        self.offered_total = 0
        self.rejected_total = 0

    def offer(self, request: int, volume_mb: float) -> bool:
        """Buffer one offer; False when the buffer is full (rejected).

        Raises :class:`ValueError` on a malformed offer (out-of-range
        request index, non-positive or non-finite volume) — malformed
        input is a caller error, not admission control.
        """
        return self.admit(request, volume_mb)[0]

    def admit(self, request: int, volume_mb: float) -> Tuple[bool, int]:
        """:meth:`offer`, plus the fill it left: ``(accepted, fill)``.

        Both come from one locked section, so the fill is the one this
        offer saw, whatever other threads offer meanwhile.
        """
        index = int(request)
        volume = float(volume_mb)
        if not 0 <= index < self.n_requests:
            raise ValueError(
                f"request index {index} outside [0, {self.n_requests})"
            )
        if not math.isfinite(volume) or volume <= 0.0:
            raise ValueError(f"volume_mb must be positive and finite, got {volume}")
        with self._lock:
            pending = self._pending
            if len(pending) >= self.limit:
                self._slot_rejected += 1
                self.rejected_total += 1
                return False, len(pending)
            pending.append(Offer(index, volume))
            self.offered_total += 1
            return True, len(pending)

    @property
    def fill(self) -> int:
        """Number of offers currently pending for the open slot."""
        with self._lock:
            return len(self._pending)

    def roll(self) -> Tuple[np.ndarray, int, int]:
        """Close the slot: ``(demand_vector, n_offers, n_rejected)``.

        Aggregates the pending offers into a dense per-request demand
        vector (arrival-order summation) and resets the buffer for the
        next slot.
        """
        with self._lock:
            pending = self._pending
            rejected = self._slot_rejected
            self._pending = []
            self._slot_rejected = 0
        demand = np.zeros(self.n_requests, dtype=np.float64)
        for entry in pending:
            demand[entry.request] += entry.volume_mb
        return demand, len(pending), rejected

    # ---- checkpoint support ------------------------------------------ #

    def pending_state(self) -> Tuple[np.ndarray, np.ndarray]:
        """The open slot's offers as ``(request_indices, volumes)`` arrays.

        Arrival order is preserved — restoring these arrays reproduces
        the exact summation order of the interrupted slot.
        """
        with self._lock:
            requests = np.array(
                [entry.request for entry in self._pending], dtype=np.int64
            )
            volumes = np.array(
                [entry.volume_mb for entry in self._pending], dtype=np.float64
            )
        return requests, volumes

    def restore_pending(
        self, requests: np.ndarray, volumes: np.ndarray
    ) -> None:
        """Reload a checkpointed open slot (replaces any pending offers)."""
        if requests.shape != volumes.shape:
            raise ValueError(
                f"{requests.shape[0]} request indices for "
                f"{volumes.shape[0]} volumes"
            )
        entries = [
            Offer(int(request), float(volume))
            for request, volume in zip(requests, volumes, strict=True)
        ]
        if len(entries) > self.limit:
            raise ValueError(
                f"checkpoint holds {len(entries)} pending offers but the "
                f"buffer limit is {self.limit}"
            )
        with self._lock:
            self._pending = entries
