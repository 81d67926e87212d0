"""Demand models producing `rho_l(t)` for every request and slot (Eq. 1).

Two concrete models:

* :class:`ConstantDemandModel` — the "given demands" setting of §IV
  (Figs. 3-5): every request's demand is its basic demand in every slot.
* :class:`BurstyDemandModel` — the full setting of §V (Figs. 6-7): basic
  demand plus hotspot-correlated MMPP bursts, per-user jitter, and optional
  scheduled flash crowds.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.mec.requests import Request
from repro.utils.validation import require_non_negative, require_probability
from repro.workload.bursty import FlashCrowdSchedule, MmppBurstProcess

__all__ = ["DemandModel", "ConstantDemandModel", "BurstyDemandModel"]


class DemandModel(abc.ABC):
    """Per-slot data volumes for a fixed request set `R`."""

    def __init__(self, requests: Sequence[Request]):
        if not requests:
            raise ValueError("a demand model needs at least one request")
        self._requests: List[Request] = list(requests)
        self._basic = np.array([r.basic_demand_mb for r in requests], dtype=float)

    @property
    def requests(self) -> List[Request]:
        """The request set `R` this model generates demand for."""
        return list(self._requests)

    @property
    def n_requests(self) -> int:
        """|R|."""
        return len(self._requests)

    @property
    def basic_demands(self) -> np.ndarray:
        """Vector of `rho_l^bsc` (a priori, §III-B)."""
        return self._basic.copy()

    @abc.abstractmethod
    def bursty_at(self, slot: int) -> np.ndarray:
        """`rho_l^bst(t)` per request; must be deterministic per slot."""

    def demand_at(self, slot: int) -> np.ndarray:
        """`rho_l(t) = rho_l^bsc + rho_l^bst(t)` per request (Eq. 1)."""
        return self._basic + self.bursty_at(slot)

    def matrix(self, horizon: int) -> np.ndarray:
        """Demand matrix of shape ``(horizon, n_requests)`` for slots 0..T-1."""
        require_non_negative("horizon", horizon)
        return np.stack([self.demand_at(t) for t in range(horizon)]) if horizon else (
            np.zeros((0, self.n_requests))
        )

    def state_dict(self) -> Dict[str, Any]:
        """Identity of this model's realisation (see :mod:`repro.state`).

        Demand models are slot-keyed — ``demand_at(t)`` is a pure function
        of construction-time seeds — so checkpoints carry only identity
        fields; :meth:`load_state_dict` *verifies* a resumed run rebuilt
        the same demand trajectory rather than mutating anything.
        """
        return {
            "model": type(self).__name__,
            "n_requests": self.n_requests,
            "basic": self._basic.copy(),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Verify this model realises the checkpointed demand trajectory."""
        if state.get("model") != type(self).__name__:
            raise ValueError(
                f"checkpoint was taken under demand model {state.get('model')!r}, "
                f"this run uses {type(self).__name__}"
            )
        if int(state["n_requests"]) != self.n_requests:
            raise ValueError(
                f"checkpoint covers {state['n_requests']} requests, "
                f"this model covers {self.n_requests}"
            )
        if not np.array_equal(np.asarray(state["basic"], dtype=float), self._basic):
            raise ValueError("checkpointed basic demands differ from this model's")


class ConstantDemandModel(DemandModel):
    """Given demands: `rho_l(t) = rho_l^bsc` for every slot (§IV setting)."""

    def bursty_at(self, slot: int) -> np.ndarray:
        require_non_negative("slot", slot)
        return np.zeros(self.n_requests)


class BurstyDemandModel(DemandModel):
    """Hotspot-correlated bursty demand (§V setting).

    Every hotspot runs its own :class:`MmppBurstProcess`; all requests
    attached to a bursting hotspot draw the hotspot's shared slot amplitude
    scaled by a per-user jitter factor in ``[1-jitter, 1+jitter]``.
    Requests with no hotspot (``hotspot_index is None``) burst
    independently with the same process parameters.

    Parameters
    ----------
    requests:
        The request set; ``hotspot_index`` attributes define correlation
        groups.
    rng:
        Source for process seeds and jitter.
    flash_crowds:
        Optional deterministic event schedule added on top of the MMPP
        bursts.
    p_enter, p_exit, amplitude_shape, amplitude_scale, amplitude_mode:
        MMPP parameters, shared across hotspots (per-hotspot chains remain
        independent because they are independently seeded); see
        :class:`repro.workload.bursty.MmppBurstProcess`.
    jitter:
        Relative per-user spread around the shared hotspot amplitude.
    """

    def __init__(
        self,
        requests: Sequence[Request],
        rng: np.random.Generator,
        flash_crowds: Optional[FlashCrowdSchedule] = None,
        p_enter: float = 0.08,
        p_exit: float = 0.35,
        amplitude_shape: float = 1.8,
        amplitude_scale: float = 2.5,
        amplitude_mode: str = "slot",
        ramp_slots: int = 3,
        jitter: float = 0.2,
    ):
        super().__init__(requests)
        require_probability("jitter", jitter)
        self._jitter = float(jitter)
        self._flash_crowds = flash_crowds
        self._jitter_seed = int(rng.integers(2**63 - 1))

        hotspot_keys = sorted(
            {r.hotspot_index for r in requests if r.hotspot_index is not None}
        )
        self._processes: Dict[int, MmppBurstProcess] = {}
        for key in hotspot_keys:
            self._processes[key] = MmppBurstProcess(
                rng,
                p_enter=p_enter,
                p_exit=p_exit,
                amplitude_shape=amplitude_shape,
                amplitude_scale=amplitude_scale,
                amplitude_mode=amplitude_mode,
                ramp_slots=ramp_slots,
            )
        # Solo requests each get an independent chain keyed by request index.
        self._solo_processes: Dict[int, MmppBurstProcess] = {}
        for r in requests:
            if r.hotspot_index is None:
                self._solo_processes[r.index] = MmppBurstProcess(
                    rng,
                    p_enter=p_enter,
                    p_exit=p_exit,
                    amplitude_shape=amplitude_shape,
                    amplitude_scale=amplitude_scale,
                    amplitude_mode=amplitude_mode,
                    ramp_slots=ramp_slots,
                )
        # Correlation-group structure, precomputed once: the positions (in
        # request order) attached to each hotspot chain and to each solo
        # chain.  ``bursty_at`` evaluates every chain exactly once per slot
        # and scatters amplitudes through these index arrays — O(#chains +
        # |R|) numpy work instead of a per-request python loop.
        positions_by_key: Dict[int, List[int]] = {key: [] for key in hotspot_keys}
        for position, r in enumerate(requests):
            if r.hotspot_index is not None:
                positions_by_key[r.hotspot_index].append(position)
        self._hotspot_positions: Dict[int, np.ndarray] = {
            key: np.array(positions, dtype=int)
            for key, positions in positions_by_key.items()
        }
        self._solo_positions: List[Tuple[int, MmppBurstProcess]] = [
            (position, self._solo_processes[r.index])
            for position, r in enumerate(requests)
            if r.hotspot_index is None
        ]

    def bursty_at(self, slot: int) -> np.ndarray:
        """Vectorised `rho_l^bst(t)`: one chain evaluation per group.

        Bit-identical (float64) to :meth:`bursty_at_scalar`, the reference
        per-request formulation — pinned by the equivalence tests.
        """
        require_non_negative("slot", slot)
        jitter_rng = np.random.default_rng((self._jitter_seed, int(slot)))
        jitters = jitter_rng.uniform(
            1.0 - self._jitter, 1.0 + self._jitter, size=self.n_requests
        )
        amplitudes = np.zeros(self.n_requests)
        for key, process in self._processes.items():
            amplitude = process.amplitude_at(slot)
            if self._flash_crowds is not None:
                amplitude += self._flash_crowds.amplitude_at(key, slot)
            if amplitude != 0.0:
                amplitudes[self._hotspot_positions[key]] = amplitude
        for position, process in self._solo_positions:
            amplitudes[position] = process.amplitude_at(slot)
        return amplitudes * jitters

    def bursty_at_scalar(self, slot: int) -> np.ndarray:
        """Reference per-request formulation of :meth:`bursty_at`.

        Kept as the pinned scalar baseline for the equivalence tests; not
        used on the hot path.
        """
        require_non_negative("slot", slot)
        bursts = np.zeros(self.n_requests)
        jitter_rng = np.random.default_rng((self._jitter_seed, int(slot)))
        jitters = jitter_rng.uniform(
            1.0 - self._jitter, 1.0 + self._jitter, size=self.n_requests
        )
        for position, request in enumerate(self._requests):
            if request.hotspot_index is not None:
                process = self._processes[request.hotspot_index]
                amplitude = process.amplitude_at(slot)
                if self._flash_crowds is not None:
                    amplitude += self._flash_crowds.amplitude_at(
                        request.hotspot_index, slot
                    )
            else:
                amplitude = self._solo_processes[request.index].amplitude_at(slot)
            bursts[position] = amplitude * jitters[position]
        return bursts

    def hotspot_state(self, hotspot_index: int, slot: int) -> bool:
        """True when the hotspot's MMPP chain is bursting in ``slot``."""
        if hotspot_index not in self._processes:
            raise KeyError(f"no requests are attached to hotspot {hotspot_index}")
        return self._processes[hotspot_index].is_bursting(slot)

    @property
    def hotspot_indices(self) -> List[int]:
        """Hotspots that have at least one attached request."""
        return sorted(self._processes)

    def _flash_crowd_events(self) -> List[List[Any]]:
        """Canonical event list of the attached schedule ([] when absent)."""
        if self._flash_crowds is None:
            return []
        return self._flash_crowds.state_dict()["events"]

    def state_dict(self) -> Dict[str, Any]:
        state = super().state_dict()
        state["jitter"] = self._jitter
        state["jitter_seed"] = self._jitter_seed
        # The flash-crowd schedule is part of the realised trajectory:
        # omitting it let a run resume under a different (or missing)
        # schedule and silently realise different demands.
        state["flash_crowds"] = {"events": self._flash_crowd_events()}
        state["processes"] = {
            str(key): process.state_dict()
            for key, process in self._processes.items()
        }
        state["solo_processes"] = {
            str(key): process.state_dict()
            for key, process in self._solo_processes.items()
        }
        return state

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        super().load_state_dict(state)
        if (
            state.get("jitter") != self._jitter
            or int(state["jitter_seed"]) != self._jitter_seed
        ):
            raise ValueError("checkpointed jitter realisation differs from this model's")
        theirs_crowds = state.get("flash_crowds")
        theirs_events = (
            [] if theirs_crowds is None
            else [list(event) for event in theirs_crowds["events"]]
        )
        if theirs_events != self._flash_crowd_events():
            raise ValueError(
                "checkpointed flash-crowd schedule differs from this model's "
                "(a resumed run must attach the exact schedule it was "
                "checkpointed under; pre-PR-6 checkpoints carry no schedule "
                "and can only resume schedule-free models)"
            )
        for label, mine in (
            ("processes", self._processes),
            ("solo_processes", self._solo_processes),
        ):
            theirs = state[label]
            # Compare as *sets*: zip-sorting strings against ints broke any
            # run with >= 10 keys ("10" sorts before "2" lexicographically).
            if set(theirs) != {str(key) for key in mine}:
                raise ValueError(
                    f"checkpointed {label} cover different hotspots/requests"
                )
            for key, process in mine.items():
                process.load_state_dict(theirs[str(key)])
