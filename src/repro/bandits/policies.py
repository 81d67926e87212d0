"""Classic bandit policies over :class:`ArmStats` (cost-minimisation form).

These are the generic exploration strategies.  Algorithm 1's LP-guided
selection (with its epsilon-greedy exploration) lives in
:mod:`repro.core.ol_gd`; the policies here are ablation baselines (UCB1,
Thompson) that pick stations *without* the LP.

All policies minimise: the "best" arm is the one with the smallest mean
cost (delay), so UCB becomes LCB etc.
"""

from __future__ import annotations

import abc
from typing import Optional, Sequence

import numpy as np

from repro.bandits.arms import ArmStats
from repro.utils.validation import require_positive

__all__ = [
    "BanditPolicy",
    "Ucb1",
    "ThompsonSampling",
]


class BanditPolicy(abc.ABC):
    """Selects one arm per round given the current statistics."""

    @abc.abstractmethod
    def select(
        self,
        stats: ArmStats,
        t: int,
        rng: np.random.Generator,
        allowed: Optional[Sequence[int]] = None,
    ) -> int:
        """Pick an arm for round ``t`` (1-based) among ``allowed`` (default all)."""

    @staticmethod
    def _allowed_indices(stats: ArmStats, allowed: Optional[Sequence[int]]) -> np.ndarray:
        if allowed is None:
            return np.arange(stats.n_arms)
        indices = np.asarray(list(allowed), dtype=int)
        if indices.size == 0:
            raise ValueError("allowed arm set must not be empty")
        if indices.min() < 0 or indices.max() >= stats.n_arms:
            raise ValueError(
                f"allowed arms must be within [0, {stats.n_arms}), got {indices}"
            )
        return indices


class Ucb1(BanditPolicy):
    """UCB1 adapted to costs: pick argmin of mean minus confidence radius.

    ``scale`` should match the cost range so the radius is comparable to
    the means (classic UCB1 assumes rewards in [0, 1]).
    """

    def __init__(self, scale: float = 1.0):
        require_positive("scale", scale)
        self._scale = float(scale)

    def select(
        self,
        stats: ArmStats,
        t: int,
        rng: np.random.Generator,
        allowed: Optional[Sequence[int]] = None,
    ) -> int:
        require_positive("t", t)
        indices = self._allowed_indices(stats, allowed)
        unplayed = [i for i in indices if stats.counts[i] == 0]
        if unplayed:
            return int(rng.choice(unplayed))
        scores = np.array(
            [
                stats.mean(i) - self._scale * stats.confidence_radius(i)
                for i in indices
            ]
        )
        return int(indices[int(np.argmin(scores))])


class ThompsonSampling(BanditPolicy):
    """Gaussian Thompson sampling on costs.

    Posterior per arm approximated as Normal(mean, var / m_i) with an
    ``exploration_std`` floor so well-sampled arms keep a minimum of
    posterior spread.
    """

    def __init__(self, exploration_std: float = 1.0):
        require_positive("exploration_std", exploration_std)
        self._floor = float(exploration_std)

    def select(
        self,
        stats: ArmStats,
        t: int,
        rng: np.random.Generator,
        allowed: Optional[Sequence[int]] = None,
    ) -> int:
        require_positive("t", t)
        indices = self._allowed_indices(stats, allowed)
        unplayed = [i for i in indices if stats.counts[i] == 0]
        if unplayed:
            return int(rng.choice(unplayed))
        draws = []
        for i in indices:
            count = stats.counts[i]
            std = max(np.sqrt(stats.variance(i) / count), self._floor / np.sqrt(count))
            draws.append(rng.normal(stats.mean(i), std))
        return int(indices[int(np.argmin(draws))])
