"""Running per-arm statistics: the `theta_i` and `m_i` of Algorithm 1.

The learner never sees the latent means; it maintains the empirical mean
`theta_i` of every observed arm and the play count `m_i` ("the mean theta_i
is calculated based on the number of times that arm of bs_i is played").
Unplayed arms report a configurable *prior* mean — optimistic priors make
early exploration visit every station at least once.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Tuple

import numpy as np

from repro.utils.validation import require_non_negative, require_positive

__all__ = ["ArmStats"]


class ArmStats:
    """Vectorised empirical means and play counts over ``n_arms`` arms.

    Also tracks a running sum of squares so policies can use empirical
    variance (Thompson sampling) without a second pass.
    """

    def __init__(self, n_arms: int, prior_mean: float = 0.0):
        require_positive("n_arms", n_arms)
        require_non_negative("prior_mean", prior_mean)
        self._n_arms = int(n_arms)
        self._prior_mean = float(prior_mean)
        self._sums = np.zeros(self._n_arms)
        self._sq_sums = np.zeros(self._n_arms)
        self._counts = np.zeros(self._n_arms, dtype=int)

    @property
    def n_arms(self) -> int:
        return self._n_arms

    @property
    def counts(self) -> np.ndarray:
        """`m_i`: how many times each arm was played (copy)."""
        return self._counts.copy()

    @property
    def total_plays(self) -> int:
        """Sum of all play counts."""
        return int(self._counts.sum())

    def observe(self, arm: int, value: float) -> None:
        """Record one observation of ``arm``."""
        if not 0 <= arm < self._n_arms:
            raise IndexError(f"arm {arm} out of range [0, {self._n_arms})")
        require_non_negative("value", value)
        self._sums[arm] += value
        self._sq_sums[arm] += value * value
        self._counts[arm] += 1

    def observe_many(self, arms: Iterable[int], values: Iterable[float]) -> None:
        """Record one observation per (arm, value) pair."""
        arms = list(arms)
        values = list(values)
        if len(arms) != len(values):
            raise ValueError(
                f"got {len(arms)} arms but {len(values)} values"
            )
        for arm, value in zip(arms, values, strict=True):
            self.observe(arm, value)

    def mean(self, arm: int) -> float:
        """Empirical mean `theta_i` of one arm (prior when unplayed)."""
        if not 0 <= arm < self._n_arms:
            raise IndexError(f"arm {arm} out of range [0, {self._n_arms})")
        if self._counts[arm] == 0:
            return self._prior_mean
        return float(self._sums[arm] / self._counts[arm])

    @property
    def means(self) -> np.ndarray:
        """Vector of `theta_i` for all arms (prior where unplayed)."""
        means = np.full(self._n_arms, self._prior_mean)
        played = self._counts > 0
        means[played] = self._sums[played] / self._counts[played]
        return means

    def variance(self, arm: int) -> float:
        """Empirical *population* variance (ddof=0) of one arm; 0 with < 2
        plays.  :class:`repro.bandits.WindowedArmStats` follows the same
        convention over its window."""
        if not 0 <= arm < self._n_arms:
            raise IndexError(f"arm {arm} out of range [0, {self._n_arms})")
        count = self._counts[arm]
        if count < 2:
            return 0.0
        mean = self._sums[arm] / count
        return float(max(self._sq_sums[arm] / count - mean * mean, 0.0))

    def unplayed_arms(self) -> np.ndarray:
        """Indices of arms never played (candidates for forced exploration)."""
        return np.nonzero(self._counts == 0)[0]

    def confidence_radius(self, arm: int, horizon_plays: Optional[int] = None) -> float:
        """UCB1-style radius ``sqrt(2 ln N / m_i)``; inf for unplayed arms.

        ``horizon_plays`` defaults to the total plays so far.
        """
        count = self._counts[arm]
        if count == 0:
            return float("inf")
        total = self.total_plays if horizon_plays is None else horizon_plays
        require_positive("horizon_plays", total)
        return float(np.sqrt(2.0 * np.log(max(total, 2)) / count))

    def snapshot(self) -> Tuple[np.ndarray, np.ndarray]:
        """(means, counts) pair for logging/metrics."""
        return self.means, self.counts

    def state_dict(self) -> Dict[str, Any]:
        """Checkpointable state (see :mod:`repro.state`)."""
        return {
            "n_arms": self._n_arms,
            "prior_mean": self._prior_mean,
            "sums": self._sums.copy(),
            "sq_sums": self._sq_sums.copy(),
            "counts": self._counts.copy(),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore a :meth:`state_dict` snapshot, in place."""
        if int(state["n_arms"]) != self._n_arms:
            raise ValueError(
                f"checkpoint covers {state['n_arms']} arms, "
                f"this estimator has {self._n_arms}"
            )
        self._prior_mean = float(state["prior_mean"])
        self._sums = np.asarray(state["sums"], dtype=float).copy()
        self._sq_sums = np.asarray(state["sq_sums"], dtype=float).copy()
        self._counts = np.asarray(state["counts"], dtype=int).copy()
        for name in ("_sums", "_sq_sums", "_counts"):
            if getattr(self, name).shape != (self._n_arms,):
                raise ValueError(
                    f"checkpoint field {name[1:]!r} has shape "
                    f"{getattr(self, name).shape}, expected ({self._n_arms},)"
                )

    def reset(self) -> None:
        """Forget all observations."""
        self._sums.fill(0.0)
        self._sq_sums.fill(0.0)
        self._counts.fill(0)
