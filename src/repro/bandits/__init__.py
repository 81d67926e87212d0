"""Multi-armed-bandit substrate: arm statistics, policies, regret tracking.

Paper §IV treats every base station as a bandit arm whose random process
`X_i` is the station's unit-data processing delay; playing the arm (routing
a request there) reveals `d_i(t)` and updates the running mean `theta_i`.
This package holds the generic bandit machinery: :class:`ArmStats` is the
state shared with the LP-guided controller (Algorithm 1), and the classic
policies (UCB1, Thompson sampling) serve as ablation
baselines beyond the paper.
"""

from repro.bandits.arms import ArmStats
from repro.bandits.policies import (
    BanditPolicy,
    ThompsonSampling,
    Ucb1,
)
from repro.bandits.regret import RegretTracker
from repro.bandits.windowed import WindowedArmStats

__all__ = [
    "ArmStats",
    "WindowedArmStats",
    "BanditPolicy",
    "ThompsonSampling",
    "Ucb1",
    "RegretTracker",
]
