"""Shared utilities: deterministic RNG streams and validation.

Every stochastic component of the reproduction draws from a named stream
forked from a single experiment seed (see :class:`RngRegistry`), which is
what makes the figures exactly reproducible run-to-run.
"""

from repro.utils.seeding import RngRegistry, fork_rng, spawn_seeds
from repro.utils.validation import (
    require_in_range,
    require_non_negative,
    require_positive,
    require_probability,
)

__all__ = [
    "RngRegistry",
    "fork_rng",
    "spawn_seeds",
    "require_in_range",
    "require_non_negative",
    "require_positive",
    "require_probability",
]
