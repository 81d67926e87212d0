"""Shared utilities: deterministic RNG streams, validation, units.

Every stochastic component of the reproduction draws from a named stream
forked from a single experiment seed (see :class:`RngRegistry`), which is
what makes the figures exactly reproducible run-to-run.
"""

from repro.utils.seeding import RngRegistry, fork_rng, spawn_seeds
from repro.utils.units import (
    GHZ_PER_MHZ,
    MS_PER_SECOND,
    mbps_to_mb_per_ms,
    mhz_to_ghz,
    ms_to_seconds,
    seconds_to_ms,
)
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
    "GHZ_PER_MHZ",
    "MS_PER_SECOND",
    "mbps_to_mb_per_ms",
    "mhz_to_ghz",
    "ms_to_seconds",
    "seconds_to_ms",
    "require_in_range",
    "require_non_negative",
    "require_positive",
    "require_probability",
]
