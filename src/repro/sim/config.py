"""One run configuration for every execution entry point.

:class:`RunConfig` is the single spelling of the execution knobs —
**one documented name per concept** — accepted by
:func:`repro.sim.run_simulation`, :func:`repro.sim.run_with_failures`,
:func:`repro.sim.run_repetitions` and :func:`repro.campaigns.run_campaign`
through a ``config=`` parameter:

=================  ==============================================
canonical name     concept
=================  ==============================================
``jobs``           worker count (``None``/``0`` = all cores,
                   negative = joblib-style count-back)
``retries``        bounded re-execution rounds for crashed items
``collect_metrics``  tri-state telemetry switch (``None`` = auto)
``checkpoint_dir``   snapshot directory
``checkpoint_every`` slot-level snapshot cadence
``resume``           restore-and-continue switch
=================  ==============================================

Each entry point reads the knobs it owns; there are no keyword
aliases, so a knob has exactly one source of truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from repro.state import CheckpointConfig

__all__ = ["RunConfig"]

#: Default slot-level snapshot cadence when only a directory is given
#: (mirrors :class:`repro.state.CheckpointConfig`'s default).
_DEFAULT_CHECKPOINT_EVERY = 10


@dataclass(frozen=True)
class RunConfig:
    """Execution knobs shared by every run entry point.

    Parameters
    ----------
    jobs:
        Worker count.  ``1`` (default) runs in-process; ``None`` or
        ``0`` means all cores; negative counts back joblib-style
        (``-1`` == all cores).
    retries:
        Bounded re-execution rounds for crashed work items before they
        are recorded as failures.
    collect_metrics:
        Tri-state telemetry switch: ``True`` records :mod:`repro.obs`
        telemetry per work item, ``False`` keeps it off unconditionally,
        ``None`` (default) auto-enables when a registry is active.
    checkpoint_dir:
        Snapshot directory; enables checkpointing when set.
    checkpoint_every:
        Slot-level snapshot cadence inside each run; ``None`` defers to
        the subsystem default (10) when ``checkpoint_dir`` is set.
    resume:
        Restore an existing snapshot and continue; always safe to pass
        (a missing snapshot starts from scratch).
    """

    jobs: Optional[int] = 1
    retries: int = 0
    collect_metrics: Optional[bool] = None
    checkpoint_dir: Optional[Union[str, Path]] = None
    checkpoint_every: Optional[int] = None
    resume: bool = False

    def __post_init__(self) -> None:
        # No cross-field constraints on purpose: ``resume`` without a
        # ``checkpoint_dir`` is meaningful to run_campaign (the campaign
        # out_dir is the persistence root) and harmlessly inert to
        # run_simulation.  Each entry point reads the knobs it owns.
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be positive, got {self.checkpoint_every}"
            )

    def to_checkpoint_config(self) -> Optional[CheckpointConfig]:
        """The single-run checkpoint policy, or ``None`` when disabled."""
        if self.checkpoint_dir is None:
            return None
        return CheckpointConfig(
            directory=self.checkpoint_dir,
            every_n_slots=(
                self.checkpoint_every
                if self.checkpoint_every is not None
                else _DEFAULT_CHECKPOINT_EVERY
            ),
            resume=self.resume,
        )
