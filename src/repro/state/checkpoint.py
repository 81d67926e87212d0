"""Checkpoint policy for a single simulation run.

:class:`CheckpointConfig` is the single-run checkpoint policy that
``repro.sim.RunConfig.to_checkpoint_config`` derives for
``repro.sim.run_simulation``: a directory, a save cadence and a resume
switch.  The engine owns *what* goes into the
snapshot (controller state, demand-model identity, the per-slot record
series); this module owns *where* it lives and how often it is written,
and stays import-free of the simulation stack so every layer can depend
on it.

One simulation keeps exactly one snapshot file, named after the
controller (controller names double as checkpoint identifiers across the
subsystem — see ``repro.core.make_controller``), overwritten in place on
every save.  Writes go through :func:`repro.state.save_checkpoint` and
are atomic, so an interrupt mid-save leaves the previous snapshot valid.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Union

__all__ = ["CheckpointConfig", "SIMULATION_KIND", "SERVE_KIND", "snapshot_slug"]

#: ``kind`` tag of single-run snapshots (see :func:`repro.state.save_checkpoint`).
SIMULATION_KIND = "simulation"

#: ``kind`` tag of decision-server snapshots (:mod:`repro.serve`): same wire
#: format as simulation snapshots, but carrying the server's ingest state
#: (pending offers, rejection accounting) next to the controller state, so
#: the two kinds can never resume each other by accident.
SERVE_KIND = "serve"


def snapshot_slug(name: str) -> str:
    """A controller name as a safe file-name fragment.

    Shared by the simulation and serving checkpoint paths so a controller
    name maps to the same fragment everywhere.
    """
    cleaned = "".join(c if (c.isalnum() or c in "-_.") else "_" for c in name)
    return cleaned or "controller"


_slug = snapshot_slug


@dataclass(frozen=True)
class CheckpointConfig:
    """Where and how often a simulation snapshots itself.

    Parameters
    ----------
    directory:
        Snapshot directory (created on first save).
    every_n_slots:
        A snapshot is written after every ``every_n_slots`` completed
        slots.  The final partial stretch of the horizon is *not*
        implicitly saved — a completed run returns its result and needs
        no checkpoint.
    resume:
        When True and a snapshot exists, the run restores it and
        continues from the next slot; when no snapshot exists yet the
        run starts from slot 0 (so ``resume=True`` is always safe to
        pass).  When False any existing snapshot is ignored and will be
        overwritten by the next save.
    """

    directory: Union[str, Path]
    every_n_slots: int = 10
    resume: bool = False

    def __post_init__(self) -> None:
        if (
            not isinstance(self.every_n_slots, int)
            or isinstance(self.every_n_slots, bool)
            or self.every_n_slots < 1
        ):
            raise ValueError(
                f"every_n_slots must be a positive int, got {self.every_n_slots!r}"
            )

    def path_for(self, controller_name: str) -> Path:
        """The snapshot file of ``controller_name``'s run."""
        return Path(self.directory) / f"sim-{_slug(controller_name)}.npz"

    def due(self, completed_slots: int) -> bool:
        """True when a snapshot should be written after this many slots."""
        return completed_slots > 0 and completed_slots % self.every_n_slots == 0
