"""Declarative campaign specifications and their TOML front-end.

A :class:`CampaignSpec` describes a whole experiment campaign — one base
:class:`ScenarioSpec` (everything is named through the registries:
topology, workload, controllers) plus a grid of :class:`FactorAxis`
overrides — and :meth:`CampaignSpec.expand` turns it into the full
cartesian list of :class:`CampaignCell` work units.  Expansion is pure
and deterministic: the same spec always yields the same cells in the
same order, each with the same derived seed, so a campaign can be
killed, re-expanded and resumed without ever re-running a finished cell.

Cell seeds are derived per cell id through
:meth:`repro.utils.seeding.RngRegistry.child` (``"cell/<cell_id>"``
under the campaign seed), never from cell *position*: inserting a new
factor value shifts positions but leaves every existing cell's seed —
and therefore its results — untouched.

Specs can be written in Python or loaded from TOML via
:func:`load_campaign_toml`::

    [campaign]
    name = "network-scaling"
    seed = 17
    repetitions = 5

    [scenario]
    topology = "gtitm"
    workload = "constant"
    controllers = ["OL_GD", "Pri_GD", "Greedy_GD"]
    horizon = 60

    [[factors]]
    path = "n_stations"
    values = [30, 60, 90]
"""

from __future__ import annotations

import dataclasses
import itertools
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple, Union

from repro.core.registry import CONTROLLERS
from repro.mec.registry import TOPOLOGIES
from repro.utils.seeding import RngRegistry, require_seed
from repro.utils.validation import require_positive
from repro.workload.registry import WORKLOADS

__all__ = [
    "CampaignError",
    "OutageSpec",
    "ScenarioSpec",
    "FactorAxis",
    "CampaignCell",
    "CampaignSpec",
    "load_campaign_toml",
]


class CampaignError(ValueError):
    """An invalid campaign spec, or a campaign directory misuse."""


@dataclass(frozen=True)
class OutageSpec:
    """One scripted station failure applied inside every repetition."""

    station: int
    start: int
    duration: int
    remaining_fraction: float = 0.0

    def to_payload(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully-named experiment setting (a single campaign cell's world).

    Every component is referenced by registry name — the topology from
    :data:`repro.mec.TOPOLOGIES`, the demand model from
    :data:`repro.workload.WORKLOADS`, the controllers from
    :data:`repro.core.CONTROLLERS` — so the spec *is* the identity of
    what ran, and the built objects are checked against it.
    """

    controllers: Tuple[str, ...]
    horizon: int
    topology: str = "gtitm"
    workload: str = "constant"
    n_stations: Optional[int] = None
    n_services: int = 4
    n_requests: int = 30
    n_hotspots: int = 5
    drift_ms: float = 0.5
    #: ``c_unit = min capacity / (headroom * mean basic demand)``; ``None``
    #: keeps the topology's own calibration.
    capacity_headroom: Optional[float] = 2.0
    topology_options: Mapping[str, Any] = field(default_factory=dict)
    workload_options: Mapping[str, Any] = field(default_factory=dict)
    #: Per-controller construction options, keyed by controller name.
    controller_options: Mapping[str, Mapping[str, Any]] = field(
        default_factory=dict
    )
    outages: Tuple[OutageSpec, ...] = ()

    def __post_init__(self) -> None:
        if not self.controllers:
            raise CampaignError("scenario needs at least one controller")
        object.__setattr__(self, "controllers", tuple(self.controllers))
        object.__setattr__(
            self,
            "outages",
            tuple(
                o if isinstance(o, OutageSpec) else OutageSpec(**o)
                for o in self.outages
            ),
        )
        require_positive("horizon", self.horizon)
        require_positive("n_services", self.n_services)
        require_positive("n_requests", self.n_requests)
        require_positive("n_hotspots", self.n_hotspots)

    def validate_names(self) -> None:
        """Check every referenced name against its registry (early error)."""
        if self.topology not in TOPOLOGIES:
            raise CampaignError(
                f"unknown topology {self.topology!r}; "
                f"registered: {list(TOPOLOGIES.names())}"
            )
        if self.workload not in WORKLOADS:
            raise CampaignError(
                f"unknown workload {self.workload!r}; "
                f"registered: {list(WORKLOADS.names())}"
            )
        for name in self.controllers:
            if name not in CONTROLLERS:
                raise CampaignError(
                    f"unknown controller {name!r}; "
                    f"registered: {list(CONTROLLERS.names())}"
                )
        for name in self.controller_options:
            if name not in self.controllers:
                raise CampaignError(
                    f"controller_options for {name!r}, which is not in "
                    f"controllers {list(self.controllers)}"
                )

    def to_payload(self) -> Dict[str, Any]:
        """JSON-serialisable identity payload (order-stable)."""
        payload = dataclasses.asdict(self)
        payload["controllers"] = list(self.controllers)
        payload["outages"] = [o.to_payload() for o in self.outages]
        for key in ("topology_options", "workload_options"):
            payload[key] = dict(payload[key])
        payload["controller_options"] = {
            name: dict(options)
            for name, options in payload["controller_options"].items()
        }
        return payload


@dataclass(frozen=True)
class FactorAxis:
    """One swept dimension: a dotted path into :class:`ScenarioSpec`.

    ``path`` addresses a scenario field (``"n_stations"``), an option-dict
    entry (``"workload_options.jitter"``) or a per-controller option
    (``"controller_options.OL_GD.learning_rate"``).
    """

    path: str
    values: Tuple[Any, ...]

    def __post_init__(self) -> None:
        if not self.path:
            raise CampaignError("factor path must be non-empty")
        if not self.values:
            raise CampaignError(f"factor {self.path!r} has no values")
        object.__setattr__(self, "values", tuple(self.values))
        if len(set(map(repr, self.values))) != len(self.values):
            raise CampaignError(f"factor {self.path!r} repeats a value")


_SLUG_UNSAFE = re.compile(r"[^A-Za-z0-9._-]+")


def _slug(value: Any) -> str:
    """Filesystem-safe rendering of one factor value."""
    text = format(value, "g") if isinstance(value, float) else str(value)
    return _SLUG_UNSAFE.sub("_", text) or "_"


def _apply_override(scenario: ScenarioSpec, path: str, value: Any) -> ScenarioSpec:
    """A copy of ``scenario`` with the field at dotted ``path`` replaced."""
    head, _, rest = path.partition(".")
    if not hasattr(scenario, head):
        raise CampaignError(
            f"factor path {path!r} does not name a scenario field "
            f"(no attribute {head!r})"
        )
    if not rest:
        return dataclasses.replace(scenario, **{head: value})
    current = getattr(scenario, head)
    if not isinstance(current, Mapping):
        raise CampaignError(
            f"factor path {path!r} descends into {head!r}, "
            f"which is not an options mapping"
        )
    updated: Dict[str, Any] = {k: v for k, v in current.items()}
    key, _, leaf = rest.partition(".")
    if leaf:  # controller_options.<name>.<option>
        inner = dict(updated.get(key, {}))
        inner[leaf] = value
        updated[key] = inner
    else:
        updated[key] = value
    return dataclasses.replace(scenario, **{head: updated})


@dataclass(frozen=True)
class CampaignCell:
    """One expanded work unit of a campaign: a scenario plus its seed."""

    cell_id: str
    index: int
    overrides: Tuple[Tuple[str, Any], ...]
    scenario: ScenarioSpec
    seed: int


@dataclass(frozen=True)
class CampaignSpec:
    """A named, seeded factor grid over one base scenario."""

    name: str
    seed: int
    repetitions: int
    scenario: ScenarioSpec
    factors: Tuple[FactorAxis, ...] = ()
    confidence: float = 0.95
    demands_known: bool = True

    def __post_init__(self) -> None:
        if not self.name or _SLUG_UNSAFE.search(self.name):
            raise CampaignError(
                f"campaign name {self.name!r} must be a non-empty "
                "[A-Za-z0-9._-] slug"
            )
        require_seed(self.seed)
        require_positive("repetitions", self.repetitions)
        object.__setattr__(self, "factors", tuple(self.factors))
        paths = [axis.path for axis in self.factors]
        if len(set(paths)) != len(paths):
            raise CampaignError(f"duplicate factor paths: {sorted(paths)}")

    @property
    def n_cells(self) -> int:
        n = 1
        for axis in self.factors:
            n *= len(axis.values)
        return n

    def expand(self) -> Tuple[CampaignCell, ...]:
        """The full cartesian cell list, deterministic and validated.

        Cells are ordered with the *last* declared factor fastest
        (``itertools.product`` order).  Each cell's seed is derived from
        the campaign seed and the cell id, never from its position.
        """
        self.scenario.validate_names()
        root = RngRegistry(self.seed)
        cells = []
        grids = [axis.values for axis in self.factors]
        for index, combo in enumerate(itertools.product(*grids)):
            overrides = tuple(
                (axis.path, value)
                for axis, value in zip(self.factors, combo, strict=True)
            )
            scenario = self.scenario
            for path, value in overrides:
                scenario = _apply_override(scenario, path, value)
            scenario.validate_names()
            cell_id = (
                "-".join(
                    f"{path.split('.')[-1]}={_slug(value)}"
                    for path, value in overrides
                )
                or "base"
            )
            cells.append(
                CampaignCell(
                    cell_id=cell_id,
                    index=index,
                    overrides=overrides,
                    scenario=scenario,
                    seed=root.child(f"cell/{cell_id}").seed,
                )
            )
        ids = [cell.cell_id for cell in cells]
        if len(set(ids)) != len(ids):
            duplicates = sorted({i for i in ids if ids.count(i) > 1})
            raise CampaignError(
                f"factor values collide into duplicate cell ids {duplicates}; "
                "make the values distinguishable after slugging"
            )
        return tuple(cells)

    def to_payload(self) -> Dict[str, Any]:
        """JSON-serialisable identity payload of the whole campaign."""
        return {
            "name": self.name,
            "seed": self.seed,
            "repetitions": self.repetitions,
            "confidence": self.confidence,
            "demands_known": self.demands_known,
            "scenario": self.scenario.to_payload(),
            "factors": [
                {"path": axis.path, "values": list(axis.values)}
                for axis in self.factors
            ],
        }


def _load_toml(path: Path) -> Dict[str, Any]:
    import tomllib

    with open(path, "rb") as handle:
        return tomllib.load(handle)


def load_campaign_toml(path: Union[str, Path]) -> CampaignSpec:
    """Parse a TOML campaign file into a validated :class:`CampaignSpec`.

    Expected tables: ``[campaign]`` (name/seed/repetitions and the
    optional confidence/demands_known), ``[scenario]`` (passed to
    :class:`ScenarioSpec`, with ``[[scenario.outages]]`` rows and the
    ``*_options`` sub-tables inline), and ``[[factors]]`` rows with
    ``path``/``values``.
    """
    path = Path(path)
    payload = _load_toml(path)
    unknown = set(payload) - {"campaign", "scenario", "factors"}
    if unknown:
        raise CampaignError(
            f"{path}: unknown top-level tables {sorted(unknown)} "
            "(expected campaign/scenario/factors)"
        )
    try:
        campaign = dict(payload["campaign"])
        scenario_payload = dict(payload["scenario"])
    except KeyError as error:
        raise CampaignError(f"{path}: missing table {error}") from error
    scenario_payload["controllers"] = tuple(
        scenario_payload.get("controllers", ())
    )
    scenario_payload["outages"] = tuple(
        OutageSpec(**row) for row in scenario_payload.pop("outages", ())
    )
    factors = tuple(
        FactorAxis(path=row["path"], values=tuple(row["values"]))
        for row in payload.get("factors", ())
    )
    try:
        scenario = ScenarioSpec(**scenario_payload)
        spec = CampaignSpec(
            scenario=scenario, factors=factors, **campaign
        )
    except TypeError as error:
        raise CampaignError(f"{path}: {error}") from error
    spec.expand()  # validates registry names and cell-id uniqueness
    return spec
