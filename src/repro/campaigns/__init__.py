"""Declarative experiment campaigns over the name registries.

The campaign layer turns "run this grid of experiments" into data: a
:class:`CampaignSpec` (Python or TOML) names a base scenario entirely
through the registries — topology, workload, controllers, predictors —
and a cartesian factor grid over it; :meth:`CampaignSpec.expand`
deterministically derives one seeded :class:`CampaignCell` per grid
point; :func:`run_campaign` drains every cell's ``repetition ×
controller`` grid through the one executor of :mod:`repro.sim.parallel`
with per-cell checkpoint directories, so a killed campaign restarted
with ``resume=True`` re-runs only the missing work; and
:mod:`repro.campaigns.report` aggregates the result tree into one
table/CSV.  CLI front-end: ``repro campaign run|status|report``.
"""

from repro.campaigns.report import (
    CampaignReport,
    campaign_to_csv,
    load_campaign_report,
    render_campaign_report,
    write_campaign_report,
)
from repro.campaigns.runner import (
    CampaignResult,
    CampaignStatus,
    CellStatus,
    campaign_status,
    cell_directory,
    run_campaign,
)
from repro.campaigns.scenario import CampaignScenario, failure_schedule
from repro.campaigns.spec import (
    CampaignCell,
    CampaignError,
    CampaignSpec,
    FactorAxis,
    OutageSpec,
    ScenarioSpec,
    load_campaign_toml,
)

__all__ = [
    "CampaignCell",
    "CampaignError",
    "CampaignReport",
    "CampaignResult",
    "CampaignScenario",
    "CampaignSpec",
    "CampaignStatus",
    "CellStatus",
    "FactorAxis",
    "OutageSpec",
    "ScenarioSpec",
    "campaign_status",
    "campaign_to_csv",
    "cell_directory",
    "failure_schedule",
    "load_campaign_report",
    "load_campaign_toml",
    "render_campaign_report",
    "run_campaign",
    "write_campaign_report",
]
