"""The paper's contribution: LP-guided online service caching + baselines.

* :class:`OlGdController` — Algorithm 1 (`OL_GD`): per-slot ILP relaxation,
  candidate sets from the fractional solution, epsilon-greedy exploration,
  bandit updates of the per-station delay means.
* :class:`OlGanController` / :class:`OlRegController` — Algorithm 2
  (`OL_GAN`) and the `OL_Reg` baseline: a demand predictor feeding the
  same LP-guided core.
* :class:`GreedyController` (`Greedy_GD`) and :class:`PriorityController`
  (`Pri_GD`) — the paper's §VI comparison algorithms.
* :mod:`repro.core.optimal` — the clairvoyant per-slot optimum used in
  regret measurement; :mod:`repro.core.theory` — Lemma 1 / Theorem 1.
"""

from repro.core.admission import AdmissionDecision, select_admissible
from repro.core.assignment import (
    Assignment,
    SlotEvaluator,
    evaluate_assignment,
    service_indices,
)
from repro.core.candidates import (
    build_candidate_sets,
    repair_capacity,
    sample_assignment,
)
from repro.core.churn import HysteresisController, evaluate_with_churn
from repro.core.cmab import CmabController, cmab_thompson, cmab_ucb
from repro.core.controller import Controller
from repro.core.greedy import GreedyController
from repro.core.ol_gan import OlGanController
from repro.core.ol_gd import ExplorationConfig, OlGdController
from repro.core.ol_reg import OlRegController
from repro.core.optimal import clairvoyant_cost, clairvoyant_cost_exact, static_hindsight_cost
from repro.core.priority import PriorityController
from repro.core.registry import (
    CONTROLLERS,
    ControllerFactory,
    controller_names,
    make_controller,
    register_controller,
)
from repro.core.theory import lemma1_gap, theorem1_regret_bound

__all__ = [
    "AdmissionDecision",
    "select_admissible",
    "Assignment",
    "SlotEvaluator",
    "evaluate_assignment",
    "service_indices",
    "HysteresisController",
    "evaluate_with_churn",
    "CmabController",
    "cmab_thompson",
    "cmab_ucb",
    "build_candidate_sets",
    "repair_capacity",
    "sample_assignment",
    "Controller",
    "GreedyController",
    "OlGanController",
    "ExplorationConfig",
    "OlGdController",
    "OlRegController",
    "clairvoyant_cost",
    "clairvoyant_cost_exact",
    "static_hindsight_cost",
    "PriorityController",
    "ControllerFactory",
    "controller_names",
    "make_controller",
    "CONTROLLERS",
    "register_controller",
    "lemma1_gap",
    "theorem1_regret_bound",
]
