"""Tests for bandit policies and the regret tracker."""

import numpy as np
import pytest

from repro.bandits.arms import ArmStats
from repro.bandits.policies import ThompsonSampling, Ucb1
from repro.bandits.regret import RegretTracker


def run_bandit(policy, true_means, horizon, seed=0):
    """Simulate a cost bandit; returns (arm_pulls, cumulative_regret)."""
    rng = np.random.default_rng(seed)
    stats = ArmStats(len(true_means))
    tracker = RegretTracker()
    best = min(true_means)
    pulls = np.zeros(len(true_means), dtype=int)
    for t in range(1, horizon + 1):
        arm = policy.select(stats, t, rng)
        cost = max(rng.normal(true_means[arm], 0.5), 0.0)
        stats.observe(arm, cost)
        pulls[arm] += 1
        tracker.record(true_means[arm], best)
    return pulls, tracker


class TestPolicyBasics:
    @pytest.mark.parametrize(
        "policy",
        [Ucb1(scale=1.0), ThompsonSampling()],
        ids=["ucb1", "thompson"],
    )
    def test_plays_every_arm_at_least_once(self, policy):
        pulls, _ = run_bandit(policy, [1.0, 2.0, 3.0, 4.0], horizon=40)
        assert np.all(pulls > 0)

    @pytest.mark.parametrize(
        "policy",
        [Ucb1(scale=1.0), ThompsonSampling(exploration_std=0.5)],
        ids=["ucb1", "thompson"],
    )
    def test_converges_to_best_arm(self, policy):
        true_means = [5.0, 1.0, 5.0, 5.0]
        pulls, _ = run_bandit(policy, true_means, horizon=600)
        assert pulls[1] == pulls.max()
        assert pulls[1] > 0.5 * pulls.sum()

    def test_allowed_restricts_selection(self):
        stats = ArmStats(5)
        rng = np.random.default_rng(0)
        policy = ThompsonSampling()
        for _ in range(50):
            arm = policy.select(stats, 1, rng, allowed=[1, 3])
            assert arm in (1, 3)
            stats.observe(arm, 1.0)

    def test_empty_allowed_rejected(self):
        stats = ArmStats(3)
        with pytest.raises(ValueError):
            Ucb1().select(stats, 1, np.random.default_rng(0), allowed=[])

    def test_out_of_range_allowed_rejected(self):
        stats = ArmStats(3)
        with pytest.raises(ValueError):
            Ucb1().select(stats, 1, np.random.default_rng(0), allowed=[7])

    def test_round_must_be_positive(self):
        stats = ArmStats(2)
        with pytest.raises(ValueError):
            Ucb1().select(stats, 0, np.random.default_rng(0))


class TestRegretTracker:
    def test_series_shapes(self):
        tracker = RegretTracker()
        tracker.record(5.0, 3.0)
        tracker.record(4.0, 3.0)
        np.testing.assert_array_equal(tracker.per_slot_regret, [2.0, 1.0])
        np.testing.assert_array_equal(tracker.cumulative_regret, [2.0, 3.0])
        assert tracker.total_regret == 3.0
        assert tracker.average_regret() == 1.5
        assert tracker.n_slots == 2

    def test_empty_tracker(self):
        tracker = RegretTracker()
        assert tracker.total_regret == 0.0
        assert tracker.average_regret() == 0.0
        assert tracker.cumulative_regret.size == 0

    def test_negative_costs_rejected(self):
        tracker = RegretTracker()
        with pytest.raises(ValueError):
            tracker.record(-1.0, 0.0)

    def test_is_sublinear_for_learning_curve(self):
        tracker = RegretTracker()
        # Per-slot regret decaying like 1/t: clearly sublinear growth.
        for t in range(1, 101):
            tracker.record(3.0 + 1.0 / t, 3.0)
        assert tracker.is_sublinear(window=10)

    def test_is_sublinear_false_for_worsening_curve(self):
        tracker = RegretTracker()
        for t in range(1, 101):
            tracker.record(3.0 + t * 0.01, 3.0)
        assert not tracker.is_sublinear(window=10)

    def test_is_sublinear_needs_enough_slots(self):
        tracker = RegretTracker()
        tracker.record(1.0, 1.0)
        with pytest.raises(ValueError):
            tracker.is_sublinear(window=10)

    def test_policies_achieve_sublinear_regret(self):
        """End-to-end: every learning policy beats linear regret growth."""
        means = [1.0, 2.5, 2.5, 4.0]
        for policy in [Ucb1(), ThompsonSampling()]:
            _, tracker = run_bandit(policy, means, horizon=1000, seed=3)
            assert tracker.is_sublinear(window=50), type(policy).__name__
