"""Tests for the per-station delay processes d_i(t)."""

import numpy as np
import pytest

from repro.mec.basestation import BaseStationTier
from repro.mec.delay import DriftingDelay, UniformTierDelay
from repro.mec.topology import gtitm_topology, place_base_stations


@pytest.fixture
def stations():
    g = gtitm_topology(30, np.random.default_rng(0))
    return place_base_stations(g, np.random.default_rng(1))


class TestUniformTierDelay:
    def test_means_within_tier_bands(self, stations):
        process = UniformTierDelay(stations, np.random.default_rng(2))
        for bs, mean in zip(stations, process.true_means, strict=True):
            lo, hi = bs.profile.unit_delay_ms
            assert lo <= mean <= hi

    def test_sample_stable_within_slot(self, stations):
        """d_i(t) must not change during a slot (paper §III-D)."""
        process = UniformTierDelay(stations, np.random.default_rng(2))
        np.testing.assert_array_equal(process.sample(3), process.sample(3))

    def test_samples_vary_across_slots(self, stations):
        process = UniformTierDelay(stations, np.random.default_rng(2))
        assert not np.array_equal(process.sample(0), process.sample(1))

    def test_samples_within_noise_band(self, stations):
        process = UniformTierDelay(stations, np.random.default_rng(2), noise_fraction=0.2)
        means = process.true_means
        for t in range(20):
            d = process.sample(t)
            assert np.all(d >= means * 0.8 - 1e-9)
            assert np.all(d <= means * 1.2 + 1e-9)

    def test_empirical_mean_converges_to_theta(self, stations):
        process = UniformTierDelay(stations, np.random.default_rng(2))
        samples = np.stack([process.sample(t) for t in range(600)])
        np.testing.assert_allclose(samples.mean(axis=0), process.true_means, rtol=0.05)

    def test_bounds_cover_all_samples(self, stations):
        process = UniformTierDelay(stations, np.random.default_rng(2))
        lo, hi = process.bounds
        for t in range(50):
            d = process.sample(t)
            assert np.all(d >= lo - 1e-9)
            assert np.all(d <= hi + 1e-9)

    def test_congestion_scales_means(self, stations):
        factors = [2.0] * len(stations)
        base = UniformTierDelay(stations, np.random.default_rng(2))
        congested = UniformTierDelay(
            stations, np.random.default_rng(2), congestion=factors
        )
        np.testing.assert_allclose(congested.true_means, base.true_means * 2.0)

    def test_congestion_below_one_rejected(self, stations):
        with pytest.raises(ValueError):
            UniformTierDelay(
                stations, np.random.default_rng(2), congestion=[0.5] * len(stations)
            )

    def test_congestion_wrong_length_rejected(self, stations):
        with pytest.raises(ValueError):
            UniformTierDelay(stations, np.random.default_rng(2), congestion=[1.0])

    def test_noise_fraction_one_rejected(self, stations):
        with pytest.raises(ValueError):
            UniformTierDelay(stations, np.random.default_rng(2), noise_fraction=1.0)

    def test_empty_stations_rejected(self):
        with pytest.raises(ValueError):
            UniformTierDelay([], np.random.default_rng(0))

    def test_n_stations(self, stations):
        process = UniformTierDelay(stations, np.random.default_rng(2))
        assert process.n_stations == len(stations)


class TestDriftingDelay:
    def test_sample_stable_within_slot(self, stations):
        process = DriftingDelay(stations, np.random.default_rng(3))
        np.testing.assert_array_equal(process.sample(5), process.sample(5))

    def test_means_drift_over_time(self, stations):
        process = DriftingDelay(stations, np.random.default_rng(3), drift_ms=2.0)
        early = np.mean([process.sample(t) for t in range(5)], axis=0)
        late = np.mean([process.sample(t) for t in range(200, 205)], axis=0)
        # With a substantial walk, at least some stations moved noticeably.
        assert np.max(np.abs(late - early)) > 1.0

    def test_out_of_order_sampling_consistent(self, stations):
        """Sampling slot 10 then slot 3 must agree with forward order."""
        p1 = DriftingDelay(stations, np.random.default_rng(4))
        d10 = p1.sample(10)
        p2 = DriftingDelay(stations, np.random.default_rng(4))
        for t in range(11):
            d = p2.sample(t)
        np.testing.assert_array_equal(d10, d)

    def test_samples_respect_bounds(self, stations):
        process = DriftingDelay(
            stations,
            np.random.default_rng(5),
            drift_ms=5.0,
            mean_floor_ms=1.0,
            mean_ceil_ms=60.0,
        )
        lo, hi = process.bounds
        for t in range(100):
            d = process.sample(t)
            assert np.all(d >= lo - 1e-9)
            assert np.all(d <= hi + 1e-9)

    def test_true_means_are_initial(self, stations):
        process = DriftingDelay(stations, np.random.default_rng(6))
        for bs, mean in zip(stations, process.true_means, strict=True):
            lo, hi = bs.profile.unit_delay_ms
            assert lo <= mean <= hi

    def test_floor_above_ceil_rejected(self, stations):
        with pytest.raises(ValueError):
            DriftingDelay(
                stations, np.random.default_rng(0), mean_floor_ms=50.0, mean_ceil_ms=10.0
            )
