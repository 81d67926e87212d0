"""Tests for the radio-layer model (power, path loss, rate, delay)."""

import itertools

import pytest
from hypothesis import given, strategies as st

from repro.mec.basestation import TIER_PROFILES, BaseStationTier
from repro.mec.radio import (
    RadioConfig,
    link_rate_mbps,
    path_loss_db,
    receive_power_w,
    snr_db,
    transmission_delay_ms,
)

MACRO = RadioConfig(transmit_power_w=40.0)
FEMTO = RadioConfig(transmit_power_w=0.1)


class TestPathLoss:
    def test_monotone_in_distance(self):
        assert path_loss_db(10) < path_loss_db(100) < path_loss_db(1000)

    def test_near_field_clamped_to_1m(self):
        assert path_loss_db(0.0) == path_loss_db(1.0)
        assert path_loss_db(0.5) == path_loss_db(1.0)

    def test_exponent_steepens_loss(self):
        assert path_loss_db(100, exponent=4.0) > path_loss_db(100, exponent=3.0)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            path_loss_db(-1.0)

    @given(st.floats(min_value=1.0, max_value=1e4))
    def test_ten_x_distance_adds_10n_db(self, d):
        n = 3.5
        delta = path_loss_db(10 * d, exponent=n) - path_loss_db(d, exponent=n)
        assert delta == pytest.approx(10 * n, rel=1e-9)


class TestReceivePowerAndSnr:
    def test_power_decreases_with_distance(self):
        assert receive_power_w(MACRO, 10) > receive_power_w(MACRO, 50)

    def test_macro_stronger_than_femto_at_same_distance(self):
        assert receive_power_w(MACRO, 20) > receive_power_w(FEMTO, 20)

    def test_snr_positive_within_tier_radius(self):
        """Every tier must deliver usable SNR at its own coverage edge."""
        for tier, profile in TIER_PROFILES.items():
            config = RadioConfig(transmit_power_w=profile.transmit_power_w)
            assert snr_db(config, profile.radius_m) > 0.0, tier


class TestLinkRate:
    def test_rate_capped_by_64qam(self):
        # At point-blank range the Shannon rate exceeds the 64QAM cap,
        # so the returned rate equals bandwidth * capped efficiency.
        rate = link_rate_mbps(MACRO, 1.0)
        assert rate == pytest.approx(20.0 * 5.0)

    def test_rate_monotone_nonincreasing_with_distance(self):
        distances = [1, 10, 50, 100, 500, 2000]
        rates = [link_rate_mbps(MACRO, d) for d in distances]
        assert all(a >= b for a, b in itertools.pairwise(rates))

    def test_rate_zero_far_away(self):
        assert link_rate_mbps(FEMTO, 100_000.0) == 0.0

    def test_each_tier_usable_at_radius(self):
        for profile in TIER_PROFILES.values():
            config = RadioConfig(transmit_power_w=profile.transmit_power_w)
            assert link_rate_mbps(config, profile.radius_m) > 0.0


class TestTransmissionDelay:
    def test_delay_scales_linearly_with_data(self):
        d1 = transmission_delay_ms(MACRO, 50.0, 1.0)
        d2 = transmission_delay_ms(MACRO, 50.0, 2.0)
        assert d2 == pytest.approx(2 * d1)

    def test_zero_data_zero_delay(self):
        assert transmission_delay_ms(MACRO, 50.0, 0.0) == 0.0

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError, match="no usable link"):
            transmission_delay_ms(FEMTO, 100_000.0, 1.0)

    def test_negative_data_rejected(self):
        with pytest.raises(ValueError):
            transmission_delay_ms(MACRO, 10.0, -1.0)


class TestRadioConfig:
    def test_rejects_non_positive_power(self):
        with pytest.raises(ValueError):
            RadioConfig(transmit_power_w=0.0)

    def test_rejects_non_positive_bandwidth(self):
        with pytest.raises(ValueError):
            RadioConfig(transmit_power_w=1.0, bandwidth_mhz=0.0)
