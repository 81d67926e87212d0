"""Tests for unit conversions."""

import pytest
from hypothesis import given, strategies as st

from repro.utils.units import (
    mbps_to_mb_per_ms,
    mhz_to_ghz,
    ms_to_seconds,
    seconds_to_ms,
)


class TestUnits:
    def test_seconds_ms_round_trip(self):
        assert ms_to_seconds(seconds_to_ms(1.25)) == pytest.approx(1.25)

    def test_seconds_to_ms(self):
        assert seconds_to_ms(2.0) == 2000.0

    def test_mhz_to_ghz(self):
        assert mhz_to_ghz(8000.0) == pytest.approx(8.0)

    def test_mbps_to_mb_per_ms(self):
        # 800 Mbps = 100 MB/s = 0.1 MB/ms
        assert mbps_to_mb_per_ms(800.0) == pytest.approx(0.1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            seconds_to_ms(-1.0)
        with pytest.raises(ValueError):
            mbps_to_mb_per_ms(-5.0)

    @given(st.floats(min_value=0, max_value=1e9, allow_nan=False))
    def test_round_trip_property(self, seconds):
        assert ms_to_seconds(seconds_to_ms(seconds)) == pytest.approx(seconds)
