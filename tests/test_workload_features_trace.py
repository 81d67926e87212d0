"""Tests for hidden-feature encodings and the synthetic NYC Wi-Fi trace."""

import numpy as np
import pytest

from repro.mec.requests import Request
from repro.mec.services import ServiceCatalog
from repro.workload.features import HiddenFeatures, encode_request_locations, one_hot
from repro.workload.trace import (
    BOROUGHS,
    GROUP_TAGS,
    WifiTrace,
    requests_from_trace,
    synthesize_nyc_wifi_trace,
)


class TestOneHot:
    def test_basic(self):
        np.testing.assert_array_equal(one_hot(1, 3), [0.0, 1.0, 0.0])

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            one_hot(3, 3)

    def test_negative_index(self):
        with pytest.raises(ValueError):
            one_hot(-1, 3)


class TestEncodeRequestLocations:
    def _requests(self):
        return [
            Request(index=0, service_index=0, basic_demand_mb=1.0, hotspot_index=0),
            Request(index=1, service_index=0, basic_demand_mb=1.0, hotspot_index=2),
            Request(index=2, service_index=0, basic_demand_mb=1.0, hotspot_index=None),
        ]

    def test_shape_and_rows(self):
        codes = encode_request_locations(self._requests(), n_hotspots=3)
        assert codes.shape == (3, 4)
        np.testing.assert_array_equal(codes[0], [1, 0, 0, 0])
        np.testing.assert_array_equal(codes[1], [0, 0, 1, 0])
        np.testing.assert_array_equal(codes[2], [0, 0, 0, 1])  # "no hotspot"

    def test_each_row_sums_to_one(self):
        codes = encode_request_locations(self._requests(), n_hotspots=5)
        np.testing.assert_array_equal(codes.sum(axis=1), np.ones(3))

    def test_out_of_range_hotspot_raises(self):
        requests = [
            Request(index=0, service_index=0, basic_demand_mb=1.0, hotspot_index=7)
        ]
        with pytest.raises(ValueError):
            encode_request_locations(requests, n_hotspots=3)

    def test_empty_requests_rejected(self):
        with pytest.raises(ValueError):
            encode_request_locations([], n_hotspots=3)


class TestHiddenFeatures:
    def test_as_code_concatenates(self):
        feature = HiddenFeatures(user_id=0, hotspot_index=1, group_tag="tourist")
        code = feature.as_code(n_hotspots=2, group_tags=["tourist", "commuter"])
        np.testing.assert_array_equal(code, [0, 1, 0, 1, 0])

    def test_no_hotspot_coding(self):
        feature = HiddenFeatures(user_id=0, hotspot_index=None, group_tag="a")
        code = feature.as_code(n_hotspots=2, group_tags=["a"])
        np.testing.assert_array_equal(code, [0, 0, 1, 1])

    def test_unknown_tag_raises(self):
        feature = HiddenFeatures(user_id=0, hotspot_index=0, group_tag="alien")
        with pytest.raises(ValueError, match="vocabulary"):
            feature.as_code(n_hotspots=2, group_tags=["tourist"])

    def test_out_of_range_hotspot_raises(self):
        feature = HiddenFeatures(user_id=0, hotspot_index=9, group_tag="a")
        with pytest.raises(ValueError):
            feature.as_code(n_hotspots=2, group_tags=["a"])


class TestSynthesizeTrace:
    def test_sizes(self):
        trace = synthesize_nyc_wifi_trace(20, 100, np.random.default_rng(0))
        assert trace.n_hotspots == 20
        assert trace.n_users == 100

    def test_boroughs_valid(self):
        trace = synthesize_nyc_wifi_trace(50, 10, np.random.default_rng(1))
        assert all(h.borough in BOROUGHS for h in trace.hotspots)

    def test_group_tags_valid(self):
        trace = synthesize_nyc_wifi_trace(10, 80, np.random.default_rng(2))
        assert all(u.group_tag in GROUP_TAGS for u in trace.users)

    def test_users_reference_valid_hotspots(self):
        trace = synthesize_nyc_wifi_trace(15, 60, np.random.default_rng(3))
        assert all(0 <= u.hotspot_index < 15 for u in trace.users)

    def test_popularity_skew(self):
        """A few hotspots should attract a disproportionate share of users."""
        trace = synthesize_nyc_wifi_trace(30, 600, np.random.default_rng(4))
        counts = sorted(
            (len(trace.users_at(i)) for i in range(30)), reverse=True
        )
        top3 = sum(counts[:3])
        assert top3 > 0.25 * 600

    def test_manhattan_densest(self):
        trace = synthesize_nyc_wifi_trace(300, 10, np.random.default_rng(5))
        histogram = trace.borough_histogram()
        assert histogram.get("manhattan", 0) == max(histogram.values())

    def test_reproducible(self):
        a = synthesize_nyc_wifi_trace(10, 20, np.random.default_rng(6))
        b = synthesize_nyc_wifi_trace(10, 20, np.random.default_rng(6))
        assert a.hotspots == b.hotspots
        assert a.users == b.users

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            synthesize_nyc_wifi_trace(0, 10, np.random.default_rng(0))
        with pytest.raises(ValueError):
            synthesize_nyc_wifi_trace(10, 10, np.random.default_rng(0),
                                      base_demand_range_mb=(5.0, 1.0))


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        trace = synthesize_nyc_wifi_trace(8, 25, np.random.default_rng(7))
        hpath, upath = tmp_path / "hotspots.csv", tmp_path / "users.csv"
        trace.to_csv(hpath, upath)
        loaded = WifiTrace.from_csv(hpath, upath)
        assert loaded.hotspots == trace.hotspots
        assert loaded.users == trace.users


class TestWifiTraceValidation:
    def test_empty_hotspots_rejected(self):
        with pytest.raises(ValueError):
            WifiTrace([], [])

    def test_out_of_order_hotspot_indices_rejected(self):
        trace = synthesize_nyc_wifi_trace(3, 2, np.random.default_rng(0))
        shuffled = [trace.hotspots[1], trace.hotspots[0], trace.hotspots[2]]
        with pytest.raises(ValueError, match="order"):
            WifiTrace(shuffled, trace.users)

    def test_dangling_user_rejected(self):
        trace = synthesize_nyc_wifi_trace(3, 2, np.random.default_rng(0))
        bad_user = trace.users[0].__class__(
            user_id=99,
            hotspot_index=50,
            group_tag="tourist",
            session_start_slot=0,
            session_length_slots=1,
            base_demand_mb=1.0,
        )
        with pytest.raises(ValueError, match="hotspot"):
            WifiTrace(trace.hotspots, [bad_user])


class TestRequestsFromTrace:
    def test_one_request_per_user(self):
        rng = np.random.default_rng(8)
        trace = synthesize_nyc_wifi_trace(10, 40, rng)
        services = ServiceCatalog.generate(4, 5, rng)
        requests = requests_from_trace(trace, services, rng)
        assert len(requests) == 40
        assert [r.index for r in requests] == list(range(40))

    def test_services_within_catalog(self):
        rng = np.random.default_rng(9)
        trace = synthesize_nyc_wifi_trace(10, 40, rng)
        services = ServiceCatalog.generate(3, 5, rng)
        requests = requests_from_trace(trace, services, rng)
        assert all(0 <= r.service_index < 3 for r in requests)

    def test_users_near_their_hotspot(self):
        rng = np.random.default_rng(10)
        trace = synthesize_nyc_wifi_trace(5, 30, rng)
        services = ServiceCatalog.generate(2, 5, rng)
        requests = requests_from_trace(trace, services, rng, user_spread_m=20.0)
        for r in requests:
            hotspot = trace.hotspots[r.hotspot_index]
            assert hotspot.location.distance_to(r.location) <= 20.0 + 1e-9

    def test_group_tags_carried_over(self):
        rng = np.random.default_rng(11)
        trace = synthesize_nyc_wifi_trace(5, 30, rng)
        services = ServiceCatalog.generate(2, 5, rng)
        requests = requests_from_trace(trace, services, rng)
        for r, u in zip(requests, trace.users, strict=True):
            assert r.group_tag == u.group_tag
            assert r.basic_demand_mb == u.base_demand_mb

    def test_negative_spread_rejected(self):
        rng = np.random.default_rng(12)
        trace = synthesize_nyc_wifi_trace(5, 5, rng)
        services = ServiceCatalog.generate(2, 5, rng)
        with pytest.raises(ValueError):
            requests_from_trace(trace, services, rng, user_spread_m=-1.0)
