"""The generated demand is bursty: over-dispersed, peaky and episodic.

The paper's premise is that demand is *bursty*; these tests measure it
with the standard traffic-engineering statistics of one demand series:
peak-to-mean ratio, index of dispersion (variance / mean; 1 for
Poisson) and lag-1 autocorrelation (burst *episodes* correlate
neighbouring slots).
"""

import numpy as np

from repro.mec.requests import Request
from repro.workload import BurstyDemandModel, ConstantDemandModel


def burstiness(series):
    """(peak-to-mean, index of dispersion, lag-1 autocorrelation)."""
    series = np.asarray(series, dtype=float)
    mean = series.mean()
    a, b = series[:-1], series[1:]
    spread = a.std() * b.std()
    lag1 = np.mean((a - a.mean()) * (b - b.mean())) / spread if spread else 0.0
    return series.max() / mean, series.var() / mean, lag1


def is_bursty(series):
    """Pronounced peaks and over-dispersion."""
    peak_to_mean, dispersion, _ = burstiness(series)
    return peak_to_mean >= 2.0 and dispersion >= 1.0


class TestWorkloadIsActuallyBursty:
    def _series(self, **kwargs):
        requests = [
            Request(index=0, service_index=0, basic_demand_mb=1.0, hotspot_index=0)
        ]
        model = BurstyDemandModel(requests, np.random.default_rng(7), **kwargs)
        return model.matrix(1500)[:, 0]

    def test_default_workload_is_bursty(self):
        series = self._series()
        assert is_bursty(series), burstiness(series)

    def test_bursts_are_episodic(self):
        """MMPP episodes + ramps leave positive lag-1 autocorrelation."""
        assert burstiness(self._series())[2] > 0.2

    def test_constant_demand_is_not_bursty(self):
        requests = [Request(index=0, service_index=0, basic_demand_mb=1.0)]
        series = ConstantDemandModel(requests).matrix(100)[:, 0]
        assert not is_bursty(series)

    def test_higher_p_enter_means_more_dispersion(self):
        rare = burstiness(self._series(p_enter=0.02))
        frequent = burstiness(self._series(p_enter=0.3))
        # More bursting raises the mean faster than the variance at the
        # top end; the comparison that is monotone is peak-to-mean for
        # the *rare* case: rare bursts → sharper peaks relative to mean.
        assert rare[0] > frequent[0]

    def test_report_fields_finite(self):
        assert np.all(np.isfinite(burstiness(self._series())))
