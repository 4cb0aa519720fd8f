"""Unit tests for repro.signal.peaks."""

import numpy as np
import pytest
from scipy import signal as sp_signal

from repro.exceptions import ConfigurationError, SignalError
from repro.signal.peaks import (
    detect_peaks,
    detect_valleys,
    peak_prominences,
)
from scalar_references import (
    local_maxima_reference,
    peak_prominences_reference,
)


def _gait_like(n=400, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n) / 100.0
    return np.sin(2 * np.pi * 1.8 * t) + 0.2 * rng.standard_normal(n)


class TestDetectPeaks:
    def test_single_peak(self):
        x = np.array([0, 1, 3, 1, 0], dtype=float)
        assert detect_peaks(x).tolist() == [2]

    def test_sine_peak_count(self):
        t = np.arange(1000) / 100.0
        x = np.sin(2 * np.pi * 2.0 * t)  # 2 Hz over 10 s -> 20 peaks
        peaks = detect_peaks(x, min_prominence=0.5)
        assert len(peaks) == 20

    def test_plateau_resolves_to_centre(self):
        x = np.array([0, 1, 2, 2, 2, 1, 0], dtype=float)
        assert detect_peaks(x).tolist() == [3]

    def test_min_height_filters(self):
        x = np.array([0, 1, 0, 5, 0], dtype=float)
        assert detect_peaks(x, min_height=2.0).tolist() == [3]

    def test_prominence_filters_riding_wiggles(self):
        t = np.arange(500) / 100.0
        base = np.sin(2 * np.pi * 1.0 * t)
        wiggle = 0.05 * np.sin(2 * np.pi * 13.0 * t)
        peaks = detect_peaks(base + wiggle, min_prominence=0.5)
        assert len(peaks) == 5

    def test_min_distance_keeps_more_prominent(self):
        x = np.zeros(20)
        x[5] = 1.0
        x[8] = 3.0
        peaks = detect_peaks(x, min_distance=5)
        assert peaks.tolist() == [8]

    def test_min_distance_allows_spaced(self):
        x = np.zeros(30)
        x[5] = 1.0
        x[20] = 1.0
        assert detect_peaks(x, min_distance=5).tolist() == [5, 20]

    def test_result_sorted(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=500)
        peaks = detect_peaks(x, min_distance=7)
        assert np.all(np.diff(peaks) > 0)

    def test_empty_signal(self):
        assert detect_peaks(np.empty(0)).size == 0

    def test_monotonic_has_no_peaks(self):
        assert detect_peaks(np.arange(10.0)).size == 0

    def test_endpoints_never_peaks(self):
        x = np.array([5.0, 1.0, 4.0])
        assert detect_peaks(x).size == 0

    def test_rejects_2d(self):
        with pytest.raises(SignalError):
            detect_peaks(np.zeros((2, 2)))

    def test_rejects_nan(self):
        with pytest.raises(SignalError):
            detect_peaks(np.array([0.0, np.nan, 0.0]))

    def test_rejects_negative_prominence(self):
        with pytest.raises(ConfigurationError):
            detect_peaks(np.zeros(5), min_prominence=-1)

    def test_rejects_zero_distance(self):
        with pytest.raises(ConfigurationError):
            detect_peaks(np.zeros(5), min_distance=0)


class TestPeakProminences:
    def test_isolated_peak_prominence_is_height_above_floor(self):
        x = np.array([0, 0, 4, 0, 0], dtype=float)
        peaks = detect_peaks(x)
        proms = peak_prominences(x, peaks)
        assert proms.tolist() == [4.0]

    def test_shoulder_peak_has_lower_prominence(self):
        x = np.array([0, 5, 3, 4, 0], dtype=float)
        peaks = np.array([1, 3])
        proms = peak_prominences(x, peaks)
        assert proms[0] == pytest.approx(5.0)
        assert proms[1] == pytest.approx(1.0)  # valley at 3 on its left

    def test_empty_peaks(self):
        assert peak_prominences(np.zeros(5), np.empty(0, dtype=int)).size == 0


class TestDetectValleys:
    def test_valley_is_negated_peak(self):
        x = np.array([0, -1, -3, -1, 0], dtype=float)
        assert detect_valleys(x).tolist() == [2]

    def test_sine_valley_count(self):
        t = np.arange(1000) / 100.0
        x = np.sin(2 * np.pi * 2.0 * t)
        assert len(detect_valleys(x, min_prominence=0.5)) == 20


class TestReferenceScans:
    """The pure-Python specifications agree with the scipy C kernels."""

    @pytest.mark.parametrize("seed", range(5))
    def test_local_maxima_reference_matches_scipy(self, seed):
        x = _gait_like(seed=seed)
        np.testing.assert_array_equal(
            local_maxima_reference(x), sp_signal.find_peaks(x)[0]
        )

    def test_local_maxima_reference_plateaus(self):
        x = np.asarray([0.0, 1.0, 1.0, 1.0, 0.0, 2.0, 0.0])
        np.testing.assert_array_equal(
            local_maxima_reference(x), sp_signal.find_peaks(x)[0]
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_prominences_reference_matches_scipy(self, seed):
        x = _gait_like(seed=seed)
        peaks = sp_signal.find_peaks(x)[0]
        expected = sp_signal.peak_prominences(x, peaks)[0]
        np.testing.assert_array_equal(
            peak_prominences_reference(x, peaks), expected
        )
